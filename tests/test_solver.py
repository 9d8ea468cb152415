"""Time stepping, Picard iteration, and the discrete conservation structure."""

from __future__ import annotations

import functools
import gc
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from quadrature_oracle import triangle_rule
from test_law import g_eval
from test_mesh import _scrambled_mesh
from test_spaces import _ORDERING_MESHES, _ordering_mesh
from weights_oracle import cell_weights

import forchmix.mms as mms_module
import forchmix.solver as solver_module
from forchmix import (
    DiscreteState,
    ExpandedMixedSolver,
    ForchheimerLaw,
    ManufacturedSolution,
    PicardError,
    SolverConfig,
    error_norms,
    law_from_string,
    unit_square_mesh,
)
from forchmix.law import K_eval, K_flux
from forchmix.mesh import build_mesh
from forchmix.spaces import (
    assemble_forms,
    cell_points,
    hdiv_interpolate,
    triangle_quadrature,
)


def _zero_scalar(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_vector(x, y):
    return np.stack(np.broadcast_arrays(0.0 * x, 0.0 * y), axis=-1)


def _zero_forcing(x, y):
    return lambda t: 0.0


def _blocks(solver: ExpandedMixedSolver) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """B_div and M_uz of the solver's mesh, from the stacked forms; row T of
    M_uz holds cell T's x moments and row F + T its y moments."""
    forms = assemble_forms(solver.mesh, solver.dofmap)
    split = 2 * solver.mesh.num_triangles
    return forms[split:], forms[:split]


def _frozen_solve(solver: ExpandedMixedSolver, monolithic: bool = False):
    """Oracle for a step's frozen-conductivity system, the linear system of
    the scheme with K frozen at a cellwise constant kbar.  Returns
    solve(kbar, p_hat) -> (p, s_flat, u), with p_hat = p_prev + dt M_p^{-1} F
    and s_flat ordered (cell, component).  It factors afresh and solves
    directly, either the condensed velocity system
    A(kbar) u = B^T p_hat, assembled from the global forms, or, monolithic,
    the full (p, s, u) saddle system, which checks the elimination of s and p."""
    mesh, dofmap, dt = solver.mesh, solver.dofmap, solver.config.dt
    b_div, m_uz = _blocks(solver)

    def solve(kbar, p_hat):
        mass = np.tile(kbar * mesh.areas, 2)
        if monolithic:
            system = sp.bmat(
                [
                    [sp.diags(mesh.areas / dt), None, b_div],
                    [None, sp.diags(mass), m_uz],
                    [b_div.T, m_uz.T, None],
                ],
                format="csc",
            )
            n_p, n_s = mesh.num_triangles, 2 * mesh.num_triangles
            rhs = np.concatenate([mesh.areas * p_hat / dt, np.zeros(n_s + dofmap.n_rt0)])
            solution = splu(system).solve(rhs)
            s = solution[n_p : n_p + n_s]
            return solution[:n_p], s.reshape(2, -1).T.ravel(), solution[n_p + n_s :]
        u = splu(_condensed_matrix(solver, kbar)).solve(b_div.T @ p_hat)
        s = -(m_uz @ u) / mass
        return p_hat - dt * (b_div @ u) / mesh.areas, s.reshape(2, -1).T.ravel(), u

    return solve


def _p_hat(solver: ExpandedMixedSolver, p_prev: np.ndarray, load: np.ndarray) -> np.ndarray:
    """p_hat = p_prev + dt M_p^{-1} F, the data of a step's system."""
    return p_prev + solver.config.dt * load / solver.mesh.areas


def _plain_picard_run(solver: ExpandedMixedSolver, exact, monolithic: bool = False, max_iter: int = 200):
    """Oracle for the Newton march: plain Picard over frozen solves, each step
    started at K(|s^{n-1}|), stopped when the residual |(K(|s|) - kbar) s| is
    at most 0.1 * tol * (1 + max|s|), or the increment of s at most
    tol * (1 + max|s|) with that residual within 10 times as much.  Returns
    the final state."""
    cfg = solver.config
    tol = cfg.picard_tol
    solve = _frozen_solve(solver, monolithic)
    state = solver.initial_state(exact.p0, exact.s0, exact.u0)
    loads = solver._loads(exact.f)
    for n in range(1, cfg.num_steps + 1):
        t_n = n * cfg.dt
        p_hat = _p_hat(solver, state.p, loads(t_n))
        kbar = K_eval(solver.law, np.linalg.norm(state.s, axis=1))
        s_iter = state.s.reshape(-1)
        for _ in range(max_iter):
            p, s_flat, u = solve(kbar, p_hat)
            s_new = s_flat.reshape(-1, 2)
            k_new = K_eval(solver.law, np.linalg.norm(s_new, axis=1))
            residual = np.max(np.abs((k_new - kbar)[:, None] * s_new))
            increment = np.max(np.abs(s_flat - s_iter))
            scale = 1.0 + np.max(np.abs(s_flat))
            s_iter, kbar = s_flat, k_new
            if residual <= 0.1 * tol * scale:
                break
            if increment <= tol * scale and residual <= 10.0 * tol * scale:
                break
        else:
            raise AssertionError(f"plain Picard did not converge on step {n}")
        state = DiscreteState(p=p, s=s_new, u=u, t=t_n)
    return state


def _n16_setup(law_text: str, picard_tol: float = 1e-6):
    """n=16 and 12 steps at dt = h^2, as in the newton-stiff benchmark."""
    mesh = unit_square_mesh(16)
    config = SolverConfig(dt=mesh.h**2, t_final=12 * mesh.h**2, picard_tol=picard_tol)
    law = law_from_string(law_text)
    return mesh, law, config, ManufacturedSolution(law)


@functools.cache
def _tight_oracle(law_text: str, monolithic: bool = False) -> DiscreteState:
    """Plain Picard's final state on the n=16 setup at picard_tol = 1e-12."""
    mesh, law, config, exact = _n16_setup(law_text, picard_tol=1e-12)
    return _plain_picard_run(ExpandedMixedSolver(mesh, law, config), exact, monolithic)


def _assert_states_close(got: DiscreteState, want: DiscreteState, rel: float) -> None:
    for field in ("p", "s", "u"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b)), field


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the solver module's calls of its function name (splu for the
    factorizations, build_dofmap for the velocity numberings); the count is
    the list's one entry."""
    calls = [0]
    original = getattr(solver_module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_module, name, counting)
    return calls


class _CountingLU:
    """A factorization whose triangular solves are counted."""

    def __init__(self, lu, calls: list[int]) -> None:
        self._lu, self._calls = lu, calls

    def solve(self, rhs):
        self._calls[0] += 1
        return self._lu.solve(rhs)


def _count_solves(monkeypatch) -> list[int]:
    """Count the triangular solves of every factorization the solver makes;
    the count is the list's one entry."""
    calls = [0]
    original = solver_module.splu
    monkeypatch.setattr(
        solver_module, "splu", lambda *args, **kwargs: _CountingLU(original(*args, **kwargs), calls)
    )
    return calls


def _factor_frozen(solver: ExpandedMixedSolver, weights: np.ndarray) -> None:
    """Factor the Jacobian at isotropic cell blocks, zero v and
    g = slope = w |T|, where it is A(1/g) = F^T diag(w, w, dt/|T|) F at the
    cell weights w = 1/(K_T |T|)."""
    zero = np.zeros((2, len(weights)))
    g = weights * solver.mesh.areas
    solver._refill_jacobian(zero, zero[0], g, g)
    solver._factor()


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_final=1.0, picard_tol=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(dt=bad, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=bad)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=1.0, picard_tol=bad)
    # one rule, shared with convergence_study's checks, rejects what is no real number
    for bad in (True, False, "0.1", None, 1j):
        with pytest.raises(ValueError, match="^dt must be a real number"):
            SolverConfig(dt=bad, t_final=1.0)
        with pytest.raises(ValueError, match="^t_final must be a real number"):
            SolverConfig(dt=0.1, t_final=bad)
        with pytest.raises(ValueError, match="^picard_tol must be a real number"):
            SolverConfig(dt=0.1, t_final=1.0, picard_tol=bad)
    # a double counts whole steps only up to 2**53; past it, or at inf, no run
    for t_final in (1.0, 1e308):
        with pytest.raises(ValueError, match=r"more than 2\*\*53"):
            SolverConfig(dt=1e-300, t_final=t_final)
    assert SolverConfig(dt=1.0, t_final=2.0**53).num_steps == 2**53
    # numpy reals are reals
    assert SolverConfig(dt=np.float64(0.5), t_final=np.int64(1)).num_steps == 2
    assert SolverConfig(dt=0.25, t_final=1.0).num_steps == 4
    assert SolverConfig(dt=0.25, t_final=0.0).num_steps == 0


def test_zero_data_stays_zero_in_one_iteration(law: ForchheimerLaw, monkeypatch) -> None:
    """Every step of a zero run solves its system exactly from u^{n-1}: its
    residual is zero, CG returns a zero Newton step at once, and the one
    factorization is the run's first iterate's."""
    factorizations = _count_calls(monkeypatch, "splu")
    mesh = unit_square_mesh(3)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=1.0))
    state0 = solver.initial_state(_zero_scalar, _zero_vector, _zero_vector)
    state, iterations, _, _ = next(solver.steps(state0, _zero_forcing))
    assert iterations == 1
    factorizations[0] = 0
    result = solver.run(_zero_forcing, _zero_scalar, _zero_vector, _zero_vector)
    assert result.picard_iters == [1] * 10
    assert factorizations[0] == 1
    for each in (state, result.state):
        assert np.all(each.p == 0.0)
        assert np.all(each.s == 0.0)
        assert np.all(each.u == 0.0)


def test_a_mesh_without_interior_edges_marches(law: ForchheimerLaw) -> None:
    """One triangle has no interior edge, so no velocity unknown: a zero
    run still marches, one iterate a step, with an empty velocity."""
    mesh = build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.2))
    result = solver.run(_zero_forcing, _zero_scalar, _zero_vector, _zero_vector)
    assert result.picard_iters == [1, 1]
    assert result.state.u.shape == (0,)
    assert np.all(result.state.p == 0.0) and np.all(result.state.s == 0.0)


def test_constant_valued_fields_march_as_their_arrays(law: ForchheimerLaw) -> None:
    """Forcing and initial data may return a constant, not an array over the
    points: the march matches the one with array-valued equivalents bit for
    bit."""
    mesh = unit_square_mesh(4)
    config = SolverConfig(dt=0.05, t_final=0.2)

    def vector(x, y):
        return np.full((*np.shape(x), 2), 0.0)

    constant = ExpandedMixedSolver(mesh, law, config).run(
        lambda x, y: lambda t: 1.0, lambda x, y: 0.0, lambda x, y: np.zeros(2), lambda x, y: np.zeros(2)
    )
    arrays = ExpandedMixedSolver(mesh, law, config).run(
        lambda x, y: lambda t: np.full_like(x, 1.0), lambda x, y: np.full_like(x, 0.0), vector, vector
    )
    assert constant.picard_iters == arrays.picard_iters
    assert constant.mass_residuals == arrays.mass_residuals
    assert constant.f_integrals == arrays.f_integrals
    for field in ("p", "s", "u"):
        assert getattr(constant.state, field).tobytes() == getattr(arrays.state, field).tobytes()
    assert np.all(constant.state.p > 0.0)


def test_constant_conductivity_converges_in_one_iteration() -> None:
    """With a negligible nonlinear term K is constant and the step is linear:
    the first Newton step, preconditioned by a factorization of its own
    Jacobian, leaves a residual below the CG floor, which ends the step."""
    law = ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0, 1e-30))
    mms = ManufacturedSolution(law)
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=1e-2, t_final=1.0))
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    _, iterations, _, _ = next(solver.steps(state0, mms.f))
    assert iterations == 1


def test_initial_state_projections(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(2)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.5, t_final=1.0))
    state = solver.initial_state(mms.p0, mms.s0, mms.u0)
    assert state.t == 0.0

    oracle_rule = triangle_rule(11)
    x, y = cell_points(mesh, oracle_rule)
    p_oracle = np.asarray(mms.p0(x, y)) @ oracle_rule.weights
    assert np.max(np.abs(state.p - p_oracle)) < 1e-12

    s_oracle = np.einsum(
        "fqd,q->fd", np.asarray(mms.s0(x, y)), oracle_rule.weights
    )
    assert np.max(np.abs(state.s - s_oracle)) < 1e-12

    expected_u = hdiv_interpolate(mesh, solver.dofmap, mms.u0)
    assert np.allclose(state.u, expected_u, atol=1e-15)


def test_initial_state_takes_the_constitutive_flux(law: ForchheimerLaw, mms) -> None:
    """A caller without an exact velocity passes -K_flux(law, s0), which is
    the manufactured u0 itself."""
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=0.5, t_final=1.0))
    exact = solver.initial_state(mms.p0, mms.s0, mms.u0)
    flux = solver.initial_state(mms.p0, mms.s0, lambda x, y: -K_flux(law, mms.s0(x, y)))
    assert flux.u.tobytes() == exact.u.tobytes()


def test_mass_balance_every_step(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.05, t_final=0.5))
    result = solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    for residual, f_int in zip(result.mass_residuals, result.f_integrals):
        assert residual <= 1e-10 * (1.0 + abs(f_int))


def test_monolithic_matches_condensed(monkeypatch) -> None:
    """Whole runs on n=16 at picard_tol = 1e-12: the Newton march, which
    factors once and then runs CG preconditioned by that LU, reproduces plain
    Picard over the monolithic frozen systems to 1e-9 (relative), which
    checks the elimination of s and p as well as the limit."""
    factorizations = _count_calls(monkeypatch, "splu")
    for law_text in ("1:0,1:1", "1:0,1e4:2"):
        mesh, each_law, config, exact = _n16_setup(law_text, picard_tol=1e-12)
        factorizations[0] = 0
        result = ExpandedMixedSolver(mesh, each_law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
        # nine Newton iterates in ten or more went through the reused factorization
        assert 10 * factorizations[0] < sum(result.picard_iters)
        _assert_states_close(result.state, _tight_oracle(law_text, monolithic=True), 1e-9)


def _spy_cg(monkeypatch, solver: ExpandedMixedSolver) -> list[tuple[float, float, float, float]]:
    """Record each CG solve of the solver as (floor, |b|, target, residual):
    the floor of its step's stop, _cg_rtol(picard_tol) |b_n - b_{n-1}| with
    b = B^T p_hat, or |R(u^0)| in place of |b_1 - b_0| on a march's first
    step; the norm of the right-hand side b = -R(u); the target CG was
    given; and the true residual |b - J delta| of what it returned, nan on a
    miss."""
    calls, floor = [], [None]
    advance, pcg = solver._advance, solver._pcg

    def spy_advance(levels, t_n, load, rhs_prev):
        floor[0] = None
        if rhs_prev is not None:
            rhs = _blocks(solver)[0].T @ _p_hat(solver, levels[-1].p, load)
            floor[0] = solver._cg_rtol * solver_module._norm(rhs - rhs_prev)
        return advance(levels, t_n, load, rhs_prev)

    def spy_pcg(b, target):
        if floor[0] is None:
            floor[0] = solver._cg_rtol * solver_module._norm(b)
        delta = pcg(b, target)
        residual = np.nan if delta is None else np.linalg.norm(b - solver._jacobian_times(delta))
        calls.append((floor[0], solver_module._norm(b), target, residual))
        return delta

    monkeypatch.setattr(solver, "_advance", spy_advance)
    monkeypatch.setattr(solver, "_pcg", spy_pcg)
    return calls


def test_exact_anchor_stops_cg_relative_to_the_warm_start(law: ForchheimerLaw, monkeypatch) -> None:
    """A step whose b = B^T p_hat equals the previous step's, as at a steady
    state, has a zero floor: its CG stops at _NEWTON_ETA times the residual
    R(u) instead of asking for a zero one, and the stored factorization
    serves every solve.  The step still converges to its Picard fixed point."""
    factorizations = _count_calls(monkeypatch, "splu")
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.1))
    rng = np.random.default_rng(0)
    p_prev, load = rng.standard_normal(mesh.num_triangles), np.zeros(mesh.num_triangles)
    u = rng.standard_normal(solver.dofmap.n_rt0)
    level = DiscreteState(p=p_prev, s=np.zeros((mesh.num_triangles, 2)), u=u, t=0.0)
    _factor_frozen(solver, 1.0 / mesh.areas)
    calls = _spy_cg(monkeypatch, solver)
    b_prev = _blocks(solver)[0].T @ p_prev
    (state, iterations, _, _), rhs = solver._advance([level], 0.1, load, b_prev)
    assert rhs.tobytes() == b_prev.tobytes()
    assert factorizations[0] == 1
    assert iterations == len(calls) >= 2
    for floor, b_norm, target, residual in calls:
        assert floor == 0.0
        assert target == solver_module._NEWTON_ETA * b_norm > 0.0
        assert residual <= 1.001 * target
    _assert_picard_fixed_points(solver, _zero_forcing, [level, state])


def test_cg_stop_follows_the_picard_tolerance(law: ForchheimerLaw, mms, monkeypatch) -> None:
    """CG stops at max(_NEWTON_ETA |R(u)|, floor), with the floor
    _cg_rtol(picard_tol) |b_n - b_{n-1}| and _cg_rtol(tol) = 1e-2 * tol kept
    within [1e-12, 1e-8]: every solve of a run at picard_tol = 1e-10 and at
    the default 1e-6 returns a step whose true residual meets that target,
    and in both runs the floor sets some targets."""
    rule = [solver_module._cg_rtol(tol) for tol in (1e-3, 1e-6, 1e-9, 1e-10, 1e-14)]
    assert rule == pytest.approx([1e-8, 1e-8, 1e-11, 1e-12, 1e-12], rel=1e-12)
    for tol in (1e-10, 1e-6):
        config = SolverConfig(dt=1e-2, t_final=0.1, picard_tol=tol)
        solver = ExpandedMixedSolver(unit_square_mesh(8), law, config)
        calls = _spy_cg(monkeypatch, solver)
        solver.run(mms.f, mms.p0, mms.s0, mms.u0)
        assert len(calls) >= 10
        for floor, b_norm, target, residual in calls:
            assert target == max(solver_module._NEWTON_ETA * b_norm, floor)
            assert np.isnan(residual) or residual <= 1.001 * target
        assert any(target == floor for floor, _, target, _ in calls)


def _condensed_matrix(solver: ExpandedMixedSolver, kbar: np.ndarray) -> sp.csc_matrix:
    """A(kbar) = M_uz^T M_sz(kbar)^{-1} M_uz + dt B^T M_p^{-1} B, assembled
    from the global forms."""
    mesh = solver.mesh
    b_div, m_uz = _blocks(solver)
    mass = sp.diags(1.0 / np.tile(kbar * mesh.areas, 2))
    div = sp.diags(solver.config.dt / mesh.areas)
    return (m_uz.T @ mass @ m_uz + b_div.T @ div @ b_div).tocsc()


def test_cg_cap_falls_back_to_a_fresh_factorization(law: ForchheimerLaw, monkeypatch) -> None:
    """When CG misses its target within the cap, J is factored again at the
    current iterate and CG runs again; the final fields still match plain Picard
    at picard_tol = 1e-12 to 1e-9 (relative)."""
    monkeypatch.setattr(solver_module, "_CG_MAXITER", 1)
    factorizations = _count_calls(monkeypatch, "splu")
    numberings = _count_calls(monkeypatch, "build_dofmap")
    mesh = unit_square_mesh(8)
    config = SolverConfig(dt=1e-2, t_final=5e-2, picard_tol=1e-12)
    exact = ManufacturedSolution(law)
    solver = ExpandedMixedSolver(mesh, law, config)
    result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    assert factorizations[0] > 1
    # every refactorization reuses the numbering built for the first
    assert numberings[0] == 1
    _assert_states_close(result.state, _plain_picard_run(solver, exact), 1e-9)


def test_a_cg_miss_on_a_fresh_factorization_raises(law: ForchheimerLaw, mms, monkeypatch) -> None:
    """A CG that misses its target even on a fresh factorization ends the
    step with PicardError, carrying the residual, instead of iterating on;
    the one cap, at 0, leaves every CG short."""
    monkeypatch.setattr(solver_module, "_CG_MAXITER", 0)
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=1e-2, t_final=1e-2))
    with pytest.raises(PicardError, match="fresh factorization") as excinfo:
        solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    assert excinfo.value.residual > 0.0


@pytest.mark.parametrize("spec", _ORDERING_MESHES)
def test_ordered_direct_solve_matches_spsolve(spec: int | str, law: ForchheimerLaw) -> None:
    """The factorization of A in the DofMap's nested-dissection numbering,
    taken without pivoting, solves the condensed system: its solution agrees
    with spsolve's to 1e-12 (relative) for a conductivity spanning 1e-4..1."""
    mesh = _ordering_mesh(spec)
    rng = np.random.default_rng(0)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.1))
    kbar = 10.0 ** rng.uniform(-4.0, 0.0, mesh.num_triangles)
    kbar[:2] = 1e-4, 1.0
    rhs = _blocks(solver)[0].T @ rng.standard_normal(mesh.num_triangles)
    _factor_frozen(solver, 1.0 / (kbar * mesh.areas))
    want = spsolve(_condensed_matrix(solver, kbar), rhs)
    assert np.max(np.abs(solver._lu.solve(rhs) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", _ORDERING_MESHES)
def test_layout_is_the_condensed_matrix_in_nested_dissection_order(
    spec: int | str, law: ForchheimerLaw, monkeypatch
) -> None:
    """At each of two random conductivities, splu receives A as a CSC matrix
    equal, entry by entry, to the condensed matrix assembled from the global
    forms in the DofMap's nested-dissection numbering, with no permutation
    and diagonal pivots on _LU_PANEL-column panels: its pattern holds every
    pair of edges that share a cell.  One solver numbers the dofs once
    across factorizations and runs."""
    numberings = _count_calls(monkeypatch, "build_dofmap")
    received = []
    splu_original = solver_module.splu

    def spy(a, **kwargs):
        received.append((a, kwargs))
        return splu_original(a, **kwargs)

    monkeypatch.setattr(solver_module, "splu", spy)
    mesh = _ordering_mesh(spec)
    rng = np.random.default_rng(1)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.2))
    b_div, _ = _blocks(solver)
    coupled = (abs(b_div).T @ abs(b_div)).tocsc()
    coupled.sort_indices()
    for _ in range(2):
        kbar = 10.0 ** rng.uniform(-4.0, 0.0, mesh.num_triangles)
        _factor_frozen(solver, 1.0 / (kbar * mesh.areas))
        a, kwargs = received[-1]
        assert a.format == "csc"
        assert kwargs == {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0, "panel_size": solver_module._LU_PANEL}
        want = _condensed_matrix(solver, kbar).toarray()
        assert np.max(np.abs(a.toarray() - want)) <= 1e-15 * np.max(np.abs(want))
        a.sort_indices()
        assert np.array_equal(a.indptr, coupled.indptr)
        assert np.array_equal(a.indices, coupled.indices)
    exact = ManufacturedSolution(law)
    for _ in range(2):
        solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    assert numberings[0] == 1


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2", "1:0,1e12:0.5,1:3"])
def test_the_factor_is_the_jacobian(law_text: str, n: int, monkeypatch) -> None:
    """At a random velocity, splu receives the Jacobian that CG applies: the
    matrix equals J on the unit vectors to 1e-12 (relative), with the pattern
    of A and as many nonzeros in L + U as A's factorization has.  CG
    preconditioned by that fresh factor meets a target of 1e-10 |b| in one
    iteration, which counts no stale iteration."""
    received = []
    splu_original = solver_module.splu

    def spy(a, **kwargs):
        received.append(a)
        return splu_original(a, **kwargs)

    monkeypatch.setattr(solver_module, "splu", spy)
    mesh = unit_square_mesh(n)
    solver = ExpandedMixedSolver(mesh, law_from_string(law_text), SolverConfig(dt=0.1, t_final=0.1))
    rng = np.random.default_rng(n)
    size = solver.dofmap.n_rt0
    _, _, cell = solver._state(rng.standard_normal(size), rng.standard_normal(mesh.num_triangles))
    solver._refill_jacobian(*cell)
    solver._factor()
    (a,) = received
    jacobian = np.column_stack([solver._jacobian_times(e) for e in np.eye(size)])
    assert np.max(np.abs(a.toarray() - jacobian)) <= 1e-12 * np.max(np.abs(jacobian))
    frozen = _condensed_matrix(solver, 1.0 / cell[2])
    for matrix in (a, frozen):
        matrix.sort_indices()
    assert np.array_equal(a.indptr, frozen.indptr) and np.array_equal(a.indices, frozen.indices)
    assert solver._lu.nnz == splu(frozen, permc_spec="NATURAL", diag_pivot_thresh=0.0).nnz
    b = rng.standard_normal(size)
    monkeypatch.setattr(solver_module, "_CG_MAXITER", 1)
    delta = solver._pcg(b, 1e-10 * np.linalg.norm(b))
    assert delta is not None
    assert np.linalg.norm(b - jacobian @ delta) <= 1.001e-10 * np.linalg.norm(b)
    assert solver._stale_iterations == 0


def _residual(solver: ExpandedMixedSolver, u: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    """R(u) = -M_uz^T s(u) + dt B^T M_p^{-1} B u - B^T p_hat, from the global
    forms, with s(u)_T = g(|v_T|) v_T and v_T = -(M_uz u)_T / |T|."""
    mesh = solver.mesh
    b_div, m_uz = _blocks(solver)
    v = -(m_uz @ u).reshape(2, -1) / mesh.areas
    s = g_eval(solver.law, np.linalg.norm(v, axis=0)) * v
    div = solver.config.dt * (b_div @ u) / mesh.areas
    return -m_uz.T @ s.ravel() + b_div.T @ div - b_div.T @ p_hat


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2", "1:0,1e12:0.5,1:3"])
def test_jacobian_is_the_derivative_of_the_residual(law_text: str) -> None:
    """The Jacobian the Newton step applies is symmetric and is the
    derivative of R: J d matches central differences of R along d to 1e-6
    (relative), here with cells where v = 0, at which g' diverges for the
    exponent 0.5 while D_T = g I stays finite."""
    law = law_from_string(law_text)
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.1))
    rng = np.random.default_rng(2)
    n = solver.dofmap.n_rt0
    u = 1e-2 * rng.standard_normal(n)
    # zero velocity on the first triangle's edges
    _, m_uz = _blocks(solver)
    edges = m_uz[0].indices
    u[edges] = 0.0
    p_hat = rng.standard_normal(mesh.num_triangles)
    assert np.count_nonzero(np.abs(m_uz @ u) == 0.0) >= 2
    s, p, cell = solver._state(u, p_hat)
    solver._refill_jacobian(*cell)
    assert np.all(np.isfinite(solver._cell_planes))
    # the state is the residual's: -R(u) = [M_uz; B]^T [s; p]
    want = -_residual(solver, u, p_hat)
    assert np.allclose(solver._forms_t @ np.concatenate((s.ravel(), p)), want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    jacobian = np.column_stack([solver._jacobian_times(e) for e in np.eye(n)])
    assert np.allclose(jacobian, jacobian.T, rtol=0.0, atol=1e-12 * np.max(np.abs(jacobian)))
    assert np.all(np.linalg.eigvalsh(jacobian) > 0.0)
    for d in rng.standard_normal((3, n)):
        d[edges] = 0.0
        h = 1e-6 * np.max(np.abs(u)) / np.max(np.abs(d))
        difference = (_residual(solver, u + h * d, p_hat) - _residual(solver, u - h * d, p_hat)) / (2.0 * h)
        jd = jacobian @ d
        assert np.max(np.abs(jd - difference)) <= 1e-6 * np.max(np.abs(jd))


def _cell_operator(solver: ExpandedMixedSolver) -> np.ndarray:
    """W, the cell operator of J = F^T W F, as the dense 3N x 3N matrix its
    planes w_xx, w_yy and w_xy and its dt/|T| stand for."""
    w_xx, w_yy, w_xy = (sp.diags(plane) for plane in solver._cell_planes)
    return sp.bmat([[w_xx, w_xy, None], [w_xy, w_yy, None], [None, None, sp.diags(solver._dt_areas)]]).toarray()


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e12:0.5,1:3"])
def test_cell_weights_keep_their_invariants_over_refills(law_text: str) -> None:
    """W's planes stay finite over refills at velocities with cells where
    v = 0, the symmetric operator they stand for is entry by entry the
    oracle's dia_array, and dt/|T| is the constructor's own array with its
    bits.  At zero v with g = slope, W is exactly diag(g/|T|, g/|T|, dt/|T|),
    the A(1/g) that _factor_frozen factors."""
    mesh = unit_square_mesh(4)
    config = SolverConfig(dt=0.1, t_final=0.1)
    solver = ExpandedMixedSolver(mesh, law_from_string(law_text), config)
    cells = mesh.num_triangles
    dt_areas = solver._dt_areas
    assert dt_areas.tobytes() == (config.dt / mesh.areas).tobytes()
    _, m_uz = _blocks(solver)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = 1e-2 * rng.standard_normal(solver.dofmap.n_rt0)
        u[m_uz[0].indices] = 0.0
        _, _, cell = solver._state(u, np.zeros(cells))
        assert cell[1][0] == 0.0
        solver._refill_jacobian(*cell)
        w = _cell_operator(solver)
        assert np.all(np.isfinite(solver._cell_planes)) and np.array_equal(w, w.T)
        assert np.array_equal(w, cell_weights(mesh, config.dt, *cell).toarray())
        assert solver._dt_areas is dt_areas
        assert dt_areas.tobytes() == (config.dt / mesh.areas).tobytes()
    g = rng.uniform(0.5, 2.0, cells)
    zero = np.zeros((2, cells))
    solver._refill_jacobian(zero, zero[0], g, g)
    want = np.diag(np.concatenate((g / mesh.areas, g / mesh.areas, dt_areas)))
    assert np.array_equal(_cell_operator(solver), want)


@pytest.mark.parametrize("spec", [1, 2, 5, 16, "scrambled"])
@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e12:0.5,1:3"])
def test_planes_apply_and_factor_the_oracles_operator(spec: int | str, law_text: str, monkeypatch) -> None:
    """At a random velocity with cells where v = 0, on unit squares and a
    scrambled n=16 mesh, _jacobian_times(d) is bit for bit F^T (W (F d))
    with W the oracle's dia_array, and the matrix _factor hands to splu is
    bit for bit the oracle's F^T (W F) in canonical CSC: the blockwise W
    and the W F built on F's pattern change no entry, not even a zero's sign."""
    received = []
    splu_original = solver_module.splu

    def spy(a, **kwargs):
        received.append(a)
        return splu_original(a, **kwargs)

    monkeypatch.setattr(solver_module, "splu", spy)
    mesh = build_mesh(*_scrambled_mesh(16, 0)) if spec == "scrambled" else unit_square_mesh(spec)
    config = SolverConfig(dt=0.1, t_final=0.1)
    solver = ExpandedMixedSolver(mesh, law_from_string(law_text), config)
    forms, (_, m_uz) = solver._forms, _blocks(solver)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(solver.dofmap.n_rt0)
    u[m_uz[0].indices] = 0.0
    _, _, cell = solver._state(u, rng.standard_normal(mesh.num_triangles))
    assert cell[1][0] == 0.0
    solver._refill_jacobian(*cell)
    w = cell_weights(mesh, config.dt, *cell)
    for d in rng.standard_normal((3, solver.dofmap.n_rt0)):
        assert solver._jacobian_times(d).tobytes() == (forms.T @ (w @ (forms @ d))).tobytes()
    solver._factor()
    (got,) = received
    want = (forms.T @ (w @ forms)).tocsc()
    for matrix in (got, want):
        matrix.sum_duplicates()
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_renewal_frees_the_old_factor_before_splu(law: ForchheimerLaw, mms, monkeypatch) -> None:
    """With every Newton iterate renewing the factor (_CG_STALE_BUDGET = 0),
    the solver holds no factor whenever splu runs, so the old SuperLU object
    is freed before the new one is built, not held beside it."""
    monkeypatch.setattr(solver_module, "_CG_STALE_BUDGET", 0)
    solver = ExpandedMixedSolver(unit_square_mesh(8), law, SolverConfig(dt=1e-2, t_final=5e-2))
    held = []
    splu_original = solver_module.splu

    def spy(a, **kwargs):
        held.append(solver._lu)
        return splu_original(a, **kwargs)

    monkeypatch.setattr(solver_module, "splu", spy)
    solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    assert len(held) >= 5
    assert all(lu is None for lu in held)


def test_the_iterates_law_data_is_freed_before_splu(law: ForchheimerLaw, mms, monkeypatch) -> None:
    """With every Newton iterate factoring (_CG_STALE_BUDGET = 0), the law
    data of the iterate that set the Jacobian, its v array held here by a
    weakref, is already freed whenever splu runs."""
    monkeypatch.setattr(solver_module, "_CG_STALE_BUDGET", 0)
    solver = ExpandedMixedSolver(unit_square_mesh(8), law, SolverConfig(dt=1e-2, t_final=5e-2))
    state_original, splu_original = solver._state, solver_module.splu
    latest, held = [], []

    def state(u, p_hat):
        s, p, cell = state_original(u, p_hat)
        latest[:] = [weakref.ref(cell[0])]
        return s, p, cell

    def spy(a, **kwargs):
        held.append(latest[0]() is not None)
        return splu_original(a, **kwargs)

    monkeypatch.setattr(solver, "_state", state)
    monkeypatch.setattr(solver_module, "splu", spy)
    solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    assert len(held) >= 5
    assert not any(held)


@pytest.mark.parametrize("spec", [16, "scrambled"])
def test_the_panel_width_changes_only_superlus_workspace(spec: int | str, law: ForchheimerLaw, monkeypatch) -> None:
    """On n=16 and the scrambled n=16 mesh, at a random velocity, the
    solver's factor of J on _LU_PANEL-column panels and scipy's factor of
    the same J on its default panels hold as many nonzeros, under the same
    row and column permutations, and solve one right-hand side alike to 1e-12
    (relative)."""
    received = []
    splu_original = solver_module.splu

    def spy(a, **kwargs):
        received.append(a)
        return splu_original(a, **kwargs)

    monkeypatch.setattr(solver_module, "splu", spy)
    mesh = build_mesh(*_scrambled_mesh(16, 0)) if spec == "scrambled" else unit_square_mesh(spec)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.1))
    rng = np.random.default_rng(5)
    _, _, cell = solver._state(rng.standard_normal(solver.dofmap.n_rt0), rng.standard_normal(mesh.num_triangles))
    solver._refill_jacobian(*cell)
    solver._factor()
    (a,) = received
    default = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    assert solver._lu.nnz == default.nnz
    assert np.array_equal(solver._lu.perm_r, default.perm_r)
    assert np.array_equal(solver._lu.perm_c, default.perm_c)
    b = rng.standard_normal(solver.dofmap.n_rt0)
    want = default.solve(b)
    assert np.max(np.abs(solver._lu.solve(b) - want)) <= 1e-12 * np.max(np.abs(want))


def test_nested_dissection_fills_less_than_minimum_degree(law, mms, monkeypatch) -> None:
    """At n=32 the factors in nested-dissection order hold fewer nonzeros
    than SuperLU's minimum degree order of A + A^T gives, and two runs on one
    solver number the dofs once."""
    numberings = _count_calls(monkeypatch, "build_dofmap")
    mesh = unit_square_mesh(32)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=1e-3, t_final=2e-3))
    for _ in range(2):
        solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    assert numberings[0] == 1
    a = _condensed_matrix(solver, np.ones(mesh.num_triangles))
    assert solver._lu.nnz < splu(a, permc_spec="MMD_AT_PLUS_A").nnz


def test_march_factors_solves_and_evaluates_through_the_module(law, mms, monkeypatch) -> None:
    """A solver assembles its forms through forchmix.solver.assemble_forms,
    and a march calls splu through the attribute of forchmix.solver and does
    every triangular solve through the .solve of what splu returned, the
    points where the benchmark's tracer wraps the assembly, factorization and
    triangular solve layers: with counting wrappers there, the march is bit
    for bit the unwrapped one, assembles once per solver over two runs,
    factors at least once and solves at least once per step.  It never calls
    forchmix.solver.K_eval, which stays importable for the tracer: a Newton
    iterate evaluates the law's polynomial g, with no root solve."""
    mesh = unit_square_mesh(8)
    config = SolverConfig(dt=1e-2, t_final=5e-2)
    plain = ExpandedMixedSolver(mesh, law, config).run(mms.f, mms.p0, mms.s0, mms.u0)
    assemblies, factorizations, solves, evaluations = [0], [0], [0], [0]
    assemble_original = solver_module.assemble_forms
    splu_original, k_eval_original = solver_module.splu, solver_module.K_eval

    def counting_assemble(*args, **kwargs):
        assemblies[0] += 1
        return assemble_original(*args, **kwargs)

    def counting_splu(*args, **kwargs):
        factorizations[0] += 1
        solve = splu_original(*args, **kwargs).solve

        def counting_solve(rhs):
            solves[0] += 1
            return solve(rhs)

        # nothing but the counted solve reaches the factorization
        return types.SimpleNamespace(solve=counting_solve)

    def counting_k_eval(*args, **kwargs):
        evaluations[0] += 1
        return k_eval_original(*args, **kwargs)

    monkeypatch.setattr(solver_module, "assemble_forms", counting_assemble)
    monkeypatch.setattr(solver_module, "splu", counting_splu)
    monkeypatch.setattr(solver_module, "K_eval", counting_k_eval)
    solver = ExpandedMixedSolver(mesh, law, config)
    assert assemblies[0] == 1
    for _ in range(2):
        factorizations[0] = solves[0] = evaluations[0] = 0
        result = solver.run(mms.f, mms.p0, mms.s0, mms.u0)
        assert assemblies[0] == 1
        assert factorizations[0] >= 1
        assert solves[0] >= config.num_steps
        assert evaluations[0] == 0
        assert result.picard_iters == plain.picard_iters
        for field in ("p", "s", "u"):
            assert np.array_equal(getattr(result.state, field), getattr(plain.state, field)), field
    ExpandedMixedSolver(mesh, law, config)
    assert assemblies[0] == 2


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2"])
def test_accelerated_picard_matches_plain_picard(law_text: str) -> None:
    """Newton in the velocity, from the extrapolated start, takes another
    path than Picard on K(|s|), not to another limit: at picard_tol = 1e-12
    the final fields agree with plain Picard to 1e-9 (relative)."""
    mesh, law, config, exact = _n16_setup(law_text, picard_tol=1e-12)
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    _assert_states_close(result.state, _tight_oracle(law_text), 1e-9)


def _assert_picard_fixed_points(solver: ExpandedMixedSolver, f, states) -> None:
    """Solving each step's frozen system at K(|s^n|) from p^{n-1}, under the
    forcing f, gives back s^n within 10 * picard_tol * (1 + max|s^n|)."""
    loads, solve = solver._loads(f), _frozen_solve(solver)
    for prev, state in zip(states, states[1:]):
        kbar = K_eval(solver.law, np.linalg.norm(state.s, axis=1))
        _, s_flat, _ = solve(kbar, _p_hat(solver, prev.p, loads(state.t)))
        bound = 10.0 * solver.config.picard_tol * (1.0 + np.max(np.abs(state.s)))
        assert np.max(np.abs(s_flat - state.s.reshape(-1))) <= bound


def _levels(solver: ExpandedMixedSolver, exact, f) -> list[DiscreteState]:
    """Every time level of a march through steps under forcing f, from the
    projected initial data of exact at t=0 on."""
    state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
    return [state0] + [state for state, *_ in solver.steps(state0, f)]


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2"])
def test_every_step_is_a_picard_fixed_point(law_text: str) -> None:
    """Every level of an n=16 march, the newton-stiff benchmark's under law
    1:0,1e4:2, is a Picard fixed point within the tolerance."""
    mesh, law, config, exact = _n16_setup(law_text)
    solver = ExpandedMixedSolver(mesh, law, config)
    _assert_picard_fixed_points(solver, exact.f, _levels(solver, exact, exact.f))


def test_every_study_row_level_is_a_picard_fixed_point() -> None:
    """Every level of the cli-study benchmark's finest row is a Picard fixed
    point within the tolerance."""
    mesh, law, config, exact = _study_row_setup()
    solver = ExpandedMixedSolver(mesh, law, config)
    _assert_picard_fixed_points(solver, exact.f, _levels(solver, exact, exact.f))


def test_stiff_large_steps_converge() -> None:
    """Laws 1:0,1e4:2 and 1:0,1e9:9 on n=8 with dt = 0.1 and picard_tol =
    1e-10 run to T = 1 well within the cap, at most 8 iterates a step (6 and
    7 measured), every level a Picard fixed point.  Picard on K(|s|) took 27
    iterates on the first step of 1:0,1e4:2 and raised PicardError."""
    assert solver_module._NEWTON_MAXITER > 8
    mesh = unit_square_mesh(8)
    for law_text in ("1:0,1e4:2", "1:0,1e9:9"):
        law = law_from_string(law_text)
        exact = ManufacturedSolution(law)
        solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=1.0, picard_tol=1e-10))
        state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
        steps = list(solver.steps(state0, exact.f))
        assert len(steps) == 10
        assert max(iterations for _, iterations, _, _ in steps) <= 8, law_text
        _assert_picard_fixed_points(solver, exact.f, [state0] + [state for state, *_ in steps])


def test_tiny_conductivity_error_matches_the_tight_tolerance() -> None:
    """Under law 1:0,1e12:0.5,1:3, where K is about 1e-12, err_s at the
    default picard_tol is within 1e-4 (relative) of the run at 1e-12: the
    stop measures increments of s itself.  Picard's residual test, which
    scales increments of K by |s|, stopped 1.3% off (0.021961 against
    0.022260)."""
    mesh, law = unit_square_mesh(8), law_from_string("1:0,1e12:0.5,1:3")
    exact = ManufacturedSolution(law)
    errors = []
    for tol in (1e-6, 1e-12):
        solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.01, t_final=0.1, picard_tol=tol))
        result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
        errors.append(error_norms(mesh, solver.dofmap, result.state, exact)[1])
    assert errors[0] == pytest.approx(errors[1], rel=1e-4)


def _study_row_setup(law_text: str = "1:0,1:1"):
    """The finest row of the cli-study benchmark: n=32, law 1:0,1:1 unless
    another is given, 64 steps of dt = 0.125/64."""
    law = law_from_string(law_text)
    config = SolverConfig(dt=0.125 / 64, t_final=0.125)
    return unit_square_mesh(32), law, config, ManufacturedSolution(law)


@pytest.mark.parametrize("setup", ["newton-stiff", "study-row"])
def test_steps_reproduce_run_bitwise(setup: str) -> None:
    """run drains steps: a march through steps on the same solver gives the
    same levels, Picard counts, mass residuals and forcing integrals bit for
    bit, at the times of run's grid."""
    stiff = setup == "newton-stiff"
    mesh, law, config, exact = _n16_setup("1:0,1e4:2") if stiff else _study_row_setup()
    solver = ExpandedMixedSolver(mesh, law, config)
    result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
    levels, iters, masses, f_ints = zip(*solver.steps(state0, exact.f))
    times = np.linspace(0.0, config.t_final, config.num_steps + 1)
    assert [level.t for level in levels] == times[1:].tolist()
    assert list(iters) == result.picard_iters
    assert list(masses) == result.mass_residuals
    assert list(f_ints) == result.f_integrals
    for field in ("p", "s", "u"):
        assert np.array_equal(getattr(levels[-1], field), getattr(result.state, field)), field


@pytest.mark.parametrize("setup", ["newton-stiff", "study-row"])
def test_march_binds_the_forcing_once(setup: str, monkeypatch) -> None:
    """A march binds ManufacturedSolution.f to the quadrature points once;
    the same forcing bound afresh at every evaluation gives the same levels,
    Newton counts, mass residuals and forcing integrals bit for bit."""
    stiff = setup == "newton-stiff"
    mesh, law, config, exact = _n16_setup("1:0,1e4:2") if stiff else _study_row_setup()
    bindings = [0]
    forcing_f = mms_module.forcing_f

    def counting(*args):
        bindings[0] += 1
        return forcing_f(*args)

    monkeypatch.setattr(mms_module, "forcing_f", counting)

    def march(f):
        bindings[0] = 0
        solver = ExpandedMixedSolver(mesh, law, config)
        state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
        return list(solver.steps(state0, f)), bindings[0]

    bound, bound_bindings = march(exact.f)
    rebound, rebound_bindings = march(lambda x, y: lambda t: exact.f(x, y)(t))
    assert (bound_bindings, rebound_bindings) == (1, config.num_steps)
    assert [step[1:] for step in bound] == [step[1:] for step in rebound]
    for (a, *_), (b, *_) in zip(bound, rebound):
        for field in ("p", "s", "u"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def test_a_march_keeps_no_quadrature_points(law, mms, monkeypatch) -> None:
    """The points a march binds its forcing to are freed once it is bound:
    after one step, with the march still open, no coordinate plane that
    cell_points returned to the solver is alive."""
    planes = []
    points = solver_module.cell_points

    def spy(*args):
        x, y = points(*args)
        planes.extend((weakref.ref(x), weakref.ref(y)))
        return x, y

    monkeypatch.setattr(solver_module, "cell_points", spy)
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=0.25, t_final=1.0))
    march = solver.steps(solver.initial_state(mms.p0, mms.s0, mms.u0), mms.f)
    next(march)
    gc.collect()
    assert len(planes) == 2
    assert all(plane() is None for plane in planes)


def test_picard_iteration_budget_on_the_stiff_law(monkeypatch) -> None:
    """The newton-stiff benchmark run (law 1:0,1e4:2), marched by hand through
    steps as by run, takes 28 Newton iterates and 51 triangular solves on one
    factorization of the Jacobian.  Preconditioned by the factor of the
    frozen-K matrix A(1/g) it took 30 and 104; Picard on K(|s|) took 61
    iterates with its extrapolated start and Anderson mix, and 133 plain."""
    factorizations = _count_calls(monkeypatch, "splu")
    solves = _count_solves(monkeypatch)
    mesh, law, config, exact = _n16_setup("1:0,1e4:2")
    solver = ExpandedMixedSolver(mesh, law, config)
    state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
    assert sum(iterations for _, iterations, _, _ in solver.steps(state0, exact.f)) <= 28
    assert solves[0] <= 55
    assert factorizations[0] == 1


def test_picard_and_solve_budgets_on_the_study_row(monkeypatch) -> None:
    """The finest row of the cli-study benchmark takes 72 Newton iterates and
    85 triangular solves, 103 when preconditioned by the factor of A(1/g);
    Picard on K(|s|) took 73 and 102.  Without the floor
    _cg_rtol(picard_tol) |b_n - b_{n-1}| of the CG stop the row took 136
    solves, and with CG stopped at 1e-8 of the residual 417."""
    solves = _count_solves(monkeypatch)
    mesh, law, config, exact = _study_row_setup()
    solver = ExpandedMixedSolver(mesh, law, config)
    result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    assert sum(result.picard_iters) <= 80
    assert solves[0] <= 90


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2"])
def test_stale_cg_iterations_renew_the_factor(law_text: str, monkeypatch) -> None:
    """With a budget of 2 stale CG iterations an n=8 march factors more than
    once, and every factorization after the march's first comes once the
    count of stale iterations since the last one has reached the budget.
    Every level is still a Picard fixed point."""
    monkeypatch.setattr(solver_module, "_CG_STALE_BUDGET", 2)
    law = law_from_string(law_text)
    exact = ManufacturedSolution(law)
    solver = ExpandedMixedSolver(unit_square_mesh(8), law, SolverConfig(dt=1e-2, t_final=0.1))
    stale, factor = [], solver._factor

    def spy_factor():
        stale.append(None if solver._lu is None else solver._stale_iterations)
        factor()

    monkeypatch.setattr(solver, "_factor", spy_factor)
    levels = _levels(solver, exact, exact.f)
    assert stale[0] is None
    assert len(stale) > 1
    assert all(count >= 2 for count in stale[1:])
    _assert_picard_fixed_points(solver, exact.f, levels)


def test_picard_budget_keeps_the_gradient_start_quadratic() -> None:
    """The study row under law 1:0,100:1 takes 78 Newton iterates.  Picard on
    K(|s|) took 89 with a quadratic start of K, and 130 with the cubic one
    that serves the velocity; Newton starts from the velocity alone and keeps
    that budget."""
    mesh, law, config, exact = _study_row_setup("1:0,100:1")
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    assert sum(result.picard_iters) <= 95


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_extrapolate_is_exact_on_polynomial_histories(depth: int) -> None:
    """From depth equally spaced levels, _extrapolate returns the next level
    of a history of degree depth - 1 in time to rounding, and a constant
    history bit for bit; it never writes into the levels it is given."""
    rng = np.random.default_rng(depth)
    coefficients = rng.standard_normal((depth, 50))
    t0, dt = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)

    def level(j: int) -> np.ndarray:
        return sum(c * (t0 + j * dt) ** k for k, c in enumerate(coefficients))

    levels = [level(j) for j in range(depth)]
    copies = [x.copy() for x in levels]
    scale = max(np.max(np.abs(x)) for x in levels + [level(depth)])
    assert np.allclose(solver_module._extrapolate(levels), level(depth), rtol=0.0, atol=1e-13 * scale)
    assert all(np.array_equal(x, copy) for x, copy in zip(levels, copies))
    constant = coefficients[0]
    assert np.array_equal(solver_module._extrapolate([constant] * depth), constant)


def test_sign_convention_consistency(law: ForchheimerLaw, mms) -> None:
    """At a tight tolerance the cell averages of u equal -K(|s|) s."""
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=1e-2, t_final=1.0, picard_tol=1e-10)
    )
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    state, *_ = next(solver.steps(state0, mms.f))
    _, m_uz = _blocks(solver)
    avg_u = (m_uz @ state.u).reshape(2, -1).T / mesh.areas[:, None]
    assert np.max(np.abs(avg_u + K_flux(law, state.s))) < 1e-8


def test_run_with_zero_steps_returns_initial_state(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(2)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.0))
    result = solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    expected = solver.initial_state(mms.p0, mms.s0, mms.u0)
    assert list(solver.steps(expected, mms.f)) == []
    assert result.picard_iters == result.mass_residuals == result.f_integrals == []
    assert np.array_equal(result.state.p, expected.p)
    assert np.array_equal(result.state.u, expected.u)


def test_unforced_pressure_norm_nonincreasing(decay_run) -> None:
    norms, _ = decay_run
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < norms[0]


def test_steady_compatible_forcing_stagnates(law: ForchheimerLaw, mms) -> None:
    """A time-independent zero-mean forcing drives p to a steady state."""
    mesh = unit_square_mesh(8)
    rule = triangle_quadrature()
    f_values = mms.f(*cell_points(mesh, rule))(0.0)
    mean_f = float(mesh.areas @ (f_values @ rule.weights))

    def forcing(x, y):
        values = mms.f(x, y)(0.0) - mean_f
        return lambda t: values

    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=0.1, t_final=6.0, picard_tol=1e-10)
    )
    states = _levels(solver, mms, forcing)
    increments = [
        float(np.max(np.abs(states[i].p - states[i - 1].p)))
        for i in range(1, len(states))
    ]
    # Above a few ulp of the steady pressure each increment shrinks by a
    # factor of about 0.55 (measured 0.526 to 0.565); below that floor the
    # increments are rounding noise and need only stay there.
    floor = 64 * np.finfo(float).eps * np.max(np.abs(states[-1].p))
    for a, b in zip(increments, increments[1:]):
        assert b <= (0.6 * a if a > floor else floor)
    assert increments[-1] < 1e-10


def test_final_norm_bounded_by_data(law: ForchheimerLaw, mms) -> None:
    """||p^N|| <= ||p^0|| + sum dt ||f^n|| with 5 percent slack, on the
    two-step n=4 run at dt = 0.5."""
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.5, t_final=1.0))
    levels = _levels(solver, mms, mms.f)
    rule = triangle_quadrature()
    forcing = mms.f(*cell_points(mesh, rule))
    f_norms = []
    for level in levels[1:]:
        values = forcing(level.t)
        f_norms.append(float(np.sqrt(mesh.areas @ (values**2 @ rule.weights))))
    p_norms = [float(np.sqrt(mesh.areas @ level.p**2)) for level in levels]
    bound = p_norms[0] + solver.config.dt * sum(f_norms)
    assert p_norms[-1] <= 1.05 * bound


def test_picard_increments_eventually_decrease(law: ForchheimerLaw, mms) -> None:
    """On every step of the n=4 study run (100 steps of dt = 1e-2) the
    increments max|s_k - s_{k-1}| between a step's Newton iterates, after
    the first, never grow."""
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=1e-2, t_final=1.0))
    iterates = []
    state = solver._state

    def spy(*args):
        out = state(*args)
        iterates.append(out[0])
        return out

    solver._state = spy
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    for _ in solver.steps(state0, mms.f):
        assert len(iterates) >= 2
        tail = [np.max(np.abs(b - a)) for a, b in zip(iterates, iterates[1:])]
        assert all(b <= a * 1.0001 for a, b in zip(tail, tail[1:]))
        iterates.clear()


def test_picard_cap_raises_with_residual(law: ForchheimerLaw, mms, monkeypatch) -> None:
    monkeypatch.setattr(solver_module, "_NEWTON_MAXITER", 1)
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=1e-2, t_final=1.0))
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    with pytest.raises(PicardError) as excinfo:
        next(solver.steps(state0, mms.f))
    assert excinfo.value.residual > 0.0
    assert "residual" in str(excinfo.value)


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("p0", np.nan, "projection of p0"),
        ("s0", np.nan, "projection of s0"),
        ("u0", np.nan, "projection of u0"),
        ("u0", np.inf, "projection of u0"),
        ("f", np.nan, "forcing at t=0.01"),
        ("f", np.inf, "forcing at t=0.01"),
    ],
)
def test_nonfinite_data_raise_before_any_solve(law, mms, field, value, message, monkeypatch) -> None:
    """Initial data whose projection is not finite, or a forcing whose
    integral is not, raise ValueError naming it, before a factorization or a
    CG iteration: a NaN p0 or forcing once stopped CG, a NaN or infinite u0
    made the factorization singular, and a NaN s0 went unnoticed."""
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=0.01, t_final=0.02))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on non-finite data")

    monkeypatch.setattr(solver_module, "splu", no_solve)
    monkeypatch.setattr(solver, "_pcg", no_solve)
    data = {"f": mms.f, "p0": mms.p0, "s0": mms.s0, "u0": mms.u0}
    exact = data[field]
    if field == "f":
        data["f"] = lambda x, y: lambda t: exact(x, y)(t) + value
    else:
        data[field] = lambda x, y: exact(x, y) + value
    with pytest.raises(ValueError, match=message):
        solver.run(data["f"], data["p0"], data["s0"], data["u0"])


def test_a_forcing_of_x_y_and_t_fails_at_the_march_start(law, mms, monkeypatch) -> None:
    """A forcing is f(x, y) returning t -> values; one written as f(x, y, t)
    raises TypeError when the march binds it, before its first step."""
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=0.01, t_final=0.02))
    advanced = []
    monkeypatch.setattr(solver, "_advance", lambda *args: advanced.append(args))

    def old_shape(x, y, t):
        return mms.f(x, y)(t)

    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    with pytest.raises(TypeError):
        next(solver.steps(state0, old_shape))
    with pytest.raises(TypeError):
        solver.run(old_shape, mms.p0, mms.s0, mms.u0)
    assert advanced == []


def test_none_is_not_a_forcing(law, mms, monkeypatch) -> None:
    """No source is the zero forcing f(x, y) returning t -> 0.0, the one
    spelling: None raises TypeError when the march binds it, before any
    factorization."""
    factorizations = _count_calls(monkeypatch, "splu")
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=0.01, t_final=0.02))
    with pytest.raises(TypeError):
        solver.run(None, mms.p0, mms.s0, mms.u0)
    assert factorizations[0] == 0
