"""Time stepping, Picard iteration, and the discrete conservation structure."""

from __future__ import annotations

import functools
import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from quadrature_oracle import triangle_rule
from test_spaces import _ORDERING_MESHES, _ordering_mesh

import forchmix.mms as mms_module
import forchmix.solver as solver_module
from forchmix import (
    DiscreteState,
    ExpandedMixedSolver,
    ForchheimerLaw,
    ManufacturedSolution,
    PicardError,
    SolverConfig,
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


def _monolithic_solve(solver: ExpandedMixedSolver):
    """Oracle for the solver's elimination of s and p: each frozen-conductivity
    system is solved as the full (p, s, u) saddle system, factored afresh,
    from p_hat = p_prev + dt M_p^{-1} F."""
    mesh, dofmap, dt = solver.mesh, solver.dofmap, solver.config.dt
    b_div, m_uz = assemble_forms(mesh, dofmap).blocks(dofmap.n_rt0)

    def solve_frozen(kbar, p_hat, rhs, u_guess, u_anchor):
        system = sp.bmat(
            [
                [sp.diags(mesh.areas / dt), None, b_div],
                [None, sp.diags(np.repeat(kbar * mesh.areas, 2)), m_uz],
                [b_div.T, m_uz.T, None],
            ],
            format="csc",
        )
        n_p, n_s = mesh.num_triangles, 2 * mesh.num_triangles
        rhs = np.concatenate([mesh.areas * p_hat / dt, np.zeros(n_s + dofmap.n_rt0)])
        solution = splu(system).solve(rhs)
        return solution[:n_p], solution[n_p : n_p + n_s], solution[n_p + n_s :]

    return solve_frozen


def _oracle_run(mesh, law: ForchheimerLaw, config: SolverConfig):
    """The solver's own Picard loop over monolithic frozen solves."""
    exact = ManufacturedSolution(law)
    solver = ExpandedMixedSolver(mesh, law, config)
    solver._solve_frozen = _monolithic_solve(solver)
    return solver.run(exact.f, exact.p0, exact.s0, exact.u0)


def _assert_runs_match(result, oracle) -> None:
    assert result.picard_iters == oracle.picard_iters
    for field in ("p", "s", "u"):
        got, want = getattr(result.state, field), getattr(oracle.state, field)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _frozen_inputs(solver: ExpandedMixedSolver, p_prev: np.ndarray, load: np.ndarray):
    """p_hat = p_prev + dt M_p^{-1} F and rhs = B^T p_hat, the inputs of the
    solver's frozen solves."""
    p_hat = p_prev + solver.config.dt * load / solver.mesh.areas
    return p_hat, solver._b_div.T @ p_hat


def _plain_picard_run(solver: ExpandedMixedSolver, exact, max_iter: int = 200):
    """Oracle for the accelerated loop: plain Picard over the solver's own
    frozen solves, each step started at K(|s^{n-1}|), with run's stopping
    tests.  Returns the final state."""
    cfg = solver.config
    tol = cfg.picard_tol
    state = solver.initial_state(exact.p0, exact.s0, exact.u0)
    solver._lu = None
    loads = solver._loads(exact.f)
    for n in range(1, cfg.num_steps + 1):
        t_n = n * cfg.dt
        p_hat, rhs = _frozen_inputs(solver, state.p, loads(t_n))
        kbar = K_eval(solver.law, np.linalg.norm(state.s, axis=1))
        u, s_iter = state.u, state.s.reshape(-1)
        for _ in range(max_iter):
            p, s_flat, u = solver._solve_frozen(kbar, p_hat, rhs, u, u)
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
    config = SolverConfig(
        dt=mesh.h**2, t_final=12 * mesh.h**2, picard_tol=picard_tol, picard_max=100
    )
    law = law_from_string(law_text)
    return mesh, law, config, ManufacturedSolution(law)


@functools.cache
def _tight_oracle(law_text: str) -> DiscreteState:
    mesh, law, config, exact = _n16_setup(law_text, picard_tol=1e-12)
    return _plain_picard_run(ExpandedMixedSolver(mesh, law, config), exact)


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


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_final=1.0, picard_tol=0.0)
    for bad in (0, -3, 2.5, float("inf"), float("nan"), True, "25", None):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=1.0, picard_max=bad)
    # numpy integers are integers
    assert SolverConfig(dt=0.1, t_final=1.0, picard_max=np.int64(5)).picard_max == 5
    for bad in (float("nan"), float("inf"), True, False, "0.1", None, 1j):
        with pytest.raises(ValueError):
            SolverConfig(dt=bad, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=bad)
        with pytest.raises(ValueError):
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
    """Every step of a zero run solves its system exactly from u^{n-1}: CG
    returns the warm start at once, and the one factorization is the run's
    first solve."""
    factorizations = _count_calls(monkeypatch, "splu")
    mesh = unit_square_mesh(3)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=1.0))
    state0 = solver.initial_state(_zero_scalar, _zero_vector, _zero_vector)
    state, iterations, _, _ = next(solver.steps(state0, None))
    assert iterations == 1
    factorizations[0] = 0
    result = solver.run(None, _zero_scalar, _zero_vector, _zero_vector)
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
    result = solver.run(None, _zero_scalar, _zero_vector, _zero_vector)
    assert result.picard_iters == [1, 1]
    assert result.state.u.shape == (0,)
    assert np.all(result.state.p == 0.0) and np.all(result.state.s == 0.0)


def test_constant_conductivity_converges_in_one_iteration() -> None:
    """With a negligible nonlinear term K is constant and the step is linear."""
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
    pts = cell_points(mesh, oracle_rule)
    p_oracle = np.asarray(mms.p0(pts[..., 0], pts[..., 1])) @ oracle_rule.weights
    assert np.max(np.abs(state.p - p_oracle)) < 1e-12

    s_oracle = np.einsum(
        "fqd,q->fd", np.asarray(mms.s0(pts[..., 0], pts[..., 1])), oracle_rule.weights
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


def test_monolithic_matches_condensed(law: ForchheimerLaw, monkeypatch) -> None:
    """Whole runs on n=16: the condensed solve, which factors once and then
    runs CG preconditioned by that LU, reproduces the monolithic oracle."""
    mesh = unit_square_mesh(16)
    config = SolverConfig(dt=mesh.h**2, t_final=12 * mesh.h**2)
    factorizations = _count_calls(monkeypatch, "splu")
    for each_law in (law, law_from_string("1:0,1e4:2")):
        exact = ManufacturedSolution(each_law)
        factorizations[0] = 0
        solver = ExpandedMixedSolver(mesh, each_law, config)
        result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
        # nine solves in ten or more went through the reused factorization
        assert 10 * factorizations[0] < sum(result.picard_iters)
        _assert_runs_match(result, _oracle_run(mesh, each_law, config))


def test_exact_anchor_stops_cg_relative_to_the_warm_start(law: ForchheimerLaw, monkeypatch) -> None:
    """When the anchor solves the system exactly, CG stops at its tolerance
    times the warm start's residual instead of asking for a zero residual,
    and the stored factorization serves the solve."""
    factorizations = _count_calls(monkeypatch, "splu")
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=1.0))
    kbar, zero_p = np.ones(mesh.num_triangles), np.zeros(mesh.num_triangles)
    zero_u = np.zeros(solver.dofmap.n_rt0)
    solver._solve_frozen(kbar, zero_p, zero_u, zero_u, zero_u)
    guess = np.random.default_rng(0).standard_normal(len(zero_u))
    _, _, u = solver._solve_frozen(kbar, zero_p, zero_u, guess, zero_u)
    assert factorizations[0] == 1
    assert np.max(np.abs(u)) <= 1e-10 * np.max(np.abs(guess))


def test_cg_stop_follows_the_picard_tolerance(law: ForchheimerLaw, mms) -> None:
    """CG stops at 1e-2 * picard_tol times the anchor's residual, kept within
    [1e-12, 1e-8]: a run at picard_tol = 1e-10 still stops every CG solve at
    1e-12, and one at the default 1e-6 at 1e-8, looser than 1e-12."""
    rule = [solver_module._cg_rtol(tol) for tol in (1e-3, 1e-6, 1e-9, 1e-10, 1e-14)]
    assert rule == pytest.approx([1e-8, 1e-8, 1e-11, 1e-12, 1e-12], rel=1e-12)
    largest = []
    for tol in (1e-10, 1e-6):
        config = SolverConfig(dt=1e-2, t_final=0.1, picard_tol=tol)
        solver = ExpandedMixedSolver(unit_square_mesh(8), law, config)
        # the residual of every velocity CG returns over its anchor's
        ratios = []
        pcg = solver._pcg

        def spy(rhs, u, anchor):
            out = pcg(rhs, u, anchor)
            a = solver._system[0]
            anchor_norm = np.linalg.norm(rhs - a @ anchor)
            if out is not None and anchor_norm > 0.0:
                ratios.append(np.linalg.norm(rhs - a @ out) / anchor_norm)
            return out

        solver._pcg = spy
        solver.run(mms.f, mms.p0, mms.s0, mms.u0)
        assert len(ratios) >= 20
        largest.append(max(ratios))
    assert largest[0] <= 1e-12 < largest[1] <= 1e-8


def test_cg_cap_falls_back_to_a_fresh_factorization(law: ForchheimerLaw, monkeypatch) -> None:
    """When CG misses its tolerance within the cap, A is factored again at the
    current K and solved directly; the iterates still match the oracle."""
    monkeypatch.setattr(solver_module, "_CG_MAXITER", 1)
    factorizations = _count_calls(monkeypatch, "splu")
    numberings = _count_calls(monkeypatch, "build_dofmap")
    mesh = unit_square_mesh(8)
    config = SolverConfig(dt=1e-2, t_final=5e-2)
    exact = ManufacturedSolution(law)
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    assert factorizations[0] > 1
    # every refactorization reuses the numbering built for the first
    assert numberings[0] == 1
    _assert_runs_match(result, _oracle_run(mesh, law, config))


def _condensed_matrix(solver: ExpandedMixedSolver, kbar: np.ndarray) -> sp.csc_matrix:
    """A(kbar) = M_uz^T M_sz(kbar)^{-1} M_uz + dt B^T M_p^{-1} B, assembled
    from the global forms."""
    mesh = solver.mesh
    b_div, m_uz = assemble_forms(mesh, solver.dofmap).blocks(solver.dofmap.n_rt0)
    mass = sp.diags(1.0 / np.repeat(kbar * mesh.areas, 2))
    div = sp.diags(solver.config.dt / mesh.areas)
    return (m_uz.T @ mass @ m_uz + b_div.T @ div @ b_div).tocsc()


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
    p_prev = rng.standard_normal(mesh.num_triangles)
    zero_u = np.zeros(solver.dofmap.n_rt0)
    p_hat, rhs = _frozen_inputs(solver, p_prev, 0.0 * p_prev)
    _, _, u = solver._solve_frozen(kbar, p_hat, rhs, zero_u, zero_u)
    b_div, _ = assemble_forms(mesh, solver.dofmap).blocks(len(zero_u))
    want = spsolve(_condensed_matrix(solver, kbar), b_div.T @ p_prev)
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", _ORDERING_MESHES)
def test_layout_is_the_condensed_matrix_in_nested_dissection_order(
    spec: int | str, law: ForchheimerLaw, monkeypatch
) -> None:
    """After each refill at a random conductivity, the solver's A equals,
    entry by entry, the condensed matrix assembled from the cell forms in the
    DofMap's nested-dissection numbering, with no permutation: a canonical
    CSC matrix whose pattern holds every pair of edges that share a cell.
    One solver numbers the dofs and lays A out once, across refills and runs."""
    numberings = _count_calls(monkeypatch, "build_dofmap")
    layouts = _count_calls(monkeypatch, "_lay_out")
    mesh = _ordering_mesh(spec)
    rng = np.random.default_rng(1)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.2))
    system = solver._system
    a = system[0]
    zero_p, zero_u = np.zeros(mesh.num_triangles), np.zeros(solver.dofmap.n_rt0)
    for _ in range(2):
        kbar = 10.0 ** rng.uniform(-4.0, 0.0, mesh.num_triangles)
        solver._solve_frozen(kbar, zero_p, zero_u, zero_u, zero_u)
        want = _condensed_matrix(solver, kbar).toarray()
        assert np.max(np.abs(a.toarray() - want)) <= 1e-15 * np.max(np.abs(want))
    b_div, _ = assemble_forms(mesh, solver.dofmap).blocks(len(zero_u))
    coupled = (abs(b_div).T @ abs(b_div)).tocsc()
    coupled.sort_indices()
    assert a.has_canonical_format
    assert np.array_equal(a.indptr, coupled.indptr)
    assert np.array_equal(a.indices, coupled.indices)
    exact = ManufacturedSolution(law)
    for _ in range(2):
        solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    assert solver._system is system
    assert numberings[0] == layouts[0] == 1


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
    and a march calls splu and K_eval through the attributes of
    forchmix.solver and does every triangular solve through the .solve of
    what splu returned, the points where the benchmark's tracer wraps the
    assembly, factorization, triangular solve and conductivity layers: with
    counting wrappers there, the march is bit for bit the unwrapped one,
    assembles once per solver over two runs, factors at least once, solves
    at least once per step and evaluates K once per Picard iterate and once
    for each step's start."""
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
        assert evaluations[0] == sum(result.picard_iters) + config.num_steps
        assert result.picard_iters == plain.picard_iters
        for field in ("p", "s", "u"):
            assert np.array_equal(getattr(result.state, field), getattr(plain.state, field)), field
    ExpandedMixedSolver(mesh, law, config)
    assert assemblies[0] == 2


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2"])
def test_accelerated_picard_matches_plain_picard(law_text: str) -> None:
    """The extrapolated start and the Anderson mix change the path of the
    iteration, not its limit: at picard_tol = 1e-12 the final fields agree
    with plain Picard to 1e-9 (relative)."""
    mesh, law, config, exact = _n16_setup(law_text, picard_tol=1e-12)
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    _assert_states_close(result.state, _tight_oracle(law_text), 1e-9)


def _assert_picard_fixed_points(solver: ExpandedMixedSolver, exact, states) -> None:
    """Re-solving each step's frozen system at K(|s^n|) from p^{n-1} gives
    back s^n within 10 * picard_tol * (1 + max|s^n|)."""
    loads = solver._loads(exact.f)
    for prev, state in zip(states, states[1:]):
        p_hat, rhs = _frozen_inputs(solver, prev.p, loads(state.t))
        kbar = K_eval(solver.law, np.linalg.norm(state.s, axis=1))
        _, s_flat, _ = solver._solve_frozen(kbar, p_hat, rhs, state.u, state.u)
        bound = 10.0 * solver.config.picard_tol * (1.0 + np.max(np.abs(state.s)))
        assert np.max(np.abs(s_flat - state.s.reshape(-1))) <= bound


def _levels(solver: ExpandedMixedSolver, exact, f) -> list[DiscreteState]:
    """Every time level of a march through steps under forcing f, from the
    projected initial data of exact at t=0 on."""
    state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
    return [state0] + [state for state, *_ in solver.steps(state0, f)]


@pytest.mark.parametrize("law_text", ["1:0,1:1", "1:0,1e4:2"])
def test_every_step_is_a_picard_fixed_point(law_text: str) -> None:
    """Every level of a march, with its extrapolated starts, is a Picard
    fixed point within the tolerance."""
    mesh, law, config, exact = _n16_setup(law_text)
    solver = ExpandedMixedSolver(mesh, law, config)
    _assert_picard_fixed_points(solver, exact, _levels(solver, exact, exact.f))


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
def test_bound_forcing_matches_a_plain_callable_bitwise(setup: str, monkeypatch) -> None:
    """A march binds ManufacturedSolution.f to the quadrature points once;
    the same forcing as a plain f(x, y, t) is evaluated afresh every step,
    and both give the same levels, Picard counts, mass residuals and
    forcing integrals bit for bit."""
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
    plain, plain_bindings = march(lambda x, y, t: exact.f(x, y, t))
    assert (bound_bindings, plain_bindings) == (1, config.num_steps)
    assert [step[1:] for step in bound] == [step[1:] for step in plain]
    for (a, *_), (b, *_) in zip(bound, plain):
        for field in ("p", "s", "u"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def test_picard_iteration_budget_on_the_stiff_law() -> None:
    """The newton-stiff benchmark run (law 1:0,1e4:2) takes 61 iterates,
    marched by hand through steps as by run.  Plain Picard takes 133; with
    the linear instead of the quadratic start it takes 74, without an
    extrapolated start 94 and without the mix 84."""
    mesh, law, config, exact = _n16_setup("1:0,1e4:2")
    solver = ExpandedMixedSolver(mesh, law, config)
    state0 = solver.initial_state(exact.p0, exact.s0, exact.u0)
    assert sum(iterations for _, iterations, _, _ in solver.steps(state0, exact.f)) <= 65


def test_picard_and_solve_budgets_on_the_study_row(monkeypatch) -> None:
    """The finest row of the cli-study benchmark takes 73 iterates and 102
    triangular solves, where the quadratic warm start of the velocity took
    161.  With the linear start it takes 132 iterates; with CG stopped at a
    fixed 1e-12 instead of 1e-2 * picard_tol the quadratic warm start took
    313 solves, and 457 when that stop was relative to each warm start's
    own residual instead of the previous level's."""
    solves = _count_solves(monkeypatch)
    mesh, law, config, exact = _study_row_setup()
    solver = ExpandedMixedSolver(mesh, law, config)
    result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    assert sum(result.picard_iters) <= 80
    assert solves[0] <= 110


def test_picard_budget_keeps_the_gradient_start_quadratic() -> None:
    """The study row under law 1:0,100:1 takes 89 iterates.  The cubic start
    that serves the velocity would take 130 as the gradient's start, so the
    first kbar stays at most quadratic."""
    mesh, law, config, exact = _study_row_setup("1:0,100:1")
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    assert sum(result.picard_iters) <= 95


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_extrapolate_is_exact_on_polynomial_histories(depth: int) -> None:
    """From depth equally spaced levels, _extrapolate returns the next level
    of a history of degree depth - 1 in time to rounding, and a constant
    history bit for bit.  Up to three levels it is the previous constant,
    linear and quadratic extrapolation, bit for bit."""
    rng = np.random.default_rng(depth)
    coefficients = rng.standard_normal((depth, 50))
    t0, dt = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)

    def level(j: int) -> np.ndarray:
        return sum(c * (t0 + j * dt) ** k for k, c in enumerate(coefficients))

    levels = [level(j) for j in range(depth)]
    scale = max(np.max(np.abs(x)) for x in levels + [level(depth)])
    assert np.allclose(solver_module._extrapolate(levels), level(depth), rtol=0.0, atol=1e-13 * scale)
    constant = coefficients[0]
    assert np.array_equal(solver_module._extrapolate([constant] * depth), constant)
    previous = {
        1: lambda last: last,
        2: lambda older, last: 2.0 * last - older,
        3: lambda oldest, older, last: 3.0 * (last - older) + oldest,
    }
    if depth in previous:
        assert np.array_equal(solver_module._extrapolate(levels), previous[depth](*levels))


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_unusable_mix_falls_back_to_the_plain_update(bad: float, monkeypatch) -> None:
    """A mix with a non-positive or non-finite entry is discarded for the
    plain Picard update; the run still converges to plain Picard's limit."""
    calls = [0]
    original = solver_module._anderson_mix

    def spoiled(*args):
        calls[0] += 1
        mixed = original(*args).copy()
        mixed[0] = bad
        return mixed

    monkeypatch.setattr(solver_module, "_anderson_mix", spoiled)
    mesh, law, config, exact = _n16_setup("1:0,1e4:2", picard_tol=1e-12)
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    assert calls[0] > 0
    _assert_states_close(result.state, _tight_oracle("1:0,1e4:2"), 1e-9)


def test_sign_convention_consistency(law: ForchheimerLaw, mms) -> None:
    """At a tight tolerance the cell averages of u equal -K(|s|) s."""
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=1e-2, t_final=1.0, picard_tol=1e-10)
    )
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    state, *_ = next(solver.steps(state0, mms.f))
    _, m_uz = assemble_forms(mesh, solver.dofmap).blocks(solver.dofmap.n_rt0)
    avg_u = (m_uz @ state.u / np.repeat(mesh.areas, 2)).reshape(-1, 2)
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
    pts = cell_points(mesh, rule)
    f_values = mms.f(pts[..., 0], pts[..., 1], 0.0)
    mean_f = float(mesh.areas @ (f_values @ rule.weights))

    def forcing(x, y, t):
        return mms.f(x, y, 0.0) - mean_f

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
    pts = cell_points(mesh, rule)
    f_norms = []
    for level in levels[1:]:
        values = mms.f(pts[..., 0], pts[..., 1], level.t)
        f_norms.append(float(np.sqrt(mesh.areas @ (values**2 @ rule.weights))))
    p_norms = [float(np.sqrt(mesh.areas @ level.p**2)) for level in levels]
    bound = p_norms[0] + solver.config.dt * sum(f_norms)
    assert p_norms[-1] <= 1.05 * bound


def test_picard_increments_eventually_decrease(law: ForchheimerLaw, mms) -> None:
    """On every step of the n=4 study run (100 steps of dt = 1e-2) the
    increments max|s_k - s_{k-1}| between a step's Picard iterates, after
    the first, never grow."""
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, SolverConfig(dt=1e-2, t_final=1.0))
    iterates = []
    solve_frozen = solver._solve_frozen

    def spy(*args):
        p, s_flat, u = solve_frozen(*args)
        iterates.append(s_flat)
        return p, s_flat, u

    solver._solve_frozen = spy
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    for _ in solver.steps(state0, mms.f):
        assert iterates
        tail = [np.max(np.abs(b - a)) for a, b in zip(iterates, iterates[1:])]
        assert all(b <= a * 1.0001 for a, b in zip(tail, tail[1:]))
        iterates.clear()


def test_picard_cap_raises_with_residual(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=1e-2, t_final=1.0, picard_max=1)
    )
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    with pytest.raises(PicardError) as excinfo:
        next(solver.steps(state0, mms.f))
    assert excinfo.value.residual > 0.0
    assert "residual" in str(excinfo.value)


def test_numpy_integer_picard_cap_does_not_wrap(law: ForchheimerLaw, mms) -> None:
    """A numpy integer cap counts as a Python int: np.int8(127) + 1 would
    wrap to -128 and leave no iterate to run."""
    config = SolverConfig(dt=1e-2, t_final=2e-2, picard_max=np.int8(127))
    solver = ExpandedMixedSolver(unit_square_mesh(4), law, config)
    result = solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    assert len(result.picard_iters) == 2
