"""Time stepping, Picard iteration, and the discrete conservation structure."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import forchmix.solver as solver_module
from forchmix import (
    ExpandedMixedSolver,
    ForchheimerLaw,
    K_flux,
    PicardError,
    SolverConfig,
    assemble_forms,
    law_from_string,
    unit_square_mesh,
)
from forchmix.mms import ManufacturedSolution
from forchmix.spaces import cell_points, hdiv_interpolate, triangle_quadrature


def _zero_scalar(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_vector(x, y):
    return np.stack(np.broadcast_arrays(0.0 * x, 0.0 * y), axis=-1)


def _monolithic_solve(solver: ExpandedMixedSolver):
    """Oracle for the solver's elimination of s and p: each frozen-conductivity
    system is solved as the full (p, s, u) saddle system, factored afresh."""
    mesh, dofmap, dt = solver.mesh, solver.dofmap, solver.config.dt
    forms = assemble_forms(mesh, dofmap, np.ones(mesh.num_triangles))

    def solve_frozen(kbar, p_prev, load, u_guess):
        system = sp.bmat(
            [
                [sp.diags(mesh.areas / dt), None, forms.B_div],
                [None, sp.diags(np.repeat(kbar * mesh.areas, 2)), forms.M_uz],
                [forms.C_pv, forms.C_sv, None],
            ],
            format="csc",
        )
        rhs = np.concatenate(
            [mesh.areas * p_prev / dt + load, np.zeros(dofmap.n_s + dofmap.n_rt0)]
        )
        solution = splu(system).solve(rhs)
        n_p, n_s = dofmap.n_p, dofmap.n_s
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


def _count_factorizations(monkeypatch) -> list[int]:
    """Count the solver's calls of splu; the count is the list's one entry."""
    calls = [0]
    original = solver_module.splu

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_module, "splu", counting)
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
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_final=1.0, picard_max=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(dt=bad, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=bad)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=1.0, picard_tol=bad)
    assert SolverConfig(dt=0.25, t_final=1.0).num_steps == 4
    assert SolverConfig(dt=0.25, t_final=0.0).num_steps == 0


def test_zero_data_stays_zero_in_one_iteration(law: ForchheimerLaw) -> None:
    mesh = unit_square_mesh(3)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=1.0))
    state0 = solver.initial_state(_zero_scalar, _zero_vector)
    state, iterations = solver.picard_step(state0, 0.1, None)
    assert iterations == 1
    assert np.all(state.p == 0.0)
    assert np.all(state.s == 0.0)
    assert np.all(state.u == 0.0)


def test_constant_conductivity_converges_in_one_iteration() -> None:
    """With a negligible nonlinear term K is constant and the step is linear."""
    law = ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0, 1e-30))
    mms = ManufacturedSolution(law)
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=1e-2, t_final=1.0))
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    _, iterations = solver.picard_step(state0, 1e-2, mms.f)
    assert iterations == 1


def test_initial_state_projections(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(2)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.5, t_final=1.0))
    state = solver.initial_state(mms.p0, mms.s0, mms.u0)
    assert state.t == 0.0

    oracle_rule = triangle_quadrature(11)
    pts = cell_points(mesh, oracle_rule)
    p_oracle = np.asarray(mms.p0(pts[..., 0], pts[..., 1])) @ oracle_rule.weights
    assert np.max(np.abs(state.p - p_oracle)) < 1e-12

    s_oracle = np.einsum(
        "fqd,q->fd", np.asarray(mms.s0(pts[..., 0], pts[..., 1])), oracle_rule.weights
    )
    assert np.max(np.abs(state.s - s_oracle)) < 1e-12

    expected_u = hdiv_interpolate(mesh, solver.dofmap, mms.u0)
    assert np.allclose(state.u, expected_u, atol=1e-15)


def test_initial_state_velocity_fallback(law: ForchheimerLaw, mms) -> None:
    """Without an exact velocity, the flux solve lands within O(h) of it."""
    diffs = []
    for n in (4, 8):
        mesh = unit_square_mesh(n)
        solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.5, t_final=1.0))
        with_exact = solver.initial_state(mms.p0, mms.s0, mms.u0)
        fallback = solver.initial_state(mms.p0, mms.s0)
        assert np.allclose(fallback.p, with_exact.p, atol=1e-15)
        assert np.allclose(fallback.s, with_exact.s, atol=1e-15)
        diffs.append(float(np.max(np.abs(fallback.u - with_exact.u))))
    assert diffs[0] < 0.05
    assert diffs[1] < 0.6 * diffs[0]


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
    factorizations = _count_factorizations(monkeypatch)
    for each_law in (law, law_from_string("1:0,1e4:2")):
        exact = ManufacturedSolution(each_law)
        factorizations[0] = 0
        solver = ExpandedMixedSolver(mesh, each_law, config)
        result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
        # nine solves in ten or more went through the reused factorization
        assert 10 * factorizations[0] < sum(result.picard_iters)
        _assert_runs_match(result, _oracle_run(mesh, each_law, config))


def test_cg_cap_falls_back_to_a_fresh_factorization(law: ForchheimerLaw, monkeypatch) -> None:
    """When CG misses its tolerance within the cap, A is factored again at the
    current K and solved directly; the iterates still match the oracle."""
    monkeypatch.setattr(solver_module, "_CG_MAXITER", 1)
    factorizations = _count_factorizations(monkeypatch)
    mesh = unit_square_mesh(8)
    config = SolverConfig(dt=1e-2, t_final=5e-2)
    exact = ManufacturedSolution(law)
    result = ExpandedMixedSolver(mesh, law, config).run(exact.f, exact.p0, exact.s0, exact.u0)
    assert factorizations[0] > 1
    _assert_runs_match(result, _oracle_run(mesh, law, config))


def test_sign_convention_consistency(law: ForchheimerLaw, mms) -> None:
    """At a tight tolerance the cell averages of u equal -K(|s|) s."""
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=1e-2, t_final=1.0, picard_tol=1e-10)
    )
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    state, _ = solver.picard_step(state0, 1e-2, mms.f)
    forms = solver._m_uz @ state.u
    avg_u = (forms / np.repeat(mesh.areas, 2)).reshape(-1, 2)
    assert np.max(np.abs(avg_u + K_flux(law, state.s))) < 1e-8


def test_run_with_zero_steps_returns_initial_state(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(2)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.1, t_final=0.0))
    result = solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    expected = solver.initial_state(mms.p0, mms.s0, mms.u0)
    assert result.times.tolist() == [0.0]
    assert result.picard_iters == []
    assert len(result.p_norms) == 1
    assert np.array_equal(result.state.p, expected.p)
    assert np.array_equal(result.state.u, expected.u)


def test_unforced_pressure_norm_nonincreasing(decay_run) -> None:
    norms = np.asarray(decay_run.p_norms)
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < norms[0]


def test_steady_compatible_forcing_stagnates(law: ForchheimerLaw, mms) -> None:
    """A time-independent zero-mean forcing drives p to a steady state."""
    mesh = unit_square_mesh(8)
    rule = triangle_quadrature(4)
    pts = cell_points(mesh, rule)
    f_values = mms.f(pts[..., 0], pts[..., 1], 0.0)
    mean_f = float(mesh.areas @ (f_values @ rule.weights))

    def forcing(x, y, t):
        return mms.f(x, y, 0.0) - mean_f

    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=0.1, t_final=6.0, picard_tol=1e-10)
    )
    result = solver.run(forcing, mms.p0, mms.s0, mms.u0, store_states=True)
    states = result.states
    assert states is not None
    increments = [
        float(np.max(np.abs(states[i].p - states[i - 1].p)))
        for i in range(1, len(states))
    ]
    tail = increments[5:]
    assert all(b <= a * 1.001 for a, b in zip(tail, tail[1:]))
    assert increments[-1] < 1e-10


def test_final_norm_bounded_by_data(law: ForchheimerLaw, mms, coarse_run) -> None:
    """||p^N|| <= ||p^0|| + sum dt ||f^n|| with 5 percent slack."""
    result, _ = coarse_run
    mesh = unit_square_mesh(4)
    rule = triangle_quadrature(4)
    pts = cell_points(mesh, rule)
    dt = float(result.times[1] - result.times[0])
    f_norms = []
    for t in result.times[1:]:
        values = mms.f(pts[..., 0], pts[..., 1], float(t))
        f_norms.append(float(np.sqrt(mesh.areas @ (values**2 @ rule.weights))))
    bound = result.p_norms[0] + dt * sum(f_norms)
    assert result.p_norms[-1] <= 1.05 * bound


def test_picard_increments_eventually_decrease(capped_report) -> None:
    """On every step of the n=4 study run the increment tail is monotone."""
    run = capped_report.runs[0]
    for step in run.result.picard_increments:
        tail = step[1:]
        assert all(b <= a * 1.0001 for a, b in zip(tail, tail[1:]))


def test_picard_cap_raises_with_residual(law: ForchheimerLaw, mms) -> None:
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(
        mesh, law, SolverConfig(dt=1e-2, t_final=1.0, picard_max=1)
    )
    state0 = solver.initial_state(mms.p0, mms.s0, mms.u0)
    with pytest.raises(PicardError) as excinfo:
        solver.picard_step(state0, 1e-2, mms.f)
    assert excinfo.value.residual > 0.0
    assert "residual" in str(excinfo.value)
