"""Manufactured fields, the derived forcing, error norms, and the study report."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from quadrature_oracle import triangle_rule

from forchmix import (
    ConvergenceReport,
    DiscreteState,
    ExpandedMixedSolver,
    ForchheimerLaw,
    ManufacturedSolution,
    SolverConfig,
    convergence_study,
    error_norms,
    law_from_string,
    unit_square_mesh,
)
from forchmix import law as law_module
from forchmix.law import K_eval, K_prime, degeneracy_exponents
from forchmix.mms import _pick_dt, convergence_rate, forcing_f
from forchmix.spaces import build_dofmap, cell_points, triangle_quadrature

_FD_STEP = 1e-5


def _fd_residual(mms: ManufacturedSolution, x, y, t) -> np.ndarray:
    """p_t + div u - f with both derivatives by central differences."""
    h = _FD_STEP
    p_t = (mms.p(x, y, t + h) - mms.p(x, y, t - h)) / (2.0 * h)
    du1 = (mms.u(x + h, y, t)[..., 0] - mms.u(x - h, y, t)[..., 0]) / (2.0 * h)
    du2 = (mms.u(x, y + h, t)[..., 1] - mms.u(x, y - h, t)[..., 1]) / (2.0 * h)
    return p_t + du1 + du2 - mms.f(x, y)(t)


def test_gradient_matches_pressure(mms: ManufacturedSolution) -> None:
    rng = np.random.default_rng(21)
    x = rng.uniform(0.01, 0.99, size=500)
    y = rng.uniform(0.01, 0.99, size=500)
    t = rng.uniform(0.0, 1.0, size=500)
    h = _FD_STEP
    grad_fd = np.stack(
        [
            (mms.p(x + h, y, t) - mms.p(x - h, y, t)) / (2.0 * h),
            (mms.p(x, y + h, t) - mms.p(x, y - h, t)) / (2.0 * h),
        ],
        axis=-1,
    )
    assert np.max(np.abs(grad_fd - mms.s(x, y, t))) < 1e-6


def test_velocity_normal_component_vanishes_on_boundary(mms) -> None:
    line = np.linspace(0.0, 1.0, 33)
    t = 0.3
    assert np.all(mms.u(np.zeros_like(line), line, t)[..., 0] == 0.0)
    assert np.all(mms.u(np.ones_like(line), line, t)[..., 0] == 0.0)
    assert np.all(mms.u(line, np.zeros_like(line), t)[..., 1] == 0.0)
    assert np.all(mms.u(line, np.ones_like(line), t)[..., 1] == 0.0)


def _corner_limit(mms: ManufacturedSolution, x: float, y: float, t: float) -> float:
    """-5 p - K(0) (d1 s1 + d2 s2), the forcing where s = 0."""
    decay = np.exp(-5.0 * t)
    divergence = decay * ((1.0 - 2.0 * x) + (1.0 - 2.0 * y))
    return float(-5.0 * mms.p(x, y, t) - K_eval(mms.law, 0.0) * divergence)


_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def test_forcing_limit_where_gradient_vanishes(law: ForchheimerLaw, mms) -> None:
    """At the corners s = 0 and f = -5 p - K(0) (d1 s1 + d2 s2)."""
    for x, y in _CORNERS:
        for t in (0.0, 0.4):
            expected = _corner_limit(mms, x, y, t)
            assert forcing_f(law, x, y)(t) == pytest.approx(expected, rel=1e-13)
            # cross-check against the interior formula approached radially
            near = forcing_f(law, x + 1e-9 - 2e-9 * x, y + 1e-9 - 2e-9 * y)(t)
            assert near == pytest.approx(expected, abs=1e-7)


def test_forcing_limit_at_the_corners_of_a_sublinear_law() -> None:
    """K' diverges at xi = 0 for g = 1 + s^0.5, and the corners still give
    f = -5 p - K(0) (d1 s1 + d2 s2), with no invalid arithmetic on the way.
    K departs from K(0) like sqrt(xi) here, so there is no radial
    cross-check at the 1e-7 of the test above."""
    law = law_from_string("1:0,1:0.5")
    assert K_prime(law, 0.0) == -np.inf
    mms = ManufacturedSolution(law)
    for x, y in _CORNERS:
        for t in (0.0, 0.4):
            assert forcing_f(law, x, y)(t) == pytest.approx(_corner_limit(mms, x, y, t), rel=1e-13)


@pytest.mark.parametrize("t", [150.0, 1e3])
def test_forcing_stays_finite_once_the_decay_underflows(t: float) -> None:
    """For t past exp(-5t)'s underflow every xi = exp(-5t)|S| is 0, where
    K' diverges for a law with an exponent in (0, 1); the forcing evaluates
    no K', and f is 0."""
    law = law_from_string("1:0,1:0.5")
    assert np.exp(-5.0 * t) == 0.0
    assert K_prime(law, 0.0) == -np.inf
    rng = np.random.default_rng(2)
    x, y = rng.uniform(0.0, 1.0, size=(2, 50))
    values = forcing_f(law, x, y)(t)
    assert np.all(np.isfinite(values))
    assert np.all(values == 0.0)


def test_forcing_solves_for_s_once_per_call(monkeypatch) -> None:
    """Binding to the points solves for nothing; each evaluation makes one
    root solve, which serves K and the slope of s g(s), and its values equal
    the direct formula in s = exp(-5t) S, with K_eval and K_prime evaluated
    separately, to rounding."""
    stiff = law_from_string("1:0,1e4:2")
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, size=997)])
    y = np.concatenate([[0.0, 0.5, 0.5], rng.uniform(0.0, 1.0, size=997)])
    t = 0.2

    decay = np.exp(-5.0 * t)
    p = decay * (0.5 * (x**2 + y**2) - (x**3 + y**3) / 3.0)
    s1, s2 = decay * x * (1.0 - x), decay * y * (1.0 - y)
    ds1, ds2 = decay * (1.0 - 2.0 * x), decay * (1.0 - 2.0 * y)
    xi = np.hypot(s1, s2)
    kp = K_prime(stiff, xi)
    safe_xi = np.where(xi > 0.0, xi, 1.0)
    radial = np.where(xi > 0.0, kp * (s1**2 * ds1 + s2**2 * ds2) / safe_xi, 0.0)
    direct = -5.0 * p - K_eval(stiff, xi) * (ds1 + ds2) - radial

    solves = []
    newton = law_module._newton_s

    def counting_newton(law, xi_arr):
        solves.append(xi_arr.size)
        return newton(law, xi_arr)

    monkeypatch.setattr(law_module, "_newton_s", counting_newton)
    bound = forcing_f(stiff, x, y)
    assert solves == []
    forcing = bound(t)
    assert solves == [x.size]
    assert np.array_equal(bound(t), forcing)
    assert solves == [x.size] * 2
    assert forcing.dtype == direct.dtype
    assert np.max(np.abs(forcing - direct)) <= 1e-15 * np.max(np.abs(direct))


def test_pde_residual_vanishes(mms) -> None:
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 0.99, size=1000)
    y = rng.uniform(0.01, 0.99, size=1000)
    t = rng.uniform(0.0, 1.0, size=1000)
    assert np.max(np.abs(_fd_residual(mms, x, y, t))) < 1e-6


def test_beta_for_two_term_law(law: ForchheimerLaw) -> None:
    exponents = degeneracy_exponents(law)
    assert exponents.a == 0.5
    assert exponents.beta == 1.5


def test_error_norms_zero_for_representable_fields(law: ForchheimerLaw) -> None:
    mesh = unit_square_mesh(3)
    dofmap = build_dofmap(mesh)

    @dataclass(frozen=True)
    class ConstantFields:
        law: ForchheimerLaw

        def p(self, x, y, t):
            return 0.75 + 0.0 * np.asarray(x)

        def s(self, x, y, t):
            return np.stack(np.broadcast_arrays(2.0 + 0.0 * x, -1.0 + 0.0 * y), axis=-1)

        def u(self, x, y, t):
            return np.stack(np.broadcast_arrays(0.0 * x, 0.0 * y), axis=-1)

    exact = ConstantFields(law)
    state = DiscreteState(
        p=np.full(mesh.num_triangles, 0.75),
        s=np.tile([2.0, -1.0], (mesh.num_triangles, 1)),
        u=np.zeros(dofmap.n_rt0),
        t=0.2,
    )
    e_p, e_s, e_u = error_norms(mesh, dofmap, state, exact)
    assert e_p < 1e-14 and e_s < 1e-14 and e_u < 1e-14


def test_error_norms_match_projection_error(law: ForchheimerLaw, mms) -> None:
    """A state holding the projections measures exactly the projection error."""
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.5, t_final=1.0))
    state = solver.initial_state(mms.p0, mms.s0, mms.u0)
    e_p, _, _ = error_norms(mesh, solver.dofmap, state, mms)

    rule = triangle_quadrature()
    x, y = cell_points(mesh, rule)
    diff = state.p[:, None] - mms.p(x, y, 0.0)
    oracle = float(np.sqrt(mesh.areas @ (diff**2 @ rule.weights)))
    assert e_p == pytest.approx(oracle, rel=1e-13)
    assert 0.0 < e_p < 0.1


def test_error_norms_homogeneous(law: ForchheimerLaw) -> None:
    """Scaling the discrete fields scales every norm linearly."""
    mesh = unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    rng = np.random.default_rng(12)

    @dataclass(frozen=True)
    class ZeroFields:
        law: ForchheimerLaw

        def p(self, x, y, t):
            return 0.0 * np.asarray(x)

        def s(self, x, y, t):
            return np.stack(np.broadcast_arrays(0.0 * x, 0.0 * y), axis=-1)

        u = s

    exact = ZeroFields(law)
    p = rng.normal(size=mesh.num_triangles)
    s = rng.normal(size=(mesh.num_triangles, 2))
    u = rng.normal(size=dofmap.n_rt0)
    lam = 3.7
    base = error_norms(mesh, dofmap, DiscreteState(p, s, u, 0.0), exact)
    scaled = error_norms(mesh, dofmap, DiscreteState(lam * p, lam * s, lam * u, 0.0), exact)
    for got, reference in zip(scaled, base):
        assert got == pytest.approx(lam * reference, rel=1e-12)


@pytest.mark.parametrize("lam", [1e-160, 1e-200, 1e-300, 1e160, 1e300])
def test_error_norms_homogeneous_past_the_squares_range(law: ForchheimerLaw, lam: float) -> None:
    """Where the squares of the errors would be subnormal, underflow to 0 or
    overflow, every norm still scales linearly."""
    mesh = unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    exact = ManufacturedSolution(law)
    zero = DiscreteState(np.zeros(mesh.num_triangles), np.zeros((mesh.num_triangles, 2)),
                         np.zeros(dofmap.n_rt0), 0.0)

    @dataclass(frozen=True)
    class Scaled:
        law: ForchheimerLaw
        scale: float

        def p(self, x, y, t):
            return self.scale * exact.p(x, y, t)

        def s(self, x, y, t):
            return self.scale * exact.s(x, y, t)

        def u(self, x, y, t):
            return self.scale * exact.u(x, y, t)

    base = error_norms(mesh, dofmap, zero, Scaled(law, 1.0))
    scaled = error_norms(mesh, dofmap, zero, Scaled(law, lam))
    assert min(base) > 0.0
    for got, reference in zip(scaled, base):
        assert got == pytest.approx(lam * reference, rel=1e-12)


def test_rate_formula_on_synthetic_sequences() -> None:
    assert convergence_rate(1.0, 1.0, 0.2, 0.1) == pytest.approx(0.0, abs=1e-15)
    assert convergence_rate(0.4, 0.1, 0.2, 0.1) == pytest.approx(2.0, rel=1e-14)
    assert convergence_rate(0.4, 0.2, 0.2, 0.1) == pytest.approx(1.0, rel=1e-14)
    assert np.isnan(convergence_rate(0.0, 0.1, 0.2, 0.1))


def test_pick_dt_policy_and_snapping() -> None:
    assert _pick_dt("h2", 1e-2, np.sqrt(2.0) / 16.0, 1.0) == pytest.approx(1.0 / 128.0)
    assert _pick_dt("h2", 1e-2, np.sqrt(2.0) / 4.0, 1.0) == pytest.approx(1e-2)
    assert _pick_dt(0.3, 1e-2, 0.5, 1.0) == pytest.approx(1.0 / 3.0)
    assert _pick_dt(0.5, 1e-2, 0.5, 0.0) == 0.5
    with pytest.raises(ValueError):
        _pick_dt("cubic", 1e-2, 0.5, 1.0)
    with pytest.raises(ValueError):
        _pick_dt(-0.1, 1e-2, 0.5, 1.0)
    assert _pick_dt(1.0, 1e-2, 0.5, 2.0**53) == 1.0
    for t_final in (2.0**54, 1e308):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            _pick_dt(1.0, 1e-2, 0.5, t_final)


def test_convergence_study_validates_mesh_sizes(law: ForchheimerLaw) -> None:
    with pytest.raises(ValueError):
        convergence_study(law, [])
    with pytest.raises(ValueError):
        convergence_study(law, [4, 4])
    with pytest.raises(ValueError):
        convergence_study(law, [8, 4])
    for bad in ([2.5], [True, 2], [2, 4.0]):
        with pytest.raises(ValueError, match="positive integer"):
            convergence_study(law, bad, dt=0.05, t_final=0.05)


def test_convergence_study_checks_every_argument_before_a_run(
    law: ForchheimerLaw, monkeypatch
) -> None:
    """A bad argument raises a ValueError that names it, and no mesh runs."""
    runs = []
    original = ExpandedMixedSolver.run

    def spy(self, *args):
        runs.append(self.mesh.num_triangles)
        return original(self, *args)

    monkeypatch.setattr(ExpandedMixedSolver, "run", spy)
    inf, nan = float("inf"), float("nan")
    cases = [("mesh_sizes", [4, None]), ("mesh_sizes", [4, 8.5])]
    cases += [("dt", bad) for bad in (inf, nan, 0.0, -0.1)]
    cases += [("dt_cap", bad) for bad in (nan, 0.0, -0.1, -inf)]
    cases += [("t_final", bad) for bad in (inf, nan, -1.0)]
    # bool subclasses int, but True is no time step
    cases += [("dt", True), ("dt_cap", True), ("picard_tol", nan)]
    # values of the wrong type are named as well, not left to a TypeError
    cases += [("dt", None), ("dt_cap", None), ("t_final", "1")]
    for name, bad in cases:
        kwargs = {"mesh_sizes": [4, 8], name: bad}
        with pytest.raises(ValueError, match=f"^{name} must"):
            convergence_study(law, **kwargs)
    with pytest.raises(TypeError):
        convergence_study(law, 4)
    # the study counts steps by SolverConfig's one rule, in its words
    for reject in (lambda: SolverConfig(dt=1e-300, t_final=1.0),
                   lambda: convergence_study(law, [2], dt=1e-300)):
        with pytest.raises(ValueError) as excinfo:
            reject()
        assert str(excinfo.value) == "t_final / dt = 1e+300 steps, more than 2**53"
    assert runs == []
    convergence_study(law, [2], dt=0.05, t_final=0.05)
    assert runs == [8]


def test_convergence_study_takes_a_numpy_array_of_sizes(law: ForchheimerLaw) -> None:
    """Sizes in a numpy integer array run as the same sizes in a list do."""
    with pytest.raises(ValueError, match="nonempty"):
        convergence_study(law, np.array([], dtype=int))
    report = convergence_study(law, np.array([2, 4]), dt=0.05, t_final=0.05)
    assert [type(row.n) for row in report.rows] == [int, int]
    assert report.to_csv() == convergence_study(law, [2, 4], dt=0.05, t_final=0.05).to_csv()


def _tiny_report(law: ForchheimerLaw) -> ConvergenceReport:
    return convergence_study(law, [2, 4], dt=0.05, t_final=0.1)


def test_report_rows_and_runs(law: ForchheimerLaw) -> None:
    report = _tiny_report(law)
    assert [row.n for row in report.rows] == [2, 4]
    first, second = report.rows
    assert first.rate_p is None and first.rate_s is None and first.rate_u is None
    assert second.rate_p is not None
    assert first.dt == pytest.approx(0.05)
    assert first.picard_avg > 0.0


def test_csv_header_and_determinism(law: ForchheimerLaw) -> None:
    report_a = _tiny_report(law)
    report_b = _tiny_report(law)
    csv_a = report_a.to_csv()
    assert csv_a.splitlines()[0] == "n,h,dt,err_p,rate_p,err_s,rate_s,err_u,rate_u,picard_avg"
    assert csv_a == report_b.to_csv()
    lines = csv_a.splitlines()
    assert len(lines) == 3
    first_fields = lines[1].split(",")
    assert first_fields[0] == "2"
    assert first_fields[4] == ""  # no rate on the coarsest row


def test_markdown_layout(law: ForchheimerLaw) -> None:
    text = _tiny_report(law).to_markdown()
    lines = text.splitlines()
    assert lines[0] == "| n | err_p | rate | err_s | rate | err_u | rate |"
    assert lines[1].startswith("|---")
    assert len(lines) == 4
    assert lines[2].split("|")[2].strip() != "-"  # error value present
    assert lines[2].split("|")[3].strip() == "-"  # no rate on the coarsest row
    assert lines[3].split("|")[3].strip() != "-"


def test_oversampled_error_quadrature_is_consistent(capped_report, capped_runs, mms, monkeypatch) -> None:
    """Degree-7 error quadrature changes the n=16 norms by under 1 percent."""
    assert capped_report.rows[2].n == 16
    mesh, dofmap, result = capped_runs[2]
    base = error_norms(mesh, dofmap, result.state, mms)
    monkeypatch.setattr("forchmix.mms.triangle_quadrature", lambda: triangle_rule(7))
    fine = error_norms(mesh, dofmap, result.state, mms)
    for coarse_value, fine_value in zip(base, fine):
        assert abs(coarse_value - fine_value) / fine_value < 0.01


def test_readme_gives_the_default_studys_picard_avg(capped_report) -> None:
    """README's picard_avg figures are those the default study prints."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    figures = re.search(r"It reads ([\d., and]+?) on the default rows", readme).group(1)
    assert re.split(r", | and ", figures) == [f"{row.picard_avg:.4f}" for row in capped_report.rows]


def test_uncapped_step_policy_restores_second_order(uncapped_errors) -> None:
    """With dt = h^2 everywhere the pressure rates in h read two.

    The pressure error is backward Euler's first-order error in dt, and
    dt = h^2 turns that into a rate of two in h; the O(h) spatial error
    of the P0 pressure lies below it on meshes up to 64.
    """
    rates = [
        convergence_rate(prev[2], cur[2], prev[1], cur[1])
        for prev, cur in zip(uncapped_errors, uncapped_errors[1:])
    ]
    assert all(1.8 <= rate <= 2.2 for rate in rates[1:])
    assert rates[0] > 1.7
