"""End-to-end acceptance checks, one per criterion, each printing a verdict.

Every test emits a single "[PASS] criterion N: ..." or "[FAIL] criterion N:
..." line before asserting, so the whole gate reads as ten lines.
"""

from __future__ import annotations

import numpy as np

from test_law import g_eval

from forchmix import unit_square_mesh
from forchmix.law import K_eval, K_flux, _newton_s, degeneracy_exponents
from forchmix.spaces import (
    assemble_forms,
    build_dofmap,
    hdiv_interpolate,
    l2_project_scalar,
    triangle_quadrature,
)

REFERENCE_COARSE_PRESSURE_ERROR = 1.965e-01


def _report(ok: bool, number: int, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_pressure_rates_capped_policy(capped_report) -> None:
    """First-order-in-dt pressure convergence over the last three refinements.

    With dt = min(1e-2, h^2) the L2 pressure error is backward Euler's
    O(dt) error (err_p ~ 0.41 dt); the O(h) spatial error of the P0
    pressure sits below it on meshes up to 64.  The cap makes dt shrink by
    only 1.28 on 8 -> 16, so the order is measured against dt, not h.
    The band [0.9, 1.1] in dt equals [1.8, 2.2] in h wherever dt ~ h^2.
    """
    pairs = list(zip(capped_report.rows[1:], capped_report.rows[2:]))
    dt_ok = all(cur.dt < prev.dt for prev, cur in pairs)
    orders = [
        np.log(prev.err_p / cur.err_p) / np.log(prev.dt / cur.dt)
        if cur.dt < prev.dt
        else float("nan")
        for prev, cur in pairs
    ]
    h_rates = [cur.rate_p for _, cur in pairs]
    ok = dt_ok and all(0.9 <= order <= 1.1 for order in orders)
    detail = (
        "L2 pressure orders in dt with the capped step policy (meshes 4..64) "
        "are "
        + ", ".join(f"{order:.3f}" for order in orders)
        + " (required within [0.9, 1.1], dt strictly decreasing: "
        + f"{dt_ok}); the rates in h are "
        + ", ".join(f"{rate:.3f}" for rate in h_rates)
    )
    _report(ok, 1, detail)


def test_criterion_02_pressure_error_magnitude(coarse_run) -> None:
    """Coarse-mesh pressure error lands at the reference magnitude."""
    _, (e_p, _, _) = coarse_run
    low = REFERENCE_COARSE_PRESSURE_ERROR / 2.0
    high = REFERENCE_COARSE_PRESSURE_ERROR * 2.0
    ok = low <= e_p <= high
    _report(
        ok,
        2,
        f"n=4 pressure error {e_p:.4e} within factor 2 of "
        f"{REFERENCE_COARSE_PRESSURE_ERROR:.3e} (dt = 0.5)",
    )


def test_criterion_03_gradient_and_velocity_rates(capped_report) -> None:
    """L^(3/2) rates of s and u stay above the guaranteed half order."""
    last = capped_report.rows[-2:]
    s_rates = [row.rate_s for row in last]
    u_rates = [row.rate_u for row in last]
    ok = all(rate >= 0.4 for rate in s_rates + u_rates)
    _report(
        ok,
        3,
        "last two gradient rates "
        + ", ".join(f"{rate:.3f}" for rate in s_rates)
        + " and velocity rates "
        + ", ".join(f"{rate:.3f}" for rate in u_rates)
        + " (required >= 0.4)",
    )


def test_criterion_04_closed_form_conductivity(law) -> None:
    """Root-solved K matches 2 / (1 + sqrt(1 + 4 xi)) to 1e-12 relative."""
    xi = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 9999)])
    closed = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * xi))
    solved = 1.0 / g_eval(law, _newton_s(law, xi))
    rel = float(np.max(np.abs(solved - closed) / closed))
    ok = rel <= 1e-12
    _report(ok, 4, f"max relative gap {rel:.2e} over 10^4 xi in [0, 1e8]")


def test_criterion_05_monotonicity_and_derivative_bound(law) -> None:
    """Flux-map monotonicity on 10^4 pairs; -aK <= K' xi <= 0 on 10^3 points."""
    rng = np.random.default_rng(314)
    y1 = rng.normal(scale=4.0, size=(10000, 2))
    y2 = rng.normal(scale=4.0, size=(10000, 2))
    a = degeneracy_exponents(law).a
    diff_flux = K_flux(law, y1) - K_flux(law, y2)
    diff = y1 - y2
    lhs = np.sum(diff_flux * diff, axis=1)
    k_far = K_eval(
        law, np.maximum(np.linalg.norm(y1, axis=1), np.linalg.norm(y2, axis=1))
    )
    slack = float(np.min(lhs - (1.0 - a) * k_far * np.sum(diff * diff, axis=1)))
    mono_ok = slack >= -1e-12

    xi = np.concatenate([np.linspace(1e-3, 5.0, 500), np.logspace(0.7, 6.0, 500)])
    step = 1e-6 * np.maximum(xi, 1.0)
    fd = (K_eval(law, xi + step) - K_eval(law, xi - step)) / (2.0 * step)
    k = K_eval(law, xi)
    deriv_ok = bool(
        np.all(fd * xi <= 1e-9) and np.all(fd * xi >= -a * k * (1.0 + 1e-6) - 1e-9)
    )
    ok = mono_ok and deriv_ok
    _report(
        ok,
        5,
        f"monotonicity slack {slack:.2e} on 10^4 pairs; finite-difference "
        f"derivative bound -aK <= K'xi <= 0 on 10^3 points: {deriv_ok}",
    )


def test_criterion_06_commuting_projection(law) -> None:
    """Cell averages of div(interpolated v) equal the projected divergence."""
    rng = np.random.default_rng(2718)
    worst = 0.0
    for n in (2, 4, 8):
        mesh = unit_square_mesh(n)
        dofmap = build_dofmap(mesh)
        # the cell divergences of a field are its B_div rows of the forms by |T|
        b_div = assemble_forms(mesh, dofmap)[2 * mesh.num_triangles :]
        for _ in range(100):
            a0, a1, a2, b0, b1, b2 = rng.normal(size=6)

            def v(x, y):
                return np.stack(
                    np.broadcast_arrays(
                        x * (1.0 - x) * (a0 + a1 * x + a2 * y),
                        y * (1.0 - y) * (b0 + b1 * y + b2 * x),
                    ),
                    axis=-1,
                )

            def div_v(x, y):
                return (
                    (1.0 - 2.0 * x) * (a0 + a1 * x + a2 * y)
                    + x * (1.0 - x) * a1
                    + (1.0 - 2.0 * y) * (b0 + b1 * y + b2 * x)
                    + y * (1.0 - y) * b1
                )

            coeffs = hdiv_interpolate(mesh, dofmap, v)
            div = b_div @ coeffs / mesh.areas
            projected = l2_project_scalar(mesh, div_v, triangle_quadrature())
            worst = max(worst, float(np.max(np.abs(div - projected))))
    ok = worst <= 1e-10
    _report(ok, 6, f"worst deviation {worst:.2e} over 100 fields per mesh in {{2,4,8}}")


def test_criterion_07_mass_balance(capped_report) -> None:
    """Per-step mass balance on the n=16 run of the study."""
    assert capped_report.rows[2].n == 16
    run = capped_report.runs[2]
    worst = 0.0
    ok = True
    for residual, f_int in zip(run.result.mass_residuals, run.result.f_integrals):
        bound = 1e-10 * (1.0 + abs(f_int))
        worst = max(worst, residual / bound)
        ok = ok and residual <= bound
    _report(
        ok,
        7,
        f"max normalized mass-balance residual {worst:.2e} over "
        f"{len(run.result.mass_residuals)} steps on n=16 (bound 1)",
    )


def test_criterion_08_unforced_decay(decay_run) -> None:
    """Without forcing the pressure norm never increases over 100 steps."""
    norms, _ = decay_run
    increments = np.diff(norms)
    worst = float(increments.max())
    ok = bool(np.all(increments <= 1e-12))
    _report(
        ok,
        8,
        f"largest step-to-step change of ||p|| is {worst:.2e} over "
        f"{len(increments)} unforced steps on n=16 (must be <= 1e-12)",
    )


def test_criterion_09_manufactured_residual(mms) -> None:
    """p_t + div u - f vanishes at 1000 random space-time points."""
    rng = np.random.default_rng(999)
    x = rng.uniform(0.01, 0.99, size=1000)
    y = rng.uniform(0.01, 0.99, size=1000)
    t = rng.uniform(0.0, 1.0, size=1000)
    h = 1e-5
    p_t = (mms.p(x, y, t + h) - mms.p(x, y, t - h)) / (2.0 * h)
    du1 = (mms.u(x + h, y, t)[..., 0] - mms.u(x - h, y, t)[..., 0]) / (2.0 * h)
    du2 = (mms.u(x, y + h, t)[..., 1] - mms.u(x, y - h, t)[..., 1]) / (2.0 * h)
    residual = float(np.max(np.abs(p_t + du1 + du2 - mms.f(x, y)(t))))
    ok = residual <= 1e-6
    _report(ok, 9, f"max finite-difference residual {residual:.2e} at 1000 points")


def test_criterion_10_picard_robustness(capped_report, coarse_run, decay_run) -> None:
    """Every step of every acceptance run converges within 25 iterations."""
    counts = []
    for run in capped_report.runs:
        counts.extend(run.result.picard_iters)
    counts.extend(coarse_run[0].picard_iters)
    counts.extend(decay_run[1])
    worst = max(counts)
    ok = worst <= 25
    _report(ok, 10, f"max Picard count {worst} over {len(counts)} steps (cap 25)")
