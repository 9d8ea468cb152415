"""Manufactured solution, error norms, and the convergence-study driver.

The manufactured pressure on the unit square,

    p(x, y, t) = exp(-5t) [ (x^2 + y^2)/2 - (x^3 + y^3)/3 ],

has gradient s = exp(-5t) (x(1-x), y(1-y)), so the velocity
u = -K(|s|) s satisfies u.n = 0 on all four sides exactly.  The forcing
f = p_t + div u is derived in closed form from this convention.  Its K'
term is written through g and its slope at the root, so no K' is
evaluated and f stays finite where s = 0.  It separates into factors of t
and of the points (see forcing_f), so ManufacturedSolution.f(x, y) binds
it to fixed points, such as the solver's quadrature points, and returns
t -> f(x, y, t).

Errors are measured at the final time: pressure in L2, gradient and
velocity in L^beta with beta = 2 - a from the law's degeneracy exponents.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

# K_eval and K_prime are no longer called here but stay importable from this
# module: perfbench/spans.py traces the conductivity layer through them.
from .law import K_eval, K_prime  # noqa: F401
from .law import ForchheimerLaw, K_flux, _g_and_slope, _terms, degeneracy_exponents, solve_s_of_xi
from .mesh import TriMesh, _is_mesh_size, unit_square_mesh
from .solver import _MAX_STEPS, DiscreteState, ExpandedMixedSolver, RunResult, SolverConfig, _real
from .spaces import (
    DofMap,
    cell_points,
    rt0_at_cell_points,
    triangle_quadrature,
)

_DECAY = 5.0


def _pressure(x, y) -> np.ndarray:
    """P = (x^2 + y^2)/2 - (x^3 + y^3)/3, so that p = exp(-5t) P."""
    return 0.5 * (x**2 + y**2) - (x**3 + y**3) / 3.0


def _gradient(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The components of S = grad P, so that s = exp(-5t) S."""
    return x * (1.0 - x), y * (1.0 - y)


def forcing_f(law: ForchheimerLaw, x, y) -> Callable[[float], np.ndarray]:
    """Forcing f = p_t + div u of the manufactured solution bound to the
    points (x, y): the function t -> f(x, y, t), with the factors that
    depend only on the points evaluated once.

    With e = exp(-5t) the fields separate: p = e P, s = e S and
    d1 s1 + d2 s2 = e D, and div u = -[K(xi) e D + xi K'(xi) e B] with
    xi = e|S| and B = (S1^2 d1 S1 + S2^2 d2 S2)/|S|^2.  Differentiating
    s g(s) = xi gives xi K'(xi) = 1/slope - K(xi), slope = (s g)'(s) at the
    root s = s(xi), so

        f = -e [5 P + K D + (1/slope - K) B].

    B is bounded, 0 where S = 0, and 1/slope - K is 0 at xi = 0, so no K' is
    evaluated and nothing is infinite, even where K' diverges.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pressure_rate = _DECAY * _pressure(x, y)  # 5 P = -p_t / e
    s1, s2 = _gradient(x, y)
    ds1, ds2 = 1.0 - 2.0 * x, 1.0 - 2.0 * y
    norm = np.hypot(s1, s2)
    norm2 = norm * norm
    divergence = ds1 + ds2
    # where |S|^2 is 0, so is the numerator, and B = 0 there
    radial = (s1**2 * ds1 + s2**2 * ds2) / np.where(norm2 > 0.0, norm2, 1.0)
    terms = _terms(law)

    def at(t) -> np.ndarray:
        decay = np.exp(-_DECAY * np.asarray(t, dtype=float))
        g, slope = _g_and_slope(terms, solve_s_of_xi(law, decay * norm))
        k = 1.0 / g
        return -decay * (pressure_rate + k * divergence + (1.0 / slope - k) * radial)

    return at


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form fields (p, s, u, f) of the verification problem."""

    law: ForchheimerLaw

    def p(self, x, y, t) -> np.ndarray:
        decay = np.exp(-_DECAY * np.asarray(t, dtype=float))
        return decay * _pressure(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def s(self, x, y, t) -> np.ndarray:
        decay = np.exp(-_DECAY * np.asarray(t, dtype=float))
        s1, s2 = _gradient(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.stack(np.broadcast_arrays(decay * s1, decay * s2), axis=-1)

    def u(self, x, y, t) -> np.ndarray:
        return -K_flux(self.law, self.s(x, y, t))

    def f(self, x, y) -> Callable[[float], np.ndarray]:
        """The forcing f = p_t + div u bound to the points (x, y): t -> f(x, y, t)."""
        return forcing_f(self.law, x, y)

    def p0(self, x, y) -> np.ndarray:
        return self.p(x, y, 0.0)

    def s0(self, x, y) -> np.ndarray:
        return self.s(x, y, 0.0)

    def u0(self, x, y) -> np.ndarray:
        return self.u(x, y, 0.0)


def error_norms(
    mesh: TriMesh,
    dofmap: DofMap,
    state: DiscreteState,
    exact: ManufacturedSolution,
) -> tuple[float, float, float]:
    """(e_p, e_s, e_u): L2 pressure error and L^beta gradient/velocity errors
    of state against the exact fields at time state.t.

    The velocity error evaluates the RT0 field pointwise inside each cell,
    not its cell average.
    """
    t = state.t
    rule = triangle_quadrature()
    beta = degeneracy_exponents(exact.law).beta
    pts = cell_points(mesh, rule)
    x, y = pts[..., 0], pts[..., 1]
    areas, weights = mesh.areas, rule.weights

    p_diff = state.p[:, None] - exact.p(x, y, t)
    e_p = float(np.sqrt(areas @ (p_diff**2 @ weights)))

    def lebesgue(e: np.ndarray) -> float:
        # (int |e|^beta)^(1/beta); |e| is bit for bit np.linalg.norm(e, axis=-1), and faster
        magnitude = np.sqrt(e[..., 0] ** 2 + e[..., 1] ** 2)
        return float((areas @ (magnitude**beta @ weights)) ** (1.0 / beta))

    e_s = lebesgue(state.s[:, None, :] - exact.s(x, y, t))
    e_u = lebesgue(rt0_at_cell_points(mesh, dofmap, state.u, pts) - exact.u(x, y, t))
    return e_p, e_s, e_u


def convergence_rate(
    err_coarse: float, err_fine: float, h_coarse: float, h_fine: float
) -> float:
    """Observed order: log(err_coarse/err_fine) / log(h_coarse/h_fine).

    Reduces to log2 of the error ratio when the mesh is halved.
    """
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return float("nan")
    return float(np.log(err_coarse / err_fine) / np.log(h_coarse / h_fine))


@dataclass(frozen=True)
class ReportRow:
    """One mesh of a convergence study; rates are None on the coarsest row."""

    n: int
    h: float
    dt: float
    err_p: float
    rate_p: float | None
    err_s: float
    rate_s: float | None
    err_u: float
    rate_u: float | None
    picard_avg: float


@dataclass(frozen=True)
class MeshRun:
    """Raw per-mesh artifacts kept alongside the serialized rows."""

    mesh: TriMesh
    dofmap: DofMap
    result: RunResult


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of a convergence study plus the raw run of each row."""

    rows: list[ReportRow]
    runs: list[MeshRun]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,h,dt,err_p,rate_p,err_s,rate_s,err_u,rate_u,picard_avg\n")
        for row in self.rows:
            out.write(
                f"{row.n},{row.h:.12e},{row.dt:.12e},"
                f"{row.err_p:.12e},{_csv_rate(row.rate_p)},"
                f"{row.err_s:.12e},{_csv_rate(row.rate_s)},"
                f"{row.err_u:.12e},{_csv_rate(row.rate_u)},"
                f"{row.picard_avg:.4f}\n"
            )
        return out.getvalue()

    def to_markdown(self) -> str:
        lines = [
            "| n | err_p | rate | err_s | rate | err_u | rate |",
            "|---|-------|------|-------|------|-------|------|",
        ]
        for row in self.rows:
            lines.append(
                f"| {row.n} | {row.err_p:.3e} | {_md_rate(row.rate_p)} "
                f"| {row.err_s:.3e} | {_md_rate(row.rate_s)} "
                f"| {row.err_u:.3e} | {_md_rate(row.rate_u)} |"
            )
        return "\n".join(lines) + "\n"


def _csv_rate(rate: float | None) -> str:
    return "" if rate is None else f"{rate:.4f}"


def _md_rate(rate: float | None) -> str:
    return "-" if rate is None else f"{rate:.2f}"


def _pick_dt(dt: float | str, dt_cap: float, h: float, t_final: float) -> float:
    """Resolve the dt policy and snap so that t_final is a whole number of steps.

    A ValueError names the argument at fault.
    """
    t_final = _real("t_final", t_final)
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError("t_final must be nonnegative and finite")
    if not _real("dt_cap", dt_cap) > 0.0:
        raise ValueError("dt_cap must be positive, or inf for no cap")
    if isinstance(dt, str):
        if dt != "h2":
            raise ValueError("dt must be a positive number or 'h2'")
        raw = min(dt_cap, h * h)
    else:
        raw = _real("dt", dt)
        if not (math.isfinite(raw) and raw > 0.0):
            raise ValueError("dt must be positive and finite")
    if t_final == 0.0:
        return raw
    steps = t_final / raw
    if not steps <= _MAX_STEPS:
        raise ValueError(f"final time / dt = {steps:.3g} steps, more than 2**53")
    return t_final / max(1, round(steps))


def _check_study(mesh_sizes, *, dt, dt_cap, t_final, picard_tol, picard_max) -> list[int]:
    """The mesh sizes as ints once all of convergence_study's arguments check
    out, else a ValueError naming the one at fault; the CLI checks here too."""
    if len(mesh_sizes) == 0:
        raise ValueError("mesh_sizes must be nonempty")
    if not all(_is_mesh_size(n) for n in mesh_sizes):
        raise ValueError("mesh_sizes must be positive integers")
    # numpy integers included; the rows report plain ints
    sizes = [int(n) for n in mesh_sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("mesh_sizes must be strictly increasing")
    # the finest mesh, h = sqrt(2)/n, takes the most steps under either policy
    dt_finest = _pick_dt(dt, dt_cap, math.sqrt(2.0) / sizes[-1], t_final)
    SolverConfig(dt_finest, t_final, picard_tol, picard_max)
    return sizes


def convergence_study(
    law: ForchheimerLaw,
    mesh_sizes: Sequence[int],
    *,
    dt: float | str = "h2",
    dt_cap: float = 1e-2,
    t_final: float = 1.0,
    picard_tol: float = 1e-6,
    picard_max: int = 25,
) -> ConvergenceReport:
    """Run the manufactured problem on each mesh and tabulate errors and rates.

    dt is either a fixed step or the policy "h2", meaning
    dt = min(dt_cap, h^2) per mesh (inf: no cap); either way the step is
    snapped to divide t_final exactly.  Rates compare consecutive rows.
    Every argument is checked before the first mesh runs.
    """
    mesh_sizes = _check_study(mesh_sizes, dt=dt, dt_cap=dt_cap, t_final=t_final,
                              picard_tol=picard_tol, picard_max=picard_max)
    exact = ManufacturedSolution(law)
    rows: list[ReportRow] = []
    runs: list[MeshRun] = []
    prev: ReportRow | None = None
    for n in mesh_sizes:
        mesh = unit_square_mesh(n)
        dt_n = _pick_dt(dt, dt_cap, mesh.h, t_final)
        solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt_n, t_final, picard_tol, picard_max))
        result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
        e_p, e_s, e_u = error_norms(mesh, solver.dofmap, result.state, exact)
        picard_avg = (
            float(np.mean(result.picard_iters)) if result.picard_iters else 0.0
        )
        if prev is None:
            rates: tuple[float | None, float | None, float | None] = (None, None, None)
        else:
            rates = (
                convergence_rate(prev.err_p, e_p, prev.h, mesh.h),
                convergence_rate(prev.err_s, e_s, prev.h, mesh.h),
                convergence_rate(prev.err_u, e_u, prev.h, mesh.h),
            )
        row = ReportRow(
            n=n,
            h=mesh.h,
            dt=dt_n,
            err_p=e_p,
            rate_p=rates[0],
            err_s=e_s,
            rate_s=rates[1],
            err_u=e_u,
            rate_u=rates[2],
            picard_avg=picard_avg,
        )
        rows.append(row)
        runs.append(MeshRun(mesh=mesh, dofmap=solver.dofmap, result=result))
        prev = row
    return ConvergenceReport(rows=rows, runs=runs)
