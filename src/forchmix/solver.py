"""Backward Euler time stepping for the expanded mixed scheme.

Each time step solves the nonlinear system

    (1/dt) M_p p + B_div u            = (1/dt) M_p p_prev + F
              M_sz(K) s + M_uz u      = 0
    C_pv p + C_sv s                   = 0

with u = -K(|s|) s.  Both mass blocks are diagonal, so p = p_hat - dt M_p^{-1}
B u with p_hat = p_prev + dt M_p^{-1} F, and as K(xi) xi is the root r of
r g(r) = xi, the cell equation |T| K(|s_T|) s_T = -(M_uz u)_T says
s_T = g(|v_T|) v_T with v_T = -(M_uz u)_T / |T|.  A step is thus a system in
u alone, polynomial through g and free of root solves,

    R(u) = -M_uz^T s(u) + dt B^T M_p^{-1} B u - B^T p_hat = -[M_uz; B]^T [s; p],

which Newton's method solves.  Its Jacobian

    J = M_uz^T diag(D_T / |T|) M_uz + dt B^T M_p^{-1} B,
    D_T = g I + (slope - g) v^ v^^T,   slope = (r g)' at r = |v_T|,

with v^ = v_T / |v_T|, satisfies A(1/g) <= J <= (1 + alpha_N) A(1/g), where
A(K) = M_uz^T M_sz(K)^{-1} M_uz + dt B^T M_p^{-1} B is the matrix of the
system with K frozen; the limit solves A(K(|s|)) u = B^T p_hat, the Picard
fixed point.  A takes K as one weight w_T = 1/(K_T |T|) per cell, so it is
one sparse product of the stacked forms F = [M_uz; B],
A = F^T diag(w, w, dt/|T|) F, a CSC matrix in the DofMap's nested-dissection
numbering, which SuperLU factors as it is numbered.

CG solves each Newton step J delta = -R(u) from zero, applying J through
[M_uz; B] and preconditioned by the factorization of J itself at an earlier
iterate, to an inexact-Newton stop (see _NEWTON_ETA; Kelley, Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 6; Knoll & Keyes,
J. Comput. Phys. 193, 2004).  J = F^T W F, and W, the cell operator on the
rows of F, is stored as per-cell planes: w_xx, w_yy and w_xy of each cell's
symmetric 2x2 block D_T / |T| on its two moment rows, and dt / |T| on its
divergence row.  CG applies J as F^T (W (F d)), W blockwise on the thirds of
F d, and a factorization forms F^T (W F), W F on the one pattern the three
blocks of F share, with the sparsity of A; where slope = g, as for a
constant g, J is A(1/g).  A
march's first iterate factors J.  Each CG iteration past the first of a
Newton step is stale, and once _CG_STALE_BUDGET of them have run since the
last factorization the next iterate factors J afresh before its CG; when CG
misses its stop within _CG_MAXITER iterations, J is likewise factored afresh
at the current iterate and CG runs again.  A step starts from the
extrapolation of u through up to four levels, a cubic from the fifth step,
and stops once successive iterates of s differ by at most picard_tol
(1 + max|s|), or once R(u) is below the CG stop's floor, where the next step
would be zero, else raises PicardError after _NEWTON_MAXITER iterates.

run projects the exact initial data p0, s0 and u0 and drains steps, the one
marching loop, which a caller iterates for every level.  A march binds its
forcing to the fixed quadrature points once (see ForcingField), so a step
evaluates only t -> f(x, y, t).  Initial data whose projection is not
finite, or a forcing whose integral is not, raise ValueError before a solve.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# K_eval is not called here but stays importable: perfbench/spans.py traces it
from .law import ForchheimerLaw, K_eval, _g_and_slope, _terms  # noqa: F401
from .mesh import TriMesh
from .spaces import (
    DofMap,
    _filled,
    assemble_forms,
    build_dofmap,
    cell_points,
    hdiv_interpolate,
    l2_project_scalar,
    l2_project_vector,
    triangle_quadrature,
)

# A Newton step's CG stops at _NEWTON_ETA |R(u)|, or at the floor
# _cg_rtol(picard_tol) |b_n - b_{n-1}|, b = B^T p_hat, when larger: up to
# the previous step's residual, that is the residual of u^{n-1} in the
# current system (on step 1, that of the start), so a good warm start saves
# iterations rather than buying digits below rounding.  The floor follows the
# Picard tolerance, as Eisenstat-Walker forcing terms do (SIAM J. Sci.
# Comput. 17, 1996): two digits below it, within [1e-12, 1e-8].
_NEWTON_ETA = 1e-2
# CG iterations before the factorization is renewed at the current iterate;
# past about eight a fresh factorization costs less than the iterations it
# saves.  The retry on that fresh factor of J itself meets its stop in one
# iteration up to rounding, so the same cap only stops a broken solve there.
_CG_MAXITER = 8
# Newton iterates after which a step raises PicardError; uncapped, Newton took
# at most 7 a step over laws up to 1:0,1e9:9 and picard_tol down to 1e-14.
_NEWTON_MAXITER = 25
# Stale CG iterations, those past the first of a Newton step, after which the
# next iterate factors J afresh.  A factor of J at t = 0 drifts from J over a
# long march: without renewal the default study's n=64 row (2048 steps) took
# 2679 triangular solves, 2108 at this budget and 2172 at 128; at 32 the
# n=128 row at dt = h factored three times rather than twice.
_CG_STALE_BUDGET = 64
# a double holds every whole step count only up to 2**53
_MAX_STEPS = 2.0**53
# Columns of SuperLU's panel, half scipy's default of 20: the width sizes only
# SuperLU's workspace, not the fill, and widths below 10 multiply a long
# march's page faults (ROADMAP, "SuperLU panels narrower than 10").
_LU_PANEL = 10

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]
VectorField = Callable[[np.ndarray, np.ndarray], np.ndarray]
# A forcing bound to points: f(x, y) returns t -> f(x, y, t), doing the work
# that depends only on the points once.  A march binds it to the quadrature
# points at its start (ManufacturedSolution.f is one).
ForcingField = Callable[[np.ndarray, np.ndarray], Callable[[float], np.ndarray]]


def _cg_rtol(picard_tol: float) -> float:
    """The floor of the CG stop, relative to |b_n - b_{n-1}|, for a Picard tolerance."""
    return min(max(1e-2 * picard_tol, 1e-12), 1e-8)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as numpy's own sum of a * b, whose bits, unlike those of BLAS's
    dot, which splits a long sum over its threads, follow no thread count."""
    return np.add.reduce(a * b)


def _norm(a: np.ndarray) -> float:
    """The Euclidean norm of a, summed by _dot."""
    return np.sqrt(_dot(a, a))


def _extrapolate(levels: Sequence[np.ndarray]) -> np.ndarray:
    """The next level of the polynomial through levels, the last k time levels
    oldest first: the backward-difference predictor sum_{j<k} nabla^j x^{n-1}
    (Hairer, Norsett & Wanner, Solving ODEs I, III.1).  A constant history's
    differences are exact zeros, so it returns exactly."""
    total = levels[-1]
    for depth in range(len(levels) - 1):
        # the first round makes fresh arrays, which later rounds and the sum
        # overwrite; the caller's levels, the history's u, are never written
        levels = [np.subtract(b, a, out=a if depth else None) for a, b in zip(levels, levels[1:])]
        total = np.add(total, levels[-1], out=total if depth else None)
    return total


def _real(name: str, value) -> float:
    """value as a float, else a ValueError naming it; True is no time or tolerance."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number")
    return float(value)


def _step_count(dt, t_final) -> float:
    """t_final / dt, once dt is a positive and t_final a nonnegative finite
    real and the march takes at most 2**53 steps, else a ValueError naming
    the fault; the one rule of a march's length."""
    dt, t_final = _real("dt", dt), _real("t_final", t_final)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError("t_final must be nonnegative and finite")
    steps = t_final / dt
    if not steps <= _MAX_STEPS:
        raise ValueError(f"t_final / dt = {steps:.3g} steps, more than 2**53")
    return steps


class PicardError(RuntimeError):
    """A step's nonlinear iteration failed to converge; carries its last
    residual, the increment of s, or |R(u)| when CG failed."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping and nonlinear-solve parameters.

    t_final must be an integer multiple of dt.  A step's Newton iteration
    stops once successive iterates of s differ by at most
    picard_tol (1 + max|s|), and after at most _NEWTON_MAXITER iterates; the
    names stay those of the Picard iteration it replaced.  The levels of the
    tested marches solve their frozen-K equations to within
    10 * picard_tol (relative).
    """

    dt: float
    t_final: float
    picard_tol: float = 1e-6

    def __post_init__(self) -> None:
        steps = _step_count(self.dt, self.t_final)
        _real("picard_tol", self.picard_tol)
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("t_final must be an integer multiple of dt")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError("picard_tol must be positive and finite")

    @property
    def num_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class DiscreteState:
    """Coefficient vectors of one time level: piecewise-constant pressure p
    (one per cell), piecewise-constant gradient s (cell, component), and
    RT0 velocity u (one per interior edge)."""

    p: np.ndarray
    s: np.ndarray
    u: np.ndarray
    t: float


@dataclass(frozen=True)
class RunResult:
    """Final state plus per-step diagnostics of a time-stepping run.

    picard_iters[n], mass_residuals[n] and f_integrals[n] describe step n+1.
    """

    state: DiscreteState
    picard_iters: list[int]
    mass_residuals: list[float]
    f_integrals: list[float]


class ExpandedMixedSolver:
    """Assembles the scheme on a fixed mesh and law and advances it in time."""

    def __init__(self, mesh: TriMesh, law: ForchheimerLaw, config: SolverConfig) -> None:
        self.mesh = mesh
        self.law = law
        self.config = config
        self.quadrature = triangle_quadrature()
        self.dofmap: DofMap = build_dofmap(mesh)
        # M_uz u, as x then y moments, and B_div u, for s and div u, from one product
        self._forms = assemble_forms(mesh, self.dofmap)
        self._forms_t = self._forms.T
        self._terms = _terms(law)
        # W, the Jacobian's cell operator on those rows, as per-cell planes:
        # cell T's symmetric 2x2 block D_T / |T| as w_xx, w_yy and w_xy on
        # its two moment rows, and dt / |T| on its divergence row, set here once
        self._cell_planes = np.zeros((3, mesh.num_triangles))
        self._dt_areas = config.dt / mesh.areas
        self._cg_rtol = _cg_rtol(config.picard_tol)
        self._lu = None
        # stale CG iterations since the last factorization
        self._stale_iterations = 0

    def _loads(self, f: ForcingField) -> Callable[[float], np.ndarray]:
        """t -> the cell integrals of the forcing f at time t, with f bound
        to the quadrature points once."""
        x, y = cell_points(self.mesh, self.quadrature)
        values, shape = f(x, y), x.shape
        areas, weights = self.mesh.areas, self.quadrature.weights
        # closes over no point array, which the march would hold to its end
        return lambda t: areas * (_filled(values(t), shape) @ weights)

    def initial_state(self, p0: ScalarField, s0: VectorField, u0: VectorField) -> DiscreteState:
        """Project the initial data onto the discrete spaces: p and s are cell
        averages of p0 and of the exact gradient s0, and u is the edge-flux
        interpolant of the exact velocity u0, for which a caller without one
        passes the constitutive flux -K_flux(law, s0(x, y)).
        """
        p = l2_project_scalar(self.mesh, p0, self.quadrature)
        s = l2_project_vector(self.mesh, s0, self.quadrature)
        u = hdiv_interpolate(self.mesh, self.dofmap, u0)
        for name, projection in (("p0", p), ("s0", s), ("u0", u)):
            if not np.all(np.isfinite(projection)):
                raise ValueError(f"the projection of {name} is not finite")
        return DiscreteState(p=p, s=s.reshape(-1, 2), u=u, t=0.0)

    def _factor(self) -> None:
        """Factor the Jacobian at the cell blocks _refill_jacobian set, and
        start the count of stale CG iterations afresh."""
        # dropped first, the old factor is not held beside the new one at splu's peak
        self._lu = None
        # J is symmetric positive definite, as slope >= g > 0, so diagonal
        # pivots are stable, as in Cholesky, and keep the planned fill
        # without a threshold search
        self._lu = splu(
            self._forms_t @ self._weighted_forms(), permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=_LU_PANEL
        )
        self._stale_iterations = 0

    def _weighted_forms(self) -> sp.csr_matrix:
        """W F on F's own index arrays: the blocks of F = [M_x; M_y; B_div]
        share one pattern, so each cell's two moment rows mix entry by entry.
        Its temporaries are freed on return, before splu runs."""
        forms, counts = self._forms, np.diff(self._forms.indptr[: len(self._dt_areas) + 1])
        w_xx, w_yy, w_xy, dt_areas = (np.repeat(w, counts) for w in (*self._cell_planes, self._dt_areas))
        f_x, f_y, f_div = forms.data.reshape(3, -1)
        data = np.concatenate((w_xx * f_x + w_xy * f_y, w_xy * f_x + w_yy * f_y, dt_areas * f_div))
        return sp.csr_matrix((data, forms.indices, forms.indptr), shape=forms.shape)

    def _state(self, u: np.ndarray, p_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """s as its two component rows and p at the velocity u, and the law's
        cell data (v, |v|, g, slope) from which the Jacobian is formed."""
        areas = self.mesh.areas
        forms, split = self._forms @ u, 2 * len(areas)
        v = forms[:split].reshape(2, -1) / -areas
        r = np.sqrt(v[0] ** 2 + v[1] ** 2)
        g, slope = _g_and_slope(self._terms, r)
        p = p_hat - self._dt_areas * forms[split:]
        return g * v, p, (v, r, g, slope)

    def _refill_jacobian(self, v: np.ndarray, r: np.ndarray, g: np.ndarray, slope: np.ndarray) -> None:
        """Overwrite W's planes w_xx, w_yy and w_xy of the blocks D_T / |T| =
        (g I + (slope - g) v^ v^^T) / |T| in place, with v^ = v / |v| (0 where
        v = 0): through |v|^2 the product would underflow, and g' alone diverges
        at 0 for exponents below 1.  W's dt / |T| stay as the constructor set them."""
        areas = self.mesh.areas
        unit = np.divide(v, r, out=np.zeros_like(v), where=r > 0.0)
        bend = (slope - g) / areas
        self._cell_planes[:2] = g / areas + bend * unit**2
        self._cell_planes[2] = bend * unit[0] * unit[1]

    def _jacobian_times(self, d: np.ndarray) -> np.ndarray:
        """J d = F^T (W (F d)), W applied blockwise, with no matrix J formed."""
        y_x, y_y, y_div = (self._forms @ d).reshape(3, -1)
        w_xx, w_yy, w_xy = self._cell_planes
        return self._forms_t @ np.concatenate(
            (w_xx * y_x + w_xy * y_y, w_xy * y_x + w_yy * y_y, self._dt_areas * y_div)
        )

    def _pcg(self, b: np.ndarray, target: float) -> np.ndarray | None:
        """CG for J delta = b from zero, preconditioned by the stored LU.

        Returns delta once its residual is at most target, zero when b
        already is, and None when _CG_MAXITER iterations miss it.  A returned
        delta's iterations past the first count as stale.
        """
        delta = np.zeros_like(b)
        if _norm(b) <= target:
            return delta
        r = b.copy()
        z = self._lu.solve(r)
        d = z
        rz = _dot(r, z)
        for iteration in range(_CG_MAXITER):
            jd = self._jacobian_times(d)
            alpha = rz / _dot(d, jd)
            delta += alpha * d
            r -= alpha * jd
            if _norm(r) <= target:
                self._stale_iterations += iteration
                return delta
            z = self._lu.solve(r)
            rz, rz_prev = _dot(r, z), rz
            d = z + (rz / rz_prev) * d
        return None

    def _advance(
        self, levels: Sequence[DiscreteState], t_n: float, load: np.ndarray, rhs_prev: np.ndarray | None
    ) -> tuple[tuple[DiscreteState, int, float, float], np.ndarray]:
        """One backward Euler step, resolved by Newton's method in u.

        levels are the last one to four time levels, oldest first, load
        holds the cell integrals of f^n and rhs_prev is the previous step's
        b = B^T p_hat, None on the first.  The first iterate starts from the
        extrapolation of u through all levels.  Returns the new level, its
        Newton count, its mass residual |int(p^n) - int(p^{n-1}) - dt
        int(f^n)|, identically small, and int(f^n); then the step's b.
        """
        cfg = self.config
        areas = self.mesh.areas
        f_integral = float(load.sum())
        if not math.isfinite(f_integral):
            raise ValueError(f"the integral of the forcing at t={t_n} is not finite")
        state_prev = levels[-1]
        p_hat = state_prev.p + cfg.dt * load / areas
        # b = B_div^T p_hat, the forms' transpose on (0, p_hat): no copy of B_div kept
        rhs = self._forms_t @ np.concatenate((np.zeros(2 * len(areas)), p_hat))
        u = _extrapolate([level.u for level in levels])
        s, p, cell = self._state(u, p_hat)
        # -R(u), whose norm on step 1 stands in for |b_1 - b_0|
        step = self._forms_t @ np.concatenate((s.ravel(), p))
        residual = _norm(step)
        floor = self._cg_rtol * (residual if rhs_prev is None else _norm(rhs - rhs_prev))
        for iteration in range(1, _NEWTON_MAXITER + 1):
            self._refill_jacobian(*cell)
            # spent: the law data is not held while splu runs
            del cell
            target = max(_NEWTON_ETA * residual, floor)
            delta = None
            if self._lu is not None and self._stale_iterations < _CG_STALE_BUDGET:
                delta = self._pcg(step, target)
            if delta is None:
                self._factor()
                delta = self._pcg(step, target)
            if delta is None:
                raise PicardError("CG missed the Newton stop on a fresh factorization", float(residual))
            u = u + delta
            s_new, p, cell = self._state(u, p_hat)
            increment = float(np.max(np.abs(s_new - s), initial=0.0))
            s = s_new
            if not (math.isfinite(increment) and np.all(np.isfinite(p))):
                raise RuntimeError("Newton iterate produced non-finite values")
            if increment <= cfg.picard_tol * (1.0 + float(np.max(np.abs(s), initial=0.0))):
                break
            step = self._forms_t @ np.concatenate((s.ravel(), p))
            residual = _norm(step)
            # the next iterate's CG would stop at once, with a zero step
            if residual <= floor:
                break
        else:
            raise PicardError(
                f"Newton iteration did not converge in {_NEWTON_MAXITER} iterations "
                f"(last residual {increment:.3e}, the increment of s)",
                residual=increment,
            )
        mass_residual = float(abs(_dot(areas, p) - _dot(areas, state_prev.p) - cfg.dt * f_integral))
        state = DiscreteState(p=p, s=s.T.copy(), u=u, t=t_n)
        return (state, iteration, mass_residual, f_integral), rhs

    def steps(
        self, state0: DiscreteState, f: ForcingField
    ) -> Iterator[tuple[DiscreteState, int, float, float]]:
        """March from the level state0 at t=0 to t_final, one step per item.

        Yields (state, picard_iters, mass_residual, f_integral) for each
        step.  The march binds the forcing f(x, y) (see ForcingField) to
        the quadrature points once, at its start, factors afresh on its
        first solve, and keeps the last four levels to extrapolate from.
        """
        cfg = self.config
        self._lu = None
        loads = self._loads(f)
        times = np.linspace(0.0, cfg.t_final, cfg.num_steps + 1)
        # the levels a step extrapolates from; s^0 projects exact data and
        # is no discrete solution, so it is used only by the first step
        history: deque[DiscreteState] = deque(maxlen=4)
        rhs = None
        for t_n in times[1:].tolist():
            step, rhs = self._advance(list(history) or [state0], t_n, loads(t_n), rhs)
            history.append(step[0])
            yield step

    def run(self, f: ForcingField, p0: ScalarField, s0: VectorField, u0: VectorField) -> RunResult:
        """March from the projections of p0, s0 and u0 to t_final by draining
        steps, under the forcing f(x, y) returning t -> f(x, y, t) (see
        ForcingField)."""
        state = self.initial_state(p0, s0, u0)
        picard_iters: list[int] = []
        mass_residuals: list[float] = []
        f_integrals: list[float] = []
        for state, iterations, mass_residual, f_integral in self.steps(state, f):
            picard_iters.append(iterations)
            mass_residuals.append(mass_residual)
            f_integrals.append(f_integral)
        return RunResult(state, picard_iters, mass_residuals, f_integrals)
