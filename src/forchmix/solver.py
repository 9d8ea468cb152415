"""Backward Euler time stepping for the expanded mixed scheme.

Each time step solves the nonlinear system

    (1/dt) M_p p + B_div u            = (1/dt) M_p p_prev + F
              M_sz(K) s + M_uz u      = 0
    C_pv p + C_sv s                   = 0

by a Picard iteration on the cellwise conductivity: with K frozen at a
cellwise constant kbar the block system is linear and symmetric, and its
solution s gives the update K(|s|).  A step starts from its history: the
first kbar is K at the extrapolation in time of s through up to three
levels, s^0 excluded (it projects exact data and is no discrete solution),
and the first warm start of the velocity solve the extrapolation of u
through up to four, which from the fifth step on is the cubic
4 u^{n-1} - 6 u^{n-2} + 4 u^{n-3} - u^{n-4}; a cubic start of kbar would
cost Picard iterates.  Later kbar are the depth-1 Anderson mix of the last
two updates (Walker & Ni, SIAM J. Numer. Anal. 49, 2011), or the plain
update K(|s|) when the mix is not a positive, finite conductivity.  The
stopping tests measure the residual of the kbar each solve used, so the
limit is plain Picard's to within the tolerance.  The sign convention is
u = -K(|s|) s throughout.

Both mass blocks are diagonal, so s and p are eliminated exactly, leaving
the symmetric positive definite velocity system

    A(K) u = (M_uz^T M_sz(K)^{-1} M_uz + dt B^T M_p^{-1} B) u
           = B^T (p_prev + dt M_p^{-1} F)

after which s = -M_sz^{-1} M_uz u and p = p_prev + dt M_p^{-1} (F - B u).
K enters A only through one weight 1/(K_T |T|) per cell, so A keeps one
sparsity pattern.  The velocity is numbered as the DofMap numbers it, in
nested-dissection order, and a solver's first march lays A out once, as one
symmetric CSC matrix whose values an iterate refills with one sparse product
from the cell weights; SuperLU factors A as it is numbered.

The first solve of a march factors A.  Every later solve runs conjugate
gradients on the current A, preconditioned by that factorization and
warm-started from the extrapolated or the previous iterate's velocity.  CG
stops at a step-level accuracy, a residual _cg_rtol(picard_tol) times that
of u^{n-1} in the current system, so a better warm start saves iterations
rather than buying digits below rounding.  When CG misses that within
_CG_MAXITER iterations, A is factored afresh at the current K and solved
directly, and the new factorization serves the solves that follow.

run projects the exact initial data p0, s0 and u0 and drains steps, the
one marching loop, which a caller iterates for every level.  A march binds
its forcing to the fixed quadrature points once (see ForcingField), so a
step evaluates only t -> f(x, y, t).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .law import ForchheimerLaw, K_eval
from .mesh import TriMesh
from .spaces import (
    CellForms,
    DofMap,
    assemble_forms,
    build_dofmap,
    cell_points,
    hdiv_interpolate,
    l2_project_scalar,
    l2_project_vector,
    triangle_quadrature,
)

# CG stops once the residual is _cg_rtol(picard_tol) times the anchor's, the
# previous level's velocity in the current system: a stop relative to the
# right-hand side leaves rounding noise that breaks the decay to a steady
# state, one relative to the warm start asks a good start for digits below
# rounding.  The fraction follows the Picard tolerance, as Eisenstat-Walker
# forcing terms do (SIAM J. Sci. Comput. 17, 1996): two digits below it,
# within [_CG_RTOL_MIN, _CG_RTOL_MAX], so the default 1e-6 stops at 1e-8.
_CG_RTOL_MIN = 1e-12
_CG_RTOL_MAX = 1e-8
# CG iterations before the factorization is renewed at the current K.  As K
# drifts over a long run the stale LU needs more iterations; past about eight
# a fresh factorization costs less than the iterations it saves.
_CG_MAXITER = 8
# a double holds every whole step count only up to 2**53
_MAX_STEPS = 2.0**53

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]
VectorField = Callable[[np.ndarray, np.ndarray], np.ndarray]
# A forcing f(x, y, t), evaluated at the solver's quadrature points.  One
# that also has bind(x, y), returning t -> f(x, y, t) with the work that
# depends only on the points done once, is bound that way at the start of a
# march (ManufacturedSolution.f is one); any other binds as
# lambda t: f(x, y, t).  None stands for no forcing.
ForcingField = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


def _cg_rtol(picard_tol: float) -> float:
    """The CG stop, relative to the anchor's residual, for a Picard tolerance."""
    return min(max(1e-2 * picard_tol, _CG_RTOL_MIN), _CG_RTOL_MAX)


def _anderson_mix(
    g: np.ndarray, f: np.ndarray, g_prev: np.ndarray, f_prev: np.ndarray
) -> np.ndarray:
    """Depth-1 Anderson mix of a fixed-point iteration x -> G(x).

    g = G(x) and f = g - x are the current update and its residual, g_prev
    and f_prev the previous pair.  Returns g - gamma (g - g_prev), with gamma
    the least-squares fit of f by the residual difference f - f_prev, or g
    itself when the two residuals coincide.
    """
    df = f - f_prev
    dff = float(df @ df)
    if dff == 0.0:
        return g
    return g - (float(df @ f) / dff) * (g - g_prev)


def _extrapolate(levels: Sequence[np.ndarray]) -> np.ndarray:
    """The next time level of the polynomial through the given ones.

    levels holds the last one to four levels, oldest first; the result is
    the last level itself, 2 x^{n-1} - x^{n-2}, 3 (x^{n-1} - x^{n-2}) + x^{n-3}
    or 4 x^{n-1} - 6 x^{n-2} + 4 x^{n-3} - x^{n-4}, each summed from
    differences so that a constant history returns exactly.
    """
    if len(levels) == 4:
        x4, x3, x2, x1 = levels  # x^{n-4} .. x^{n-1}
        return 4.0 * (x1 - x2) + 2.0 * (x3 - x2) + (x3 - x4) + x3
    if len(levels) == 3:
        oldest, older, last = levels
        return 3.0 * (last - older) + oldest
    if len(levels) == 2:
        older, last = levels
        return 2.0 * last - older
    return levels[-1]


def _lay_out(
    mesh: TriMesh, local: CellForms, n: int, dt: float
) -> tuple[sp.csc_matrix, sp.csr_matrix, np.ndarray]:
    """The condensed matrix A of the n velocity dofs of the cell forms local,
    in their order, as one symmetric CSC matrix, and the map that refills it:
    A(kbar).data = fill @ (1 / (kbar |T|)) + fill_dt.

    Cell T adds w_T G_T + (dt/|T|) b_T b_T^T to the rows and columns of its
    interior edges, with w_T = 1/(K_T |T|), G_T the Gram matrix of the (u, z)
    moments and b_T the divergence row.  Two distinct edges share at most one
    cell, so an entry off the diagonal comes from one pair (k, l) of a cell's
    local edges and a diagonal entry from the two cells of its edge.  The map
    is laid out for those sources, the pairs k < l and then the diagonal, and
    its rows are taken once into the order of A's entries.
    """
    num_tris = mesh.num_triangles
    (m0, m1), div, dt_area = local.moments, local.div, dt / mesh.areas
    # the pairs k < l of local edges that are both interior
    k, l = np.array([0, 0, 1]), np.array([1, 2, 2])
    pairs = np.flatnonzero(((local.dofs[k] >= 0) & (local.dofs[l] >= 0)).ravel())
    rows, cols = local.dofs[k].ravel()[pairs], local.dofs[l].ravel()[pairs]
    # own[j] holds edge j's slots 3T + k in its cells edge_tris[:, 0] and [:, 1]
    inside = local.dofs.T >= 0
    own = np.empty((n, 2), dtype=np.int64)
    own[local.dofs.T[inside], (mesh.tri_edge_signs[inside] < 0).astype(np.intp)] = np.flatnonzero(inside)
    m0_own, m1_own, div_own = (x.T.ravel()[own] for x in (m0, m1, div))
    div_own = div_own**2 * dt_area[own // 3]
    # a source's row of the map holds its pair's cell, or its edge's two cells
    sources = sp.csr_matrix(
        (
            np.append((m0[k] * m0[l] + m1[k] * m1[l]).ravel()[pairs], (m0_own**2 + m1_own**2).ravel()),
            np.append(pairs % num_tris, own.ravel() // 3),
            np.append(np.arange(len(pairs)), len(pairs) + 2 * np.arange(n + 1)),
        ),
        shape=(len(pairs) + n, num_tris),
    )
    sources_dt = np.append((div[k] * div[l] * dt_area).ravel()[pairs], div_own[:, 0] + div_own[:, 1])
    # A's pattern, each entry holding its source until the first refill
    diagonal = np.arange(n)
    a = sp.csc_matrix(
        (
            np.append(np.tile(np.arange(len(pairs)), 2), len(pairs) + diagonal).astype(float),
            (np.concatenate((rows, cols, diagonal)), np.concatenate((cols, rows, diagonal))),
        ),
        shape=(n, n),
    )
    source = a.data.astype(np.int64)
    a.data[:] = 0.0
    return a, sources[source], sources_dt[source]


class PicardError(RuntimeError):
    """Nonlinear iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping and nonlinear-solve parameters.

    t_final must be an integer multiple of dt.  picard_tol is the relative
    max-norm tolerance on successive s iterates; on exit the residual of the
    frozen equation with the true nonlinearity is at most 10 * picard_tol
    (relative), enforced by the iteration.
    """

    dt: float
    t_final: float
    picard_tol: float = 1e-6
    picard_max: int = 25

    def __post_init__(self) -> None:
        # bool subclasses int, but True is no time, tolerance or count
        for name, kind in (("dt", numbers.Real), ("t_final", numbers.Real),
                           ("picard_tol", numbers.Real), ("picard_max", numbers.Integral)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {'a real number' if kind is numbers.Real else 'an integer'}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError("t_final must be nonnegative and finite")
        steps = self.t_final / self.dt
        if not steps <= _MAX_STEPS:
            raise ValueError(f"t_final / dt = {steps:.3g} steps, more than 2**53")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("t_final must be an integer multiple of dt")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError("picard_tol must be positive and finite")
        if self.picard_max < 1:
            raise ValueError("picard_max must be at least 1")

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
        self._local = assemble_forms(mesh, self.dofmap)
        self._b_div, m_uz = self._local.blocks(self.dofmap.n_rt0)
        # M_uz u and B_div u, for s and div u, from one product
        self._forms = sp.vstack((m_uz, self._b_div), format="csr")
        self._area2 = np.repeat(mesh.areas, 2)
        self._cg_rtol = _cg_rtol(config.picard_tol)
        self._lu = None

    @functools.cached_property
    def _system(self) -> tuple[sp.csc_matrix, sp.csr_matrix, np.ndarray]:
        """A and its refill map (see _lay_out), laid out at a solver's first
        march and kept; the cell forms serve nothing else and are let go."""
        local, self._local = self._local, None
        return _lay_out(self.mesh, local, self.dofmap.n_rt0, self.config.dt)

    def _loads(self, f: ForcingField | None) -> Callable[[float], np.ndarray]:
        """t -> the cell integrals of the forcing f at time t, with f bound
        to the quadrature points once."""
        if f is None:
            zero = np.zeros(self.mesh.num_triangles)
            return lambda t: zero
        points = cell_points(self.mesh, self.quadrature)
        x, y = points[..., 0], points[..., 1]
        bind = getattr(f, "bind", None)
        values = bind(x, y) if bind is not None else lambda t: f(x, y, t)
        areas, weights = self.mesh.areas, self.quadrature.weights
        return lambda t: areas * (np.asarray(values(t), dtype=float) @ weights)

    def initial_state(self, p0: ScalarField, s0: VectorField, u0: VectorField) -> DiscreteState:
        """Project the initial data onto the discrete spaces: p and s are cell
        averages of p0 and of the exact gradient s0, and u is the edge-flux
        interpolant of the exact velocity u0, for which a caller without one
        passes the constitutive flux -K_flux(law, s0(x, y)).
        """
        p = l2_project_scalar(self.mesh, p0, self.quadrature)
        s = l2_project_vector(self.mesh, s0, self.quadrature)
        u = hdiv_interpolate(self.mesh, self.dofmap, u0)
        return DiscreteState(p=p, s=s.reshape(-1, 2), u=u, t=0.0)

    def _solve_frozen(
        self,
        kbar: np.ndarray,
        p_hat: np.ndarray,
        rhs: np.ndarray,
        u_guess: np.ndarray,
        u_anchor: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve one frozen-conductivity block system; returns (p, s_flat, u).

        p_hat is p_prev + dt M_p^{-1} F and rhs = B^T p_hat.  Refills
        A(kbar); CG from u_guess stops at the config's CG tolerance times
        u_anchor's residual, and a missing LU or a CG miss factors A here.
        """
        areas = self.mesh.areas
        a, fill, fill_dt = self._system
        np.add(fill @ (1.0 / (kbar * areas)), fill_dt, out=a.data)
        u = None if self._lu is None else self._pcg(rhs, u_guess, u_anchor)
        if u is None:
            # A is symmetric positive definite, so diagonal pivots are stable, as
            # in Cholesky, and keep the planned fill without a threshold search
            self._lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0)
            u = self._lu.solve(rhs)
        forms, split = self._forms @ u, len(self._area2)
        s_flat = -forms[:split] / (np.repeat(kbar, 2) * self._area2)
        p = p_hat - self.config.dt * forms[split:] / areas
        # a non-finite u shows in s
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s_flat))):
            raise RuntimeError("frozen-coefficient linear system produced non-finite values")
        return p, s_flat, u

    def _pcg(self, rhs: np.ndarray, u: np.ndarray, anchor: np.ndarray) -> np.ndarray | None:
        """CG on the current A from u, preconditioned by the stored LU.

        Stops at _cg_rtol(picard_tol) times the residual of anchor, or of u
        when anchor solves the system exactly, returning u itself when it
        meets that target, and None when _CG_MAXITER iterations miss it.
        """
        a = self._system[0]
        r = rhs - a @ u
        r_norm = np.linalg.norm(r)
        tol = self._cg_rtol * (np.linalg.norm(rhs - a @ anchor) or r_norm)
        if r_norm <= tol:
            return u
        u = u.copy()
        z = self._lu.solve(r)
        d = z
        rz = r @ z
        for _ in range(_CG_MAXITER):
            ad = a @ d
            alpha = rz / (d @ ad)
            u += alpha * d
            r -= alpha * ad
            if np.linalg.norm(r) <= tol:
                return u
            z = self._lu.solve(r)
            rz, rz_prev = r @ z, rz
            d = z + (rz / rz_prev) * d
        return None

    def _advance(
        self,
        levels: Sequence[DiscreteState],
        t_n: float,
        load: np.ndarray,
    ) -> tuple[DiscreteState, int, float, float]:
        """One backward Euler step with accelerated Picard resolution of K(|s|).

        levels are the last one to four time levels, oldest first, and load
        holds the cell integrals of f^n.  The first kbar is K at the
        extrapolation of s through the last three levels, the first warm
        start that of u through all.  Returns the new level, its Picard
        count, its mass residual |int(p^n) - int(p^{n-1}) - dt int(f^n)|,
        identically small, and int(f^n).
        """
        cfg = self.config
        areas = self.mesh.areas
        state_prev = levels[-1]
        s_iter = state_prev.s.reshape(-1)
        p_hat = state_prev.p + cfg.dt * load / areas
        rhs = self._b_div.T @ p_hat
        u = _extrapolate([level.u for level in levels])
        s_start = _extrapolate([level.s for level in levels[-3:]]).reshape(-1)
        # |s| per cell, bit for bit np.linalg.norm(axis=1) at a fraction of its cost
        kbar = K_eval(self.law, np.sqrt(s_start[0::2] ** 2 + s_start[1::2] ** 2))
        k_prev = f_prev = None
        residual = np.inf
        for iteration in range(1, int(cfg.picard_max) + 1):
            p, s_flat, u = self._solve_frozen(kbar, p_hat, rhs, u, state_prev.u)
            s_new = s_flat.reshape(-1, 2)
            k_new = K_eval(self.law, np.sqrt(s_flat[0::2] ** 2 + s_flat[1::2] ** 2))
            update = k_new - kbar
            residual = float(np.max(np.abs(update[:, None] * s_new), initial=0.0))
            increment = float(np.max(np.abs(s_flat - s_iter), initial=0.0))
            scale = 1.0 + float(np.max(np.abs(s_flat), initial=0.0))
            s_iter = s_flat
            if residual <= 0.1 * cfg.picard_tol * scale:
                break
            if increment <= cfg.picard_tol * scale and residual <= 10.0 * cfg.picard_tol * scale:
                break
            kbar = k_new
            if f_prev is not None:
                mixed = _anderson_mix(k_new, update, k_prev, f_prev)
                if np.all(np.isfinite(mixed) & (mixed > 0.0)):
                    kbar = mixed
            k_prev, f_prev = k_new, update
        else:
            raise PicardError(
                f"Picard iteration did not converge in {cfg.picard_max} iterations "
                f"(last residual {residual:.3e})",
                residual=residual,
            )
        mass_residual = float(abs(areas @ p - areas @ state_prev.p - cfg.dt * load.sum()))
        state = DiscreteState(p=p, s=s_new, u=u, t=t_n)
        return state, iteration, mass_residual, float(load.sum())

    def steps(
        self, state0: DiscreteState, f: ForcingField | None
    ) -> Iterator[tuple[DiscreteState, int, float, float]]:
        """March from the level state0 at t=0 to t_final, one step per item.

        Yields (state, picard_iters, mass_residual, f_integral) for each
        step.  The march binds the forcing f (see ForcingField) to the
        quadrature points once, factors afresh on its first solve, and
        keeps the last four levels, which each step extrapolates from.
        """
        cfg = self.config
        self._lu = None
        _ = self._system  # before the forcing binds, to reuse the layout's scratch memory
        loads = self._loads(f)
        times = np.linspace(0.0, cfg.t_final, cfg.num_steps + 1)
        # the levels a step extrapolates from; s^0 projects exact data and
        # is no discrete solution, so it is used only by the first step
        history: deque[DiscreteState] = deque(maxlen=4)
        for t_n in times[1:].tolist():
            step = self._advance(list(history) or [state0], t_n, loads(t_n))
            history.append(step[0])
            yield step

    def run(
        self, f: ForcingField | None, p0: ScalarField, s0: VectorField, u0: VectorField
    ) -> RunResult:
        """March from the projections of p0, s0 and u0 to t_final by draining
        steps, under the forcing f: None, a callable f(x, y, t), or one that
        also binds to points (see ForcingField)."""
        state = self.initial_state(p0, s0, u0)
        picard_iters: list[int] = []
        mass_residuals: list[float] = []
        f_integrals: list[float] = []
        for state, iterations, mass_residual, f_integral in self.steps(state, f):
            picard_iters.append(iterations)
            mass_residuals.append(mass_residual)
            f_integrals.append(f_integral)
        return RunResult(state, picard_iters, mass_residuals, f_integrals)
