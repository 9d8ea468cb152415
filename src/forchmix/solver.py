"""Backward Euler time stepping for the expanded mixed scheme.

Each time step solves the nonlinear system

    (1/dt) M_p p + B_div u            = (1/dt) M_p p_prev + F
              M_sz(K) s + M_uz u      = 0
    C_pv p + C_sv s                   = 0

by a Picard iteration on the cellwise conductivity: with K frozen at a
cellwise constant kbar the block system is linear and symmetric, and its
solution s gives the update K(|s|).  A step starts from its history: the
first kbar is K at the quadratic extrapolation in time
3 s^{n-1} - 3 s^{n-2} + s^{n-3} from the fourth step on, at the linear one
2 s^{n-1} - s^{n-2} on the third, and at s^{n-1} on the first two, since s^0
projects exact data and is no discrete solution.  The same extrapolation of
u is the first warm start of the velocity solve.  Later kbar are
the depth-1 Anderson mix of the last two updates (Walker & Ni, SIAM J. Numer.
Anal. 49, 2011), or the plain update K(|s|) when the mix is not a positive,
finite conductivity.  The stopping tests measure the residual of the kbar
each solve used, so the limit is plain Picard's to within the tolerance.
The sign convention is u = -K(|s|) s throughout.

Both mass blocks are diagonal, so s and p are eliminated exactly, leaving
the symmetric positive definite velocity system

    A(K) u = (M_uz^T M_sz(K)^{-1} M_uz + dt B^T M_p^{-1} B) u
           = B^T (p_prev + dt M_p^{-1} F)

after which s = -M_sz^{-1} M_uz u and p = p_prev + dt M_p^{-1} (F - B u).
K enters A only through one weight 1/(K_T |T|) per cell, so A keeps one
sparsity pattern: its diagonal and strict upper triangle are laid out once
from per-cell 3x3 blocks, and each iterate only refills their values.

The first solve of a march factors A.  Every later solve runs conjugate
gradients on the current A, preconditioned by that factorization and
warm-started from the extrapolated or the previous iterate's velocity.  CG
stops at a step-level accuracy: a residual 1e-12 times that of u^{n-1} in
the current system, so a better warm start saves iterations rather than
buying digits below rounding.  When CG misses that within _CG_MAXITER
iterations, A is factored afresh at the current K and solved directly, and
the new factorization serves the solves that follow.

run projects the exact initial data p0, s0 and u0 and drains steps, the
one marching loop, which a caller iterates for every level.
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

from .law import ForchheimerLaw, K_eval
from .mesh import TriMesh
# assemble_forms is not called here but stays importable from this module:
# perfbench/spans.py traces the assembly layer through it.
from .spaces import (  # noqa: F401
    CellForms,
    DofMap,
    assemble_forms,
    build_dofmap,
    cell_forms,
    cell_points,
    hdiv_interpolate,
    l2_project_scalar,
    l2_project_vector,
    triangle_quadrature,
)

# Preconditioned CG on the condensed system stops once the residual is this
# fraction of the anchor's: the previous level's velocity in the current
# system, which measures how far the step moves the solution.  A stop
# relative to the right-hand side instead leaves rounding-level noise in the
# iterates, enough to break the decay of a run approaching a steady state; a
# stop relative to the warm start's own residual asks a good warm start for
# digits below rounding.
_CG_RTOL = 1e-12
# CG iterations before the factorization is renewed at the current K.  As K
# drifts over a long run the stale LU needs more iterations; past about eight
# a fresh factorization costs less than the iterations it saves.
_CG_MAXITER = 8
# a double holds every whole step count only up to 2**53
_MAX_STEPS = 2.0**53

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]
VectorField = Callable[[np.ndarray, np.ndarray], np.ndarray]
ForcingField = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


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

    levels holds the last one, two or three levels, oldest first; the result
    is the last level itself, 2 x^{n-1} - x^{n-2}, or
    3 (x^{n-1} - x^{n-2}) + x^{n-3}, which all return a constant history
    exactly.
    """
    if len(levels) == 3:
        oldest, older, last = levels
        return 3.0 * (last - older) + oldest
    if len(levels) == 2:
        older, last = levels
        return 2.0 * last - older
    return levels[-1]


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
                           ("picard_tol", numbers.Real), ("picard_max", int)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {'an integer' if kind is int else 'a real number'}")
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
        local = cell_forms(mesh, self.dofmap)
        self._b_div, self._m_uz = local.blocks(self.dofmap.n_rt0)
        self._area2 = np.repeat(mesh.areas, 2)
        self._qpoints = cell_points(mesh, self.quadrature)
        self._build_pattern(local)
        self._lu = None

    def _build_pattern(self, local: CellForms) -> None:
        """Fix the sparsity pattern of the condensed matrix A and maps into it.

        Cell T adds w_T G_T + (dt/|T|) b_T b_T^T to the rows and columns of
        its interior edges, with w_T = 1/(K_T |T|), G_T the Gram matrix of
        the (u, z) moments and b_T the divergence row.  A is symmetric, and
        two distinct edges share at most one cell, so A is kept as its
        diagonal plus a CSR strict upper triangle each of whose entries
        comes from one cell.  A sparse map per part takes w to its values.
        """
        n = self.dofmap.n_rt0
        num_tris = self.mesh.num_triangles
        dt_area = self.config.dt / self.mesh.areas
        m0, m1 = local.moments
        # the three pairs (k, l), k < l, of local edges
        k, l = np.array([0, 0, 1]), np.array([1, 2, 2])
        rows = np.minimum(local.dofs[k], local.dofs[l])
        cols = np.maximum(local.dofs[k], local.dofs[l])
        # a negative row marks a pair with a boundary edge
        keys = np.where(rows >= 0, rows * n + cols, -1).ravel()
        # cells are numbered along the mesh, so the keys arrive in long
        # sorted runs, which the stable sort (timsort) exploits
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        interior = slice(np.searchsorted(keys, 0), None)
        keys, order = keys[interior], order[interior]
        indptr = np.searchsorted(keys, n * np.arange(n + 1))
        self._upper = sp.csr_matrix((np.zeros(len(keys)), keys % n, indptr), shape=(n, n))
        # a transposed view: refilling _upper.data in place refills it too
        self._lower = self._upper.T
        gram = (m0[k] * m0[l] + m1[k] * m1[l]).ravel()[order]
        self._upper_map = sp.csr_matrix(
            (gram, order % num_tris, np.arange(len(keys) + 1)), shape=(len(keys), num_tris)
        )
        self._upper_dt = (local.div[k] * local.div[l] * dt_area).ravel()[order]
        edge, cell = np.nonzero(local.dofs >= 0)
        dofs = local.dofs[edge, cell]
        self._diag_map = sp.csr_matrix(
            ((m0**2 + m1**2)[edge, cell], (dofs, cell)), shape=(n, num_tris)
        )
        self._diag_dt = np.bincount(
            dofs, weights=(local.div**2 * dt_area)[edge, cell], minlength=n
        )
        self._diag = np.zeros(n)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        """A u from the stored diagonal and strict upper triangle."""
        return self._upper @ u + self._lower @ u + self._diag * u

    def _load_vector(self, f: ForcingField | None, t: float) -> np.ndarray:
        """Cell integrals of the forcing at time t."""
        if f is None:
            return np.zeros(self.mesh.num_triangles)
        x, y = self._qpoints[..., 0], self._qpoints[..., 1]
        values = np.asarray(f(x, y, t), dtype=float)
        return self.mesh.areas * (values @ self.quadrature.weights)

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
        p_prev: np.ndarray,
        load: np.ndarray,
        u_guess: np.ndarray,
        u_anchor: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve one frozen-conductivity block system; returns (p, s_flat, u).

        Fills A(kbar) on the pattern; CG from u_guess stops at _CG_RTOL times
        u_anchor's residual, and a missing LU or a CG miss factors A here.
        """
        areas = self.mesh.areas
        dt = self.config.dt
        weights = 1.0 / (kbar * areas)
        self._upper.data[:] = self._upper_map @ weights + self._upper_dt
        self._diag = self._diag_map @ weights + self._diag_dt
        p_hat = p_prev + dt * load / areas
        rhs = self._b_div.T @ p_hat
        u = None if self._lu is None else self._pcg(rhs, u_guess, u_anchor)
        if u is None:
            a = (self._upper + self._lower + sp.diags(self._diag)).tocsc()
            self._lu = splu(a, permc_spec="MMD_AT_PLUS_A")
            u = self._lu.solve(rhs)
        mk = np.repeat(kbar, 2) * self._area2
        s_flat = -(self._m_uz @ u) / mk
        p = p_hat - dt * (self._b_div @ u) / areas
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s_flat)) and np.all(np.isfinite(u))):
            raise RuntimeError("frozen-coefficient linear system produced non-finite values")
        return p, s_flat, u

    def _pcg(self, rhs: np.ndarray, u: np.ndarray, anchor: np.ndarray) -> np.ndarray | None:
        """CG on the current A from u, preconditioned by the stored LU.

        Stops at _CG_RTOL times the residual of anchor, or of u itself when
        anchor solves the system exactly, so a zero target is never asked
        for; u is returned as it is when it already meets the target.
        Returns None when the residual has not fallen to the target within
        _CG_MAXITER iterations.
        """
        r = rhs - self._apply(u)
        r_norm = np.linalg.norm(r)
        tol = _CG_RTOL * (np.linalg.norm(rhs - self._apply(anchor)) or r_norm)
        if r_norm <= tol:
            return u
        u = u.copy()
        z = self._lu.solve(r)
        d = z
        rz = r @ z
        for _ in range(_CG_MAXITER):
            ad = self._apply(d)
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
        f: ForcingField | None,
    ) -> tuple[DiscreteState, int, float, float]:
        """One backward Euler step with accelerated Picard resolution of K(|s|).

        levels are the last one to three time levels, oldest first, the
        previous level last.  The first kbar is K at their extrapolation of
        s and the first warm start their extrapolation of u; every velocity
        solve of the step stops relative to the previous level's residual.
        Returns the new level, its Picard count, its mass residual
        |int(p^n) - int(p^{n-1}) - dt int(f^n)|, identically small, and int(f^n).
        """
        cfg = self.config
        state_prev = levels[-1]
        load = self._load_vector(f, t_n)
        s_iter = state_prev.s.reshape(-1)
        u = _extrapolate([level.u for level in levels])
        s_start = _extrapolate([level.s for level in levels])
        kbar = K_eval(self.law, np.linalg.norm(s_start, axis=1))
        k_prev = f_prev = None
        residual = np.inf
        for iteration in range(1, cfg.picard_max + 1):
            p, s_flat, u = self._solve_frozen(kbar, state_prev.p, load, u, state_prev.u)
            s_new = s_flat.reshape(-1, 2)
            k_new = K_eval(self.law, np.linalg.norm(s_new, axis=1))
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
        areas = self.mesh.areas
        mass_residual = float(abs(areas @ p - areas @ state_prev.p - cfg.dt * load.sum()))
        return DiscreteState(p=p, s=s_new, u=u, t=t_n), iteration, mass_residual, float(load.sum())

    def steps(
        self, state0: DiscreteState, f: ForcingField | None
    ) -> Iterator[tuple[DiscreteState, int, float, float]]:
        """March from the level state0 at t=0 to t_final, one step per item.

        Yields (state, picard_iters, mass_residual, f_integral) for each
        step.  The march factors afresh on its first solve, and each step
        starts from the extrapolation of the levels before it.
        """
        cfg = self.config
        self._lu = None
        times = np.linspace(0.0, cfg.t_final, cfg.num_steps + 1)
        # the levels a step extrapolates from; s^0 projects exact data and
        # is no discrete solution, so it is used only by the first step
        history: deque[DiscreteState] = deque(maxlen=3)
        for t_n in times[1:]:
            step = self._advance(list(history) or [state0], float(t_n), f)
            history.append(step[0])
            yield step

    def run(
        self, f: ForcingField | None, p0: ScalarField, s0: VectorField, u0: VectorField
    ) -> RunResult:
        """March from the projections of p0, s0 and u0 to t_final by draining steps."""
        state = self.initial_state(p0, s0, u0)
        picard_iters: list[int] = []
        mass_residuals: list[float] = []
        f_integrals: list[float] = []
        for state, iterations, mass_residual, f_integral in self.steps(state, f):
            picard_iters.append(iterations)
            mass_residuals.append(mass_residual)
            f_integrals.append(f_integral)
        return RunResult(state, picard_iters, mass_residuals, f_integrals)
