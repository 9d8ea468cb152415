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

The first solve of a run factors A.  Every later solve runs conjugate
gradients on the current A, preconditioned by that factorization and
warm-started from the extrapolated or the previous iterate's velocity.  CG
stops at a step-level accuracy: a residual 1e-12 times that of u^{n-1} in
the current system, so a better warm start saves iterations rather than
buying digits below rounding.  When CG misses that within _CG_MAXITER
iterations, A is factored afresh at the current K and solved directly, and
the new factorization serves the solves that follow.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
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
    QuadratureRule,
    assemble_forms,
    build_dofmap,
    cell_forms,
    cell_points,
    hdiv_interpolate,
    l2_project_scalar,
    l2_project_vector,
    triangle_quadrature,
)

# The flux law every part of the scheme assumes; it is fixed, not an option.
SIGN_CONVENTION = "u = -K(|s|) s"

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
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError("t_final must be nonnegative and finite")
        steps = self.t_final / self.dt
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

    picard_iters[n], mass_residuals[n], f_integrals[n] and
    picard_increments[n] describe step n+1; p_norms has one entry per time
    level including t=0.  states is populated only when requested.
    """

    state: DiscreteState
    times: np.ndarray
    picard_iters: list[int]
    mass_residuals: list[float]
    f_integrals: list[float]
    p_norms: list[float]
    picard_increments: list[tuple[float, ...]]
    states: list[DiscreteState] | None = None


class ExpandedMixedSolver:
    """Assembles the scheme on a fixed mesh and law and advances it in time."""

    def __init__(
        self,
        mesh: TriMesh,
        law: ForchheimerLaw,
        config: SolverConfig,
        quadrature: QuadratureRule | None = None,
    ) -> None:
        self.mesh = mesh
        self.law = law
        self.config = config
        self.quadrature = quadrature or triangle_quadrature(4)
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

    def initial_state(
        self,
        p0: ScalarField,
        s0: VectorField,
        u0: VectorField | None = None,
    ) -> DiscreteState:
        """Project the initial data onto the discrete spaces.

        p and s are cell averages of p0 and of the supplied exact gradient
        s0.  When the exact initial velocity u0 is available its edge-flux
        interpolant is used; otherwise u solves the gradient and flux
        equations of the scheme at t=0 with conductivity frozen at K(|s|).
        """
        p = l2_project_scalar(self.mesh, p0, self.quadrature)
        s = l2_project_vector(self.mesh, s0, self.quadrature)
        if u0 is not None:
            u = hdiv_interpolate(self.mesh, self.dofmap, u0)
        else:
            kbar = K_eval(self.law, np.linalg.norm(s, axis=1))
            forms = assemble_forms(self.mesh, self.dofmap, kbar)
            saddle = sp.bmat([[forms.M_sz, forms.M_uz], [forms.C_sv, None]], format="csc")
            rhs = np.concatenate([np.zeros(self.dofmap.n_s), -(forms.C_pv @ p)])
            solution = splu(saddle).solve(rhs)
            u = solution[self.dofmap.n_s :]
            if not np.all(np.isfinite(u)):
                raise RuntimeError("initial velocity solve produced non-finite values")
        return DiscreteState(p=p, s=s.reshape(-1, 2), u=u, t=0.0)

    def _solve_frozen(
        self,
        kbar: np.ndarray,
        p_prev: np.ndarray,
        load: np.ndarray,
        u_guess: np.ndarray,
        u_anchor: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve one frozen-conductivity block system; returns (p, s_flat, u).

        u_guess warm-starts CG, which stops at _CG_RTOL times the residual of
        u_anchor in this system; without an anchor that is the warm start's.
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

    def _pcg(
        self, rhs: np.ndarray, u: np.ndarray, anchor: np.ndarray | None
    ) -> np.ndarray | None:
        """CG on the current A from u, preconditioned by the stored LU.

        Stops at _CG_RTOL times the residual of anchor, or of u itself when
        anchor is None or solves the system exactly, so a zero target is
        never asked for; u is returned as it is when it already meets the
        target.  Returns None when the residual has not fallen to the target
        within _CG_MAXITER iterations.
        """
        r = rhs - self._apply(u)
        r_norm = np.linalg.norm(r)
        anchor_norm = r_norm if anchor is None else np.linalg.norm(rhs - self._apply(anchor))
        tol = _CG_RTOL * (anchor_norm or r_norm)
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
    ) -> tuple[DiscreteState, int, dict]:
        """One backward Euler step with accelerated Picard resolution of K(|s|).

        levels are the last one to three time levels, oldest first, the
        previous level last.  The first kbar is K at their extrapolation of
        s and the first warm start their extrapolation of u; every velocity
        solve of the step stops relative to the previous level's residual.
        """
        cfg = self.config
        dt = cfg.dt
        state_prev = levels[-1]
        load = self._load_vector(f, t_n)
        s_iter = state_prev.s.reshape(-1)
        u = _extrapolate([level.u for level in levels])
        s_start = _extrapolate([level.s for level in levels])
        kbar = K_eval(self.law, np.linalg.norm(s_start, axis=1))
        k_prev = f_prev = None
        increments: list[float] = []
        residual = np.inf
        for iteration in range(1, cfg.picard_max + 1):
            p, s_flat, u = self._solve_frozen(kbar, state_prev.p, load, u, state_prev.u)
            s_new = s_flat.reshape(-1, 2)
            k_new = K_eval(self.law, np.linalg.norm(s_new, axis=1))
            update = k_new - kbar
            residual = float(np.max(np.abs(update[:, None] * s_new), initial=0.0))
            increment = float(np.max(np.abs(s_flat - s_iter), initial=0.0))
            increments.append(increment)
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
        state = DiscreteState(p=p, s=s_new, u=u, t=t_n)
        diagnostics = {
            "mass_residual": self._mass_residual(state_prev.p, p, load, dt),
            "f_integral": float(load.sum()),
            "increments": tuple(increments),
        }
        return state, iteration, diagnostics

    def _mass_residual(
        self, p_prev: np.ndarray, p: np.ndarray, load: np.ndarray, dt: float
    ) -> float:
        """|int(p^n) - int(p^{n-1}) - dt int(f^n)|, identically small."""
        areas = self.mesh.areas
        return float(abs(areas @ p - areas @ p_prev - dt * load.sum()))

    def picard_step(
        self,
        state_prev: DiscreteState,
        t_n: float,
        f: ForcingField | None = None,
    ) -> tuple[DiscreteState, int]:
        """Advance one step to time t_n; returns the state and the Picard count.

        The step starts from K(|s^{n-1}|) and the warm start u^{n-1}, with no
        extrapolation in time, so a run marched by hand takes more iterates
        than run and ends within the Picard tolerance of it, not at the same
        iterates.
        """
        state, iterations, _ = self._advance([state_prev], t_n, f)
        return state, iterations

    def run(
        self,
        f: ForcingField | None,
        p0: ScalarField,
        s0: VectorField,
        u0: VectorField | None = None,
        store_states: bool = False,
    ) -> RunResult:
        """March from t=0 to t_final, collecting per-step diagnostics."""
        cfg = self.config
        num_steps = cfg.num_steps
        self._lu = None
        times = np.linspace(0.0, cfg.t_final, num_steps + 1)
        state = self.initial_state(p0, s0, u0)
        areas = self.mesh.areas
        p_norms = [float(np.sqrt(areas @ state.p**2))]
        picard_iters: list[int] = []
        mass_residuals: list[float] = []
        f_integrals: list[float] = []
        picard_increments: list[tuple[float, ...]] = []
        states = [state] if store_states else None
        # the levels a step extrapolates from; s^0 projects exact data and
        # is no discrete solution, so it is used only by the first step
        history: deque[DiscreteState] = deque(maxlen=3)
        for n in range(1, num_steps + 1):
            levels = list(history) or [state]
            state, iterations, diagnostics = self._advance(levels, float(times[n]), f)
            history.append(state)
            picard_iters.append(iterations)
            mass_residuals.append(diagnostics["mass_residual"])
            f_integrals.append(diagnostics["f_integral"])
            picard_increments.append(diagnostics["increments"])
            p_norms.append(float(np.sqrt(areas @ state.p**2)))
            if states is not None:
                states.append(state)
        return RunResult(
            state=state,
            times=times,
            picard_iters=picard_iters,
            mass_residuals=mass_residuals,
            f_integrals=f_integrals,
            p_norms=p_norms,
            picard_increments=picard_increments,
            states=states,
        )
