"""Shared fixtures; the expensive convergence runs execute once per session."""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as perfbench/run.py runs the program.  Set before
# anything imports numpy: the thread pools read these once, at load time.
for _name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings

from forchmix import (
    ConvergenceReport,
    ExpandedMixedSolver,
    ForchheimerLaw,
    RunResult,
    SolverConfig,
    convergence_study,
    unit_square_mesh,
)
from forchmix.mms import ManufacturedSolution, error_norms

# Property tests draw the same examples on every run and keep no database, so
# tier-1 stays reproducible and its wall time bounded.
settings.register_profile(
    "forchmix", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("forchmix")


@pytest.fixture(scope="session")
def law() -> ForchheimerLaw:
    return ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0, 1.0))


@pytest.fixture(scope="session")
def mms(law: ForchheimerLaw) -> ManufacturedSolution:
    return ManufacturedSolution(law)


@pytest.fixture(scope="session")
def capped_report(law: ForchheimerLaw) -> ConvergenceReport:
    """The default study: dt = min(1e-2, h^2), meshes 4 through 64."""
    return convergence_study(law, [4, 8, 16, 32, 64])


@pytest.fixture(scope="session")
def uncapped_errors(
    law: ForchheimerLaw, capped_report: ConvergenceReport
) -> list[tuple[int, float, float, float, float]]:
    """(n, h, err_p, err_s, err_u) rows of the pure dt = h^2 study.

    The cap is inactive for n >= 16 (h^2 < 1e-2 there), so those rows are
    identical to the capped study and are reused; only n = 4, 8 rerun.
    """
    small = convergence_study(law, [4, 8], dt="h2", dt_cap=float("inf"))
    rows = list(small.rows) + list(capped_report.rows[2:])
    return [(row.n, row.h, row.err_p, row.err_s, row.err_u) for row in rows]


@pytest.fixture(scope="session")
def coarse_run(
    law: ForchheimerLaw, mms: ManufacturedSolution
) -> tuple[RunResult, tuple[float, float, float]]:
    """Two-step n=4 run at dt = 0.5 plus its final-time error norms."""
    mesh = unit_square_mesh(4)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=0.5, t_final=1.0))
    result = solver.run(mms.f, mms.p0, mms.s0, mms.u0)
    errors = error_norms(mesh, solver.dofmap, result.state, mms)
    return result, errors


@pytest.fixture(scope="session")
def decay_run(law: ForchheimerLaw, mms: ManufacturedSolution) -> tuple[np.ndarray, list[int]]:
    """Unforced (f = 0) march on n=16 over 100 steps: the pressure L2 norm
    of every level from t=0 on, and the Picard count of every step."""
    mesh = unit_square_mesh(16)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=1e-2, t_final=1.0))
    state = solver.initial_state(mms.p0, mms.s0, mms.u0)
    norms, picard_iters = [np.sqrt(mesh.areas @ state.p**2)], []
    for state, iterations, _, _ in solver.steps(state, None):
        norms.append(np.sqrt(mesh.areas @ state.p**2))
        picard_iters.append(iterations)
    return np.asarray(norms), picard_iters
