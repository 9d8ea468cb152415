"""Shared fixtures; the expensive convergence runs execute once per session."""

from __future__ import annotations

import pytest
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
    small = convergence_study(
        law, [4, 8], dt="h2", dt_cap=float("inf"), keep_runs=False
    )
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
def decay_run(law: ForchheimerLaw, mms: ManufacturedSolution) -> RunResult:
    """Unforced (f = 0) run on n=16 over 100 steps."""
    mesh = unit_square_mesh(16)
    solver = ExpandedMixedSolver(mesh, law, SolverConfig(dt=1e-2, t_final=1.0))
    return solver.run(None, mms.p0, mms.s0, mms.u0)
