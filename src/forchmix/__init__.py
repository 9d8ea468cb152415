"""Expanded mixed finite elements for slightly compressible Forchheimer flow.

The package discretizes the degenerate parabolic system

    p_t + div(u) = f,      s = grad(p),      u = -K(|s|) s

on the unit square with lowest-order Raviart-Thomas velocities and
piecewise-constant pressure and gradient fields, advances it with backward
Euler plus a Picard linearization of the conductivity K, and verifies the
discretization against a manufactured solution.
"""

from .law import (
    DegeneracyExponents,
    ForchheimerLaw,
    H_eval,
    K_eval,
    K_flux,
    K_prime,
    RootSolveError,
    degeneracy_exponents,
    g_eval,
    law_from_string,
    solve_s_of_xi,
)
from .mesh import TriMesh, unit_square_mesh
from .mms import (
    ConvergenceReport,
    ManufacturedSolution,
    MeshRun,
    ReportRow,
    convergence_rate,
    convergence_study,
    error_norms,
    forcing_f,
)
from .solver import (
    DiscreteState,
    ExpandedMixedSolver,
    PicardError,
    RunResult,
    SolverConfig,
)
from .spaces import (
    DofMap,
    FormBlocks,
    QuadratureRule,
    assemble_forms,
    build_dofmap,
    hdiv_interpolate,
    l2_project_scalar,
    l2_project_vector,
    rt0_div,
    rt0_eval,
    triangle_quadrature,
)

__all__ = [
    "ConvergenceReport",
    "DegeneracyExponents",
    "DiscreteState",
    "DofMap",
    "ExpandedMixedSolver",
    "ForchheimerLaw",
    "FormBlocks",
    "H_eval",
    "K_eval",
    "K_flux",
    "K_prime",
    "ManufacturedSolution",
    "MeshRun",
    "PicardError",
    "QuadratureRule",
    "ReportRow",
    "RootSolveError",
    "RunResult",
    "SolverConfig",
    "TriMesh",
    "assemble_forms",
    "build_dofmap",
    "convergence_rate",
    "convergence_study",
    "degeneracy_exponents",
    "error_norms",
    "forcing_f",
    "g_eval",
    "hdiv_interpolate",
    "l2_project_scalar",
    "l2_project_vector",
    "law_from_string",
    "rt0_div",
    "rt0_eval",
    "solve_s_of_xi",
    "triangle_quadrature",
    "unit_square_mesh",
]
