"""Expanded mixed finite elements for slightly compressible Forchheimer flow.

The package discretizes the degenerate parabolic system

    p_t + div(u) = f,      s = grad(p),      u = -K(|s|) s

on the unit square with lowest-order Raviart-Thomas velocities and
piecewise-constant pressure and gradient fields, advances it with backward
Euler plus Newton's method on the law written in the velocity, and verifies
the discretization against a manufactured solution.
"""

from .law import ForchheimerLaw, RootSolveError, law_from_string
from .mesh import TriMesh, unit_square_mesh
from .mms import ConvergenceReport, ManufacturedSolution, convergence_study, error_norms
from .solver import DiscreteState, ExpandedMixedSolver, PicardError, RunResult, SolverConfig
from .spaces import DofMap

__all__ = [
    "ConvergenceReport",
    "DiscreteState",
    "DofMap",
    "ExpandedMixedSolver",
    "ForchheimerLaw",
    "ManufacturedSolution",
    "PicardError",
    "RootSolveError",
    "RunResult",
    "SolverConfig",
    "TriMesh",
    "convergence_study",
    "error_norms",
    "law_from_string",
    "unit_square_mesh",
]
