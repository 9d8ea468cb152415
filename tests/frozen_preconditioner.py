"""The solver preconditioned as it was before it factored its Jacobian, the
tests' reference for the numbers that the change of preconditioner moved."""

from __future__ import annotations

import numpy as np

import forchmix.solver as solver_module
from forchmix import ExpandedMixedSolver


class FrozenPreconditionedSolver(ExpandedMixedSolver):
    """ExpandedMixedSolver whose factorizations are of the frozen-K matrix
    A(1/g) = F^T diag(g/|T|, g/|T|, dt/|T|) F at the iterate's g, in place
    of the Jacobian J, whose spectrum is within [1, 1 + alpha_N] of A's.
    With forchmix.solver._CG_STALE_BUDGET set to infinity, so that only a CG
    miss renews the factor, its marches are the earlier solver's."""

    def _refill_jacobian(self, v, r, g, slope) -> None:
        self._g = g
        super()._refill_jacobian(v, r, g, slope)

    def _factor(self) -> None:
        weights = self._g / self.mesh.areas
        scaled = self._forms.copy()
        rows = np.concatenate((weights, weights, self._dt_areas))
        scaled.data *= np.repeat(rows, np.diff(scaled.indptr))
        self._lu = solver_module.splu(self._forms_t @ scaled, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self._stale_iterations = 0
