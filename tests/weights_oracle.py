"""The Jacobian's cell operator W as it was first stored, one 3N x 3N
dia_array on the rows of the stacked forms [M_x; M_y; B_div]: the tests'
byte-level reference for the solver's per-cell planes of W, its blockwise
products W (F d) and its matrix W F."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from forchmix import TriMesh


def cell_weights(
    mesh: TriMesh, dt: float, v: np.ndarray, r: np.ndarray, g: np.ndarray, slope: np.ndarray
) -> sp.dia_array:
    """W at the law's cell data (v, |v|, g, slope): of N cells, cell T's
    2x2 block D_T / |T| = (g I + (slope - g) v^ v^^T) / |T|, v^ = v / |v|
    (0 where v = 0), sits on rows T and N + T, on the diagonals of offsets
    0, -N and +N, and row 2N + T holds dt / |T|."""
    areas, cells = mesh.areas, mesh.num_triangles
    weights = sp.dia_array((np.zeros((3, 3 * cells)), [0, -cells, cells]), shape=(3 * cells, 3 * cells))
    data = weights.data
    data[0, 2 * cells :] = dt / areas
    unit = np.divide(v, r, out=np.zeros_like(v), where=r > 0.0)
    bend = (slope - g) / areas
    data[0, : v.size].reshape(v.shape)[...] = g / areas + bend * unit**2
    data[1, :cells] = data[2, cells : 2 * cells] = bend * unit[0] * unit[1]
    return weights
