"""The stacked RT0 forms [M_x; M_y; B_div] as they were first vectorized, on
(2, 3, F) moment arrays, and the RT0 field at cell points as their product
with a coefficient vector: the tests' byte-level reference for
spaces.assemble_forms and spaces.rt0_at_cell_points."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from forchmix import TriMesh
from forchmix.spaces import DofMap


def stacked_forms(mesh: TriMesh, dofmap: DofMap) -> sp.csr_matrix:
    """[M_x; M_y; B_div] (3F x n_rt0): row T of each block holds cell T's
    interior edges, |T| phi(centroid) per coordinate and the flux sign |e|."""
    edges = mesh.tri_edges.T
    dofs = dofmap.edge_dof[edges]
    sign_len = mesh.tri_edge_signs.T * mesh.edge_lengths[edges]
    # |T| * phi(centroid) = sign * |e| * (centroid - p_opp) / 2
    moment = 0.5 * (mesh.centroids.T[:, None, :] - mesh.vertices.T[:, mesh.triangles.T])
    moments, inside = sign_len * moment, dofs.T >= 0
    values = np.concatenate((moments[0].T[inside], moments[1].T[inside], sign_len.T[inside]))
    return sp.csr_matrix(
        (values, np.tile(dofs.T[inside], 3), np.append(0, np.cumsum(np.tile(inside.sum(axis=1), 3)))),
        shape=(3 * mesh.num_triangles, dofmap.n_rt0),
    )


def rt0_at_points(
    mesh: TriMesh, dofmap: DofMap, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """The affine RT0 field u(c_T) + (div u)_T (x - c_T) / 2 at (F, m)
    coordinate planes, its moments taken as stacked_forms @ coeffs."""
    moments = (stacked_forms(mesh, dofmap) @ coeffs).reshape(3, -1) / mesh.areas
    half_div = 0.5 * moments[2][:, None]
    return np.stack(
        [moment[:, None] + half_div * (plane - centroid[:, None])
         for moment, plane, centroid in zip(moments[:2], (x, y), mesh.centroids.T)],
        axis=-1,
    )
