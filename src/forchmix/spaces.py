"""Lowest-order mixed spaces on triangles.

Provides the scheme's triangle quadrature, the lowest-order Raviart-Thomas
(RT0) basis with the mesh's global edge orientation, piecewise-constant L2
projections, the H(div) edge-flux interpolant, and the stacked RT0 forms
[M_uz; B_div] from which the solver builds the velocity blocks of the
expanded mixed scheme (assemble_forms).  The RT0 degree of freedom on an
edge is the average normal flux, so the basis function of an edge has unit
normal trace on that edge and zero normal trace on the other two.

Velocity fields satisfy u.n = 0 on the domain boundary strongly: boundary
edges carry no degree of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh

# 6-point symmetric rule, exact through total degree 4: two orbits of three
# points, barycentric (first, other, other) and its rotations
_DEGREE4_WEIGHTS = (0.223381589678011, 0.109951743655322)
_DEGREE4_ABSCISSAE = (
    (0.108103018168070, 0.445948490915965),
    (0.816847572980459, 0.091576213509771),
)
# Gauss points per edge of the flux interpolant, exact for normal traces of
# polynomial degree up to 9
_EDGE_GAUSS = 5
# boundary normal flux, relative to 1 + the largest interior flux, above which
# a field counts as violating the zero-flux boundary condition
_BOUNDARY_FLUX_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureRule:
    """Triangle rule in barycentric coordinates; weights sum to 1 and are
    scaled by the cell area at use."""

    points: np.ndarray
    weights: np.ndarray


def triangle_quadrature() -> QuadratureRule:
    """The 6-point symmetric rule exact through total degree 4, which every
    cell integral of the scheme and its error norms uses."""
    points = [
        orbit
        for first, other in _DEGREE4_ABSCISSAE
        for orbit in ((first, other, other), (other, first, other), (other, other, first))
    ]
    weights = np.repeat(_DEGREE4_WEIGHTS, 3)
    return QuadratureRule(points=np.array(points), weights=weights)


def cell_points(mesh: TriMesh, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points on every cell as two C-contiguous (F, m)
    coordinate planes x and y: each the (F, 3) corner coordinates times the
    (3, m) barycentric points, one 2-D product per coordinate rather than F
    small ones."""
    return tuple(corner[mesh.triangles] @ rule.points.T for corner in mesh.vertices.T)


@dataclass(frozen=True)
class DofMap:
    """RT0 degrees of freedom, one per interior edge, in nested-dissection
    order (George, SIAM J. Numer. Anal. 10, 1973): the triangles are bisected
    recursively and each separator edge follows both halves, so the velocity
    system factors with little fill as it is numbered.  Velocity j lives on
    edge dof_edge[j], and edge_dof is its inverse, -1 on the boundary.  The
    scalar and vector unknowns are one and two per triangle, in the mesh's
    triangle order."""

    edge_dof: np.ndarray
    dof_edge: np.ndarray
    n_rt0: int


def _nested_dissection(mesh: TriMesh, interior: np.ndarray) -> np.ndarray:
    """The positions of the interior edges in nested-dissection order.

    Bisecting the centroids' bounding box at midpoints, alternating axes from
    the wider, gives a triangle the path of its quantized centroid's bits,
    interleaved.  An edge separates the part its triangles' paths share and
    follows that part's halves: sorted by the part's last path, deepest first.
    """
    c = mesh.centroids.T.copy()  # by coordinate, which numpy reduces faster
    lo, span = c.min(axis=1, keepdims=True), np.ptp(c, axis=1, keepdims=True)
    q = ((c - lo) * ((2**31 - 1) / np.where(span > 0.0, span, 1.0))).astype(np.uint64)
    # spread the bits of q to the even bits of a uint64
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333), (1, 0x5555555555555555)):
        q = (q | (q << np.uint64(shift))) & np.uint64(mask)
    wide = int(span[1, 0] > span[0, 0])
    path = (q[wide] << np.uint64(1)) | q[1 - wide]
    first, second = path[mesh.edge_tris[interior]].T
    # the bits below the common prefix, all set
    below = first ^ second
    for shift in (1, 2, 4, 8, 16, 32):
        below |= below >> np.uint64(shift)
    return np.lexsort((below, first | below))


def build_dofmap(mesh: TriMesh) -> DofMap:
    interior = np.flatnonzero(~mesh.boundary_edge)
    dof_edge = interior[_nested_dissection(mesh, interior)]
    edge_dof = np.full(mesh.num_edges, -1, dtype=np.int64)
    edge_dof[dof_edge] = np.arange(len(dof_edge))
    return DofMap(edge_dof=edge_dof, dof_edge=dof_edge, n_rt0=len(dof_edge))


def _filled(values, shape: tuple[int, ...]) -> np.ndarray:
    """A field's values as a C-ordered float array of shape; a constant fills it."""
    return np.ascontiguousarray(np.broadcast_to(values, shape), dtype=float)


def l2_project_scalar(mesh: TriMesh, f, rule: QuadratureRule) -> np.ndarray:
    """Cellwise L2 projection (cell averages) of a scalar field f(x, y)."""
    x, y = cell_points(mesh, rule)
    return _filled(f(x, y), x.shape) @ rule.weights


def l2_project_vector(mesh: TriMesh, z, rule: QuadratureRule) -> np.ndarray:
    """Componentwise cell averages of a vector field z(x, y) -> (..., 2)."""
    x, y = cell_points(mesh, rule)
    values = _filled(z(x, y), (*x.shape, 2))
    return np.einsum("fqd,q->fd", values, rule.weights)


def hdiv_interpolate(mesh: TriMesh, dofmap: DofMap, v) -> np.ndarray:
    """Edge-flux interpolant: dof on edge e is the average of v.n over e.

    The field must have (numerically) zero normal flux on boundary edges,
    at most _BOUNDARY_FLUX_TOL relative to the largest interior flux; a
    larger flux raises ValueError because the constrained space cannot
    represent it.  Averages use _EDGE_GAUSS-point Gauss quadrature per edge.
    """
    nodes, gw = np.polynomial.legendre.leggauss(_EDGE_GAUSS)
    frac = 0.5 * (nodes + 1.0)
    first, second = mesh.vertices[mesh.edges[:, 0]].T, mesh.vertices[mesh.edges[:, 1]].T
    # the points on each edge as (E, _EDGE_GAUSS) coordinate planes
    x, y = (a[:, None] + frac * (b - a)[:, None] for a, b in zip(first, second))
    values = _filled(v(x, y), (*x.shape, 2))
    normal_flux = np.einsum("eqd,ed->eq", values, mesh.edge_normals)
    fluxes = 0.5 * (normal_flux @ gw)

    interior_scale = 1.0 + float(np.max(np.abs(fluxes[dofmap.dof_edge]), initial=0.0))
    worst_boundary = float(np.max(np.abs(fluxes[mesh.boundary_edge]), initial=0.0))
    if worst_boundary > _BOUNDARY_FLUX_TOL * interior_scale:
        raise ValueError(
            f"field has nonzero boundary normal flux {worst_boundary:.3e}; "
            "it is not representable with the zero-flux boundary condition"
        )
    return fluxes[dofmap.dof_edge]


def _cell_moments(mesh: TriMesh, dofmap: DofMap) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per cell and local edge, as (F, 3) arrays: the edge's dof, -1 on the
    boundary, and |T| times the pairings of its RT0 basis function phi with
    e_x, e_y and the divergence.  Both integrands are of degree at most one,
    so the entries are exact: (phi, e_i) reduces to |T| * phi_i(centroid)."""
    dofs = dofmap.edge_dof[mesh.tri_edges]
    sign_len = mesh.tri_edge_signs * mesh.edge_lengths[mesh.tri_edges]
    # |T| * phi(centroid) = sign * |e| * (centroid - p_opp) / 2
    moments = (
        sign_len * (0.5 * (centroid[:, None] - corner[mesh.triangles]))
        for centroid, corner in zip(mesh.centroids.T, mesh.vertices.T)
    )
    return dofs, (*moments, sign_len)


def assemble_forms(mesh: TriMesh, dofmap: DofMap) -> sp.csr_matrix:
    """[M_x; M_y; B_div] (3F x n_rt0), the scheme's one form assembly: row T
    of each block holds cell T's interior edges, with the _cell_moments of
    their RT0 basis functions."""
    dofs, moments = _cell_moments(mesh, dofmap)
    inside = dofs >= 0
    values = np.concatenate([moment[inside] for moment in moments])
    return sp.csr_matrix(
        (values, np.tile(dofs[inside], 3), np.append(0, np.cumsum(np.tile(inside.sum(axis=1), 3)))),
        shape=(3 * mesh.num_triangles, dofmap.n_rt0),
    )


def rt0_at_cell_points(
    mesh: TriMesh, dofmap: DofMap, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Evaluate an RT0 coefficient vector at per-cell points, given as (F, m)
    coordinate planes x and y such as cell_points returns; shape (F, m, 2).

    On a cell the field is affine, u(x) = u(c_T) + (div u)_T (x - c_T) / 2,
    and the rows of assemble_forms hold |T| u(c_T) and |T| (div u)_T, summed
    here in a row product's order, so bit for bit as the forms times coeffs."""
    dofs, moments = _cell_moments(mesh, dofmap)
    u = np.where(dofs >= 0, coeffs[dofs], 0.0)
    mx, my, div = (
        (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2]) / mesh.areas
        for terms in (moment * u for moment in moments)
    )
    half_div = 0.5 * div[:, None]
    return np.stack(
        [moment[:, None] + half_div * (plane - centroid[:, None])
         for moment, plane, centroid in zip((mx, my), (x, y), mesh.centroids.T)],
        axis=-1,
    )
