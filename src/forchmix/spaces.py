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
    degree: int


def triangle_quadrature() -> QuadratureRule:
    """The 6-point symmetric rule exact through total degree 4, which every
    cell integral of the scheme and its error norms uses."""
    points = [
        orbit
        for first, other in _DEGREE4_ABSCISSAE
        for orbit in ((first, other, other), (other, first, other), (other, other, first))
    ]
    weights = np.repeat(_DEGREE4_WEIGHTS, 3)
    return QuadratureRule(points=np.array(points), weights=weights, degree=4)


def cell_points(mesh: TriMesh, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points on every cell, shape (F, m, 2)."""
    return rule.points @ mesh.vertices[mesh.triangles]


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


def rt0_cell_affine(mesh: TriMesh, dofmap: DofMap, coeffs: np.ndarray):
    """Per-cell affine form of an RT0 field: u(x) = d_T + gamma_T * x.

    Returns (gamma, d) with shapes (F,) and (F, 2).  Boundary edges contribute
    nothing because their flux is constrained to zero.
    """
    num_tris = mesh.num_triangles
    gamma = np.zeros(num_tris)
    d = np.zeros((num_tris, 2))
    dofs = dofmap.edge_dof[mesh.tri_edges]
    for k in range(3):
        have = dofs[:, k] >= 0
        c = np.zeros(num_tris)
        c[have] = coeffs[dofs[have, k]]
        factor = c * mesh.tri_edge_signs[:, k] * mesh.edge_lengths[mesh.tri_edges[:, k]]
        factor = factor / (2.0 * mesh.areas)
        gamma += factor
        d -= factor[:, None] * mesh.vertices[mesh.triangles[:, k]]
    return gamma, d


def rt0_at_cell_points(
    mesh: TriMesh, dofmap: DofMap, coeffs: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Evaluate an RT0 coefficient vector at per-cell points (F, m, 2)."""
    gamma, d = rt0_cell_affine(mesh, dofmap, coeffs)
    return d[:, None, :] + gamma[:, None, None] * points


def _filled(values, shape: tuple[int, ...]) -> np.ndarray:
    """A field's values as a C-ordered float array of shape; a constant fills it."""
    return np.ascontiguousarray(np.broadcast_to(values, shape), dtype=float)


def l2_project_scalar(mesh: TriMesh, f, rule: QuadratureRule | None = None) -> np.ndarray:
    """Cellwise L2 projection (cell averages) of a scalar field f(x, y)."""
    rule = rule or triangle_quadrature()
    pts = cell_points(mesh, rule)
    return _filled(f(pts[..., 0], pts[..., 1]), pts.shape[:-1]) @ rule.weights


def l2_project_vector(mesh: TriMesh, z, rule: QuadratureRule | None = None) -> np.ndarray:
    """Componentwise cell averages of a vector field z(x, y) -> (..., 2)."""
    rule = rule or triangle_quadrature()
    pts = cell_points(mesh, rule)
    values = _filled(z(pts[..., 0], pts[..., 1]), pts.shape)
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
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    pts = a[:, None, :] + frac[None, :, None] * (b - a)[:, None, :]
    values = _filled(v(pts[..., 0], pts[..., 1]), pts.shape)
    normal_flux = np.einsum("eqd,ed->eq", values, mesh.edge_normals)
    fluxes = 0.5 * (normal_flux @ gw)

    interior_scale = 1.0
    if dofmap.n_rt0 > 0:
        interior_scale += float(np.max(np.abs(fluxes[dofmap.dof_edge])))
    worst_boundary = float(np.max(np.abs(fluxes[mesh.boundary_edge]), initial=0.0))
    if worst_boundary > _BOUNDARY_FLUX_TOL * interior_scale:
        raise ValueError(
            f"field has nonzero boundary normal flux {worst_boundary:.3e}; "
            "it is not representable with the zero-flux boundary condition"
        )
    return fluxes[dofmap.dof_edge]


def assemble_forms(mesh: TriMesh, dofmap: DofMap) -> sp.csr_matrix:
    """[M_x; M_y; B_div] (3F x n_rt0), the scheme's one form assembly: row T
    of each block holds cell T's interior edges, with the (u, z) pairings of
    their RT0 basis functions with e_x and e_y and their divergences.  Both
    integrands are of degree at most one, so the entries are exact: (u, z)
    reduces to |T| * phi(centroid)."""
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
