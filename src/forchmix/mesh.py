"""Conforming triangulations of the unit square with oriented edges.

Each mesh stores, besides vertices and triangles, a global edge list with a
canonical unit normal per edge and the incidence signs that relate a
triangle's outward normal to that global normal.  Interior edges carry the
normal of their lower-indexed triangle, so the two incidence signs of an
interior edge always sum to zero; boundary edges carry the outward normal.
Meshes are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriMesh:
    """Triangulation with oriented edges and triangle-edge incidence.

    Attributes:
        vertices: (V, 2) coordinates.
        triangles: (F, 3) vertex indices, counterclockwise.
        edges: (E, 2) vertex index pairs, lower index first.
        tri_edges: (F, 3) global edge index of the edge opposite local vertex k.
        tri_edge_signs: (F, 3) +1 where the triangle's outward normal equals
            the global edge normal, -1 otherwise.
        edge_tris: (E, 2) incident triangle indices, -1 padding on boundary.
        boundary_edge: (E,) boolean mask.
        edge_normals: (E, 2) canonical unit normal per edge.
        areas: (F,) triangle areas.
        centroids: (F, 2) triangle centroids.
        edge_lengths: (E,) edge lengths.
        h: maximum element diameter.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    edge_tris: np.ndarray
    boundary_edge: np.ndarray
    edge_normals: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray
    edge_lengths: np.ndarray
    h: float

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _outward_normals(p: np.ndarray) -> np.ndarray:
    """Outward unit normal of each triangle, with corners p (F, 3, 2), on the
    edge opposite vertex k."""
    # edge opposite vertex k runs from vertex k+1 to vertex k+2 (ccw traversal),
    # so its right-hand normal (dy, -dx) points out of the triangle
    d = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    length = np.hypot(d[..., 0], d[..., 1])
    return np.stack([d[..., 1] / length, -d[..., 0] / length], axis=-1)


def build_mesh(vertices, triangles) -> TriMesh:
    """Assemble connectivity for a conforming set of ccw triangles: finite
    (V, 2) vertices and (F, 3) whole vertex indices, F >= 1."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError(f"vertices must be of shape (V, 2), not {vertices.shape}")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertices must be finite")
    triangles = np.asarray(triangles)
    if triangles.ndim != 2 or triangles.shape[1] != 3 or len(triangles) == 0:
        raise ValueError(f"triangles must be of shape (F, 3) with F >= 1, not {triangles.shape}")
    whole = triangles.dtype.kind in "iu" or (
        triangles.dtype.kind == "f" and np.all(np.isfinite(triangles) & (triangles == np.round(triangles)))
    )
    if not whole:
        raise ValueError("triangle vertex indices must be whole numbers")
    num_vertices = len(vertices)
    if np.any(triangles < 0) or np.any(triangles >= num_vertices):
        raise ValueError("triangle vertex indices must lie in [0, number of vertices)")
    triangles = triangles.astype(np.int64, copy=False)
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(signed_area <= 0.0):
        raise ValueError("triangles must be counterclockwise with positive area")

    # local edge k is opposite local vertex k; an edge's key lo * V + hi sorts
    # the edges by (lo, hi)
    local = np.stack(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=1
    ).reshape(-1, 2)
    keys = local.min(axis=1) * num_vertices + local.max(axis=1)
    codes, inverse = np.unique(keys, return_inverse=True)
    edges = np.column_stack(np.divmod(codes, num_vertices))
    tri_edges = inverse.reshape(-1, 3)

    counts = np.bincount(inverse, minlength=len(edges))
    if counts.max() > 2:
        e = int(np.argmax(counts > 2))
        raise ValueError(f"edge {e} is shared by more than two triangles")
    # a stable sort of the flat (triangle, local edge) slots by edge lists each
    # edge's triangles in increasing order: the lower-indexed one comes first
    # and defines the edge normal
    tri_of_slot = np.argsort(inverse, kind="stable") // 3
    first = np.cumsum(counts) - counts
    edge_tris = np.column_stack(
        [tri_of_slot[first], np.where(counts == 2, tri_of_slot[first + counts - 1], -1)]
    )
    boundary_edge = counts == 1

    signs = np.where(edge_tris[tri_edges, 0] == np.arange(len(triangles))[:, None], 1, -1)
    signs = signs.astype(np.int64)

    owner = signs == 1
    edge_normals = np.zeros((len(edges), 2))
    edge_normals[tri_edges[owner]] = _outward_normals(p)[owner]

    edge_vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    diameters = np.max(edge_lengths[tri_edges], axis=1)

    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
        tri_edge_signs=signs,
        edge_tris=edge_tris,
        boundary_edge=boundary_edge,
        edge_normals=edge_normals,
        areas=signed_area,
        centroids=p.mean(axis=1),
        edge_lengths=edge_lengths,
        h=float(np.max(diameters)),
    )


def _is_mesh_size(n) -> bool:
    """Whether unit_square_mesh accepts n: an integer of at least 1, not a bool."""
    return not isinstance(n, bool) and isinstance(n, numbers.Integral) and n >= 1


def unit_square_mesh(n: int) -> TriMesh:
    """Structured mesh of [0,1]^2: n x n squares, each split along the
    lower-left to upper-right diagonal into two right triangles.

    The result has (n+1)^2 vertices, 2n^2 triangles, 3n^2 + 2n edges, and
    mesh size h = sqrt(2)/n.
    """
    if not _is_mesh_size(n):
        raise ValueError("n must be a positive integer")
    ticks = np.linspace(0.0, 1.0, n + 1)
    grid_x, grid_y = np.meshgrid(ticks, ticks)
    vertices = np.column_stack([grid_x.ravel(), grid_y.ravel()])

    # square (i, j) has lower-left vertex v = j(n+1) + i and splits into the
    # triangles (v, v+1, v+n+2) and (v, v+n+2, v+n+1)
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v11 = v00 + n + 2
    triangles = np.column_stack([v00, v00 + 1, v11, v00, v11, v11 - 1]).reshape(-1, 3)
    return build_mesh(vertices, triangles)

