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

# the largest n whose edge keys lo * V + hi, V = (n + 1)^2, fit build_mesh's int64
_MAX_MESH_SIZE = 55107


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
    # by coordinate: contiguous planes gather and reduce faster than (F, 3, 2)
    x, y = vertices.T.copy()
    px, py = x[triangles.T], y[triangles.T]
    d1x, d1y, d2x, d2y = px[1] - px[0], py[1] - py[0], px[2] - px[0], py[2] - py[0]
    signed_area = 0.5 * (d1x * d2y - d1y * d2x)
    if np.any(signed_area <= 0.0):
        raise ValueError("triangles must be counterclockwise with positive area")

    # local edge k is opposite local vertex k; an edge's key lo * V + hi sorts
    # the edges by (lo, hi).  A stable sort of the flat (triangle, local edge)
    # slots by key numbers the edges and lists each edge's triangles in
    # increasing order: the lower-indexed one comes first and defines the
    # edge normal.
    a, b = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    keys = (np.minimum(a, b) * num_vertices + np.maximum(a, b)).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    opens = np.append(True, sorted_keys[1:] != sorted_keys[:-1])
    first = np.flatnonzero(opens)
    lo, hi = np.divmod(sorted_keys[first], num_vertices)
    edges = np.column_stack([lo, hi])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(opens) - 1
    tri_edges = inverse.reshape(-1, 3)

    counts = np.diff(first, append=len(keys))
    if counts.max() > 2:
        e = int(np.argmax(counts > 2))
        raise ValueError(f"edge {e} is shared by more than two triangles")
    tri_of_slot = order // 3
    edge_tris = np.column_stack(
        [tri_of_slot[first], np.where(counts == 2, tri_of_slot[first + counts - 1], -1)]
    )
    boundary_edge = counts == 1

    # an edge's first slot is its first triangle's, as a cell's three edges differ
    signs = np.full(len(keys), -1, dtype=np.int64)
    signs[order[first]] = 1

    ex, ey = x[hi] - x[lo], y[hi] - y[lo]
    edge_lengths = np.hypot(ex, ey)
    # run each edge ccw around its first triangle, whose centroid is then on its
    # left: (dy, -dx) points out; 0.0 - v keeps the +0.0 that -v would negate
    cx, cy = (px[0] + px[1] + px[2]) / 3, (py[0] + py[1] + py[2]) / 3
    owner = edge_tris[:, 0]
    ccw = ex * (cy[owner] - y[lo]) > ey * (cx[owner] - x[lo])
    rx, ry = np.where(ccw, ex, 0.0 - ex), np.where(ccw, ey, 0.0 - ey)
    edge_normals = np.column_stack([ry / edge_lengths, -rx / edge_lengths])

    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
        tri_edge_signs=signs.reshape(-1, 3),
        edge_tris=edge_tris,
        boundary_edge=boundary_edge,
        edge_normals=edge_normals,
        areas=signed_area,
        centroids=np.column_stack([cx, cy]),
        edge_lengths=edge_lengths,
        # every edge lies on a triangle: the largest edge is the largest diameter
        h=float(np.max(edge_lengths)),
    )


def _is_mesh_size(n) -> bool:
    """Whether unit_square_mesh accepts n: an integer from 1 to _MAX_MESH_SIZE, not a bool."""
    return not isinstance(n, bool) and isinstance(n, numbers.Integral) and 1 <= n <= _MAX_MESH_SIZE


def _unit_square_h(n: int) -> float:
    """unit_square_mesh(n).h, bit for bit, with no mesh built: its widest square's diagonal."""
    side = np.max(np.diff(np.linspace(0.0, 1.0, n + 1)))
    return float(np.hypot(side, side))


def unit_square_mesh(n: int) -> TriMesh:
    """Structured mesh of [0,1]^2: n x n squares, each split along the
    lower-left to upper-right diagonal into two right triangles.

    The result has (n+1)^2 vertices, 2n^2 triangles, 3n^2 + 2n edges, and
    mesh size h = sqrt(2)/n up to rounding (see _unit_square_h).
    """
    if not _is_mesh_size(n):
        raise ValueError(f"n must be a positive integer, at most {_MAX_MESH_SIZE}")
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

