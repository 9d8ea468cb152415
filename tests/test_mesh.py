"""Structured triangulation of the unit square: connectivity and geometry."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from quadrature_oracle import triangle_rule

from forchmix import TriMesh, unit_square_mesh
from forchmix.mesh import build_mesh
from forchmix.spaces import cell_points


def _loop_mesh(vertices, triangles) -> TriMesh:
    """Reference construction: fills edge_tris and edge_normals triangle by
    triangle, the way build_mesh did before it was vectorized."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.all(signed_area > 0.0)

    local = np.stack(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=1
    )
    keys = np.sort(local.reshape(-1, 2), axis=1)
    edges, inverse = np.unique(keys, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(-1, 3)

    num_edges = len(edges)
    edge_tris = np.full((num_edges, 2), -1, dtype=np.int64)
    for t in range(len(triangles)):
        for k in range(3):
            e = tri_edges[t, k]
            if edge_tris[e, 0] < 0:
                edge_tris[e, 0] = t
            elif edge_tris[e, 1] < 0:
                edge_tris[e, 1] = t
            else:
                raise ValueError(f"edge {e} is shared by more than two triangles")
    swap = (edge_tris[:, 1] >= 0) & (edge_tris[:, 1] < edge_tris[:, 0])
    edge_tris[swap] = edge_tris[swap][:, ::-1]
    boundary_edge = edge_tris[:, 1] < 0

    signs = np.where(edge_tris[tri_edges, 0] == np.arange(len(triangles))[:, None], 1, -1)
    signs = signs.astype(np.int64)

    outward = np.empty((len(triangles), 3, 2))
    for k in range(3):
        d = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        length = np.hypot(d[:, 0], d[:, 1])
        outward[:, k, 0] = d[:, 1] / length
        outward[:, k, 1] = -d[:, 0] / length
    edge_normals = np.zeros((num_edges, 2))
    for t in range(len(triangles)):
        for k in range(3):
            if signs[t, k] == 1:
                edge_normals[tri_edges[t, k]] = outward[t, k]

    edge_vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
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
        h=float(np.max(edge_lengths[tri_edges])),
    )


def _loop_unit_square(n: int) -> TriMesh:
    ticks = np.linspace(0.0, 1.0, n + 1)
    grid_x, grid_y = np.meshgrid(ticks, ticks)
    vertices = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    idx = 0
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + n + 1
            v11 = v01 + 1
            triangles[idx] = (v00, v10, v11)
            triangles[idx + 1] = (v00, v11, v01)
            idx += 2
    return _loop_mesh(vertices, triangles)


def _scrambled_mesh(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n square mesh with its vertices renumbered, its interior
    vertices jittered, its triangles reordered and each triangle's vertex
    list rotated (so it stays counterclockwise)."""
    rng = np.random.default_rng(seed)
    base = unit_square_mesh(n)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[interior] += rng.uniform(-0.3 / n, 0.3 / n, size=(int(interior.sum()), 2))
    new_index = rng.permutation(len(vertices))
    renumbered = np.empty_like(vertices)
    renumbered[new_index] = vertices
    triangles = new_index[base.triangles][rng.permutation(base.num_triangles)]
    shift = rng.integers(0, 3, size=len(triangles))
    triangles = np.take_along_axis(triangles, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return renumbered, triangles


def _assert_same_mesh(actual: TriMesh, expected: TriMesh) -> None:
    for field in dataclasses.fields(TriMesh):
        a = getattr(actual, field.name)
        b = getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def _outward_normals(mesh: TriMesh) -> np.ndarray:
    """(F, 3, 2) outward unit normal of each triangle on its local edge k."""
    return mesh.edge_normals[mesh.tri_edges] * mesh.tri_edge_signs[..., None]


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_entity_counts(n: int) -> None:
    mesh = unit_square_mesh(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_triangles == 2 * n * n
    assert mesh.num_edges == 3 * n * n + 2 * n
    assert int(mesh.boundary_edge.sum()) == 4 * n
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1


def test_rejects_nonpositive_n() -> None:
    """n must be a Python or numpy integer of at least 1; a bool, a float
    (even a whole one) or a string is no mesh size."""
    for bad in (0, -2, 2.5, 2.0, True, False, "2", None, np.float64(2.0), np.bool_(True)):
        with pytest.raises(ValueError, match="positive integer"):
            unit_square_mesh(bad)
    assert np.array_equal(unit_square_mesh(np.int64(3)).triangles, unit_square_mesh(3).triangles)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_areas_and_mesh_size(n: int) -> None:
    mesh = unit_square_mesh(n)
    assert np.allclose(mesh.areas, 1.0 / (2 * n * n), rtol=1e-14)
    assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-14)
    assert mesh.h == pytest.approx(math.sqrt(2.0) / n, rel=1e-14)


def test_edge_orientation_signs() -> None:
    """Each interior edge carries +1 in its lower-indexed triangle, -1 in the
    other; boundary edges carry +1 in their only triangle."""
    mesh = unit_square_mesh(3)
    seen = {}
    for t in range(mesh.num_triangles):
        for k in range(3):
            seen.setdefault(mesh.tri_edges[t, k], []).append(
                (t, mesh.tri_edge_signs[t, k])
            )
    for e, entries in seen.items():
        if mesh.boundary_edge[e]:
            assert len(entries) == 1
            assert entries[0][1] == 1
            assert entries[0][0] == mesh.edge_tris[e, 0]
        else:
            assert len(entries) == 2
            by_tri = dict(entries)
            assert by_tri[mesh.edge_tris[e, 0]] == 1
            assert by_tri[mesh.edge_tris[e, 1]] == -1


def test_edge_normals_unit_and_outward_on_boundary() -> None:
    mesh = unit_square_mesh(4)
    lengths = np.linalg.norm(mesh.edge_normals, axis=1)
    assert np.allclose(lengths, 1.0, rtol=1e-14)
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    boundary = mesh.boundary_edge
    outward = np.einsum(
        "ed,ed->e", mesh.edge_normals[boundary], mids[boundary] - 0.5
    )
    assert np.all(outward > 0.0)


def test_geometry_of_first_cell() -> None:
    """Lower-right triangle of the unit cell: (0,0), (1,0), (1,1)."""
    mesh = unit_square_mesh(1)
    assert mesh.areas[0] == pytest.approx(0.5, rel=1e-15)
    assert np.allclose(mesh.centroids[0], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
    lengths = mesh.edge_lengths[mesh.tri_edges[0]]
    assert np.allclose(lengths, [1.0, math.sqrt(2.0), 1.0], rtol=1e-14)
    r = math.sqrt(0.5)
    normals = _outward_normals(mesh)[0]
    assert np.allclose(normals, [[1.0, 0.0], [-r, r], [0.0, -1.0]], atol=1e-14)


def test_geometry_of_second_cell() -> None:
    """Upper-left triangle of the unit cell: (0,0), (1,1), (0,1)."""
    mesh = unit_square_mesh(1)
    assert mesh.areas[1] == pytest.approx(0.5, rel=1e-15)
    assert np.allclose(mesh.centroids[1], [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)
    r = math.sqrt(0.5)
    normals = _outward_normals(mesh)[1]
    assert np.allclose(normals, [[0.0, 1.0], [-1.0, 0.0], [r, -r]], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_unit_square_mesh_matches_loop_construction(n: int) -> None:
    _assert_same_mesh(unit_square_mesh(n), _loop_unit_square(n))


@pytest.mark.parametrize("seed", [0, 1])
def test_scrambled_mesh_matches_loop_construction(seed: int) -> None:
    vertices, triangles = _scrambled_mesh(16, seed)
    mesh = build_mesh(vertices, triangles)
    _assert_same_mesh(mesh, _loop_mesh(vertices, triangles))
    # the lower-indexed triangle of each interior edge comes first
    interior = ~mesh.boundary_edge
    assert np.all(mesh.edge_tris[interior, 0] < mesh.edge_tris[interior, 1])
    outward = _outward_normals(mesh)
    assert np.allclose(np.linalg.norm(outward, axis=-1), 1.0, rtol=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 4, 7])
def test_cell_points_match_barycentric_sum(degree: int) -> None:
    rule = triangle_rule(degree)
    vertices, triangles = _scrambled_mesh(8, 2)
    for mesh in (unit_square_mesh(16), build_mesh(vertices, triangles)):
        expected = np.einsum("qk,fkd->fqd", rule.points, mesh.vertices[mesh.triangles])
        points = cell_points(mesh, rule)
        assert points.shape == expected.shape
        assert np.max(np.abs(points - expected)) <= 4e-16


def test_build_mesh_rejects_clockwise_triangle() -> None:
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        build_mesh(vertices, np.array([[0, 2, 1]]))


def test_build_mesh_rejects_overshared_edge() -> None:
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 0.5]]
    )
    triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    # edge (0, 1) is edge 0, the first in (lo, hi) order
    with pytest.raises(ValueError, match=r"^edge 0 is shared by more than two triangles$"):
        build_mesh(vertices, triangles)


def test_build_mesh_rejects_out_of_range_vertex() -> None:
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for triangles in ([[0, 1, 3]], [[-1, 0, 1]]):
        with pytest.raises(ValueError, match="vertex indices"):
            build_mesh(vertices, np.array(triangles))



_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    ("vertices", "triangles", "message"),
    [
        (_TRIANGLE, [[0, 1, 2, 0]], r"triangles must be of shape \(F, 3\) with F >= 1, not \(1, 4\)"),
        (_TRIANGLE, [0, 1, 2], r"triangles must be of shape \(F, 3\) with F >= 1, not \(3,\)"),
        (_TRIANGLE, np.zeros((0, 3), dtype=np.int64), r"triangles must be of shape \(F, 3\) with F >= 1, not \(0, 3\)"),
        ([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], [[0, 1, 2]], "vertices must be finite"),
        ([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]], [[0, 1, 2]], "vertices must be finite"),
        (np.column_stack((_TRIANGLE, np.zeros(3))), [[0, 1, 2]], r"vertices must be of shape \(V, 2\), not \(3, 3\)"),
        (_TRIANGLE.ravel(), [[0, 1, 2]], r"vertices must be of shape \(V, 2\), not \(6,\)"),
        (_TRIANGLE, [[0.0, 1.0, 2.7]], "triangle vertex indices must be whole numbers"),
        (_TRIANGLE, [[0.0, 1.0, np.nan]], "triangle vertex indices must be whole numbers"),
        (_TRIANGLE, [[False, True, True]], "triangle vertex indices must be whole numbers"),
    ],
)
def test_build_mesh_rejects_malformed_input(vertices, triangles, message: str) -> None:
    """build_mesh takes finite (V, 2) vertices and (F, 3) whole vertex
    indices with F >= 1 and names the first rule an input breaks."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_mesh(vertices, triangles)


def test_build_mesh_takes_whole_float_indices() -> None:
    """Indices given as whole floats build the same mesh as integers."""
    vertices, triangles = _scrambled_mesh(4, 0)
    _assert_same_mesh(build_mesh(vertices, triangles.astype(float)), build_mesh(vertices, triangles))
