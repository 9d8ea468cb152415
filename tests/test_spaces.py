"""Quadrature, RT0 basis, projections, interpolation, and form assembly."""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest

from quadrature_oracle import triangle_rule
from test_mesh import _scrambled_mesh

from forchmix import TriMesh, unit_square_mesh
from forchmix.mesh import build_mesh
from forchmix.spaces import (
    QuadratureRule,
    assemble_forms,
    build_dofmap,
    cell_points,
    hdiv_interpolate,
    l2_project_scalar,
    l2_project_vector,
    rt0_at_cell_points,
    rt0_cell_affine,
    triangle_quadrature,
)


def reference_monomial_integral(p: int, q: int) -> float:
    """Exact integral of x^p y^q over the unit right triangle."""
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def integrate_cellwise(mesh: TriMesh, rule: QuadratureRule, values: np.ndarray) -> np.ndarray:
    """Cell integrals from point values of shape (F, m): |T| * sum(w * v)."""
    return mesh.areas * (values @ rule.weights)


def rt0_eval(mesh: TriMesh, t: int, k: int, x) -> np.ndarray:
    """RT0 basis of local edge k on triangle t at points x of shape (..., 2).

    phi = sign * |e| / (2|T|) * (x - p_opp) where p_opp is the vertex opposite
    the edge; its normal trace is 1 on edge k (along the global edge normal)
    and 0 on the other edges.
    """
    if not 0 <= k < 3:
        raise IndexError(f"local edge index {k} out of range")
    e = mesh.tri_edges[t, k]
    scale = mesh.tri_edge_signs[t, k] * mesh.edge_lengths[e] / (2.0 * mesh.areas[t])
    opp = mesh.vertices[mesh.triangles[t, k]]
    return scale * (np.asarray(x, dtype=float) - opp)


def rt0_div(mesh: TriMesh, t: int, k: int) -> float:
    """Constant divergence sign * |e| / |T| of the basis of local edge k."""
    if not 0 <= k < 3:
        raise IndexError(f"local edge index {k} out of range")
    e = mesh.tri_edges[t, k]
    return float(mesh.tri_edge_signs[t, k] * mesh.edge_lengths[e] / mesh.areas[t])


def _reference_mesh():
    """One-triangle mesh on the unit right triangle (0,0), (1,0), (0,1)."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return build_mesh(vertices, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 7, 9])
def test_quadrature_weights_sum_to_one(degree: int) -> None:
    rule = triangle_rule(degree)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.all(rule.weights > 0.0)
    assert np.allclose(rule.points.sum(axis=1), 1.0, rtol=1e-13)
    assert rule.degree >= degree


@pytest.mark.parametrize("degree", [1, 2, 4, 7, 9])
def test_quadrature_integrates_monomials_exactly(degree: int) -> None:
    """Compare with p! q! / (p + q + 2)! on the reference triangle; degree 4
    is the scheme's own rule, the others the tests' reference rules."""
    mesh = _reference_mesh()
    rule = triangle_rule(degree)
    pts = cell_points(mesh, rule)
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            values = pts[..., 0] ** p * pts[..., 1] ** q
            got = float(integrate_cellwise(mesh, rule, values)[0])
            assert got == pytest.approx(reference_monomial_integral(p, q), rel=1e-13)


def test_integrate_cellwise_whole_mesh() -> None:
    mesh = unit_square_mesh(3)
    rule = triangle_rule(2)
    pts = cell_points(mesh, rule)
    ones = np.ones(pts.shape[:2])
    assert integrate_cellwise(mesh, rule, ones).sum() == pytest.approx(1.0, rel=1e-14)
    assert integrate_cellwise(mesh, rule, pts[..., 0]).sum() == pytest.approx(
        0.5, rel=1e-13
    )


@pytest.mark.parametrize("n", [1, 2, 5])
def test_dofmap_counts(n: int) -> None:
    mesh = unit_square_mesh(n)
    dofmap = build_dofmap(mesh)
    assert dofmap.n_rt0 == 3 * n * n - 2 * n
    # one pressure and two gradient unknowns per triangle
    assert mesh.num_triangles == 2 * n * n
    assert np.all(dofmap.edge_dof[mesh.boundary_edge] == -1)
    interior = ~mesh.boundary_edge
    assert np.array_equal(np.sort(dofmap.dof_edge), np.flatnonzero(interior))
    assert np.array_equal(dofmap.edge_dof[dofmap.dof_edge], np.arange(dofmap.n_rt0))


# square meshes of several sizes, and the renumbered, reordered and jittered
# n=8 mesh of the mesh tests
_ORDERING_MESHES = [1, 2, 3, 16, "scrambled"]


def _ordering_mesh(spec: int | str) -> TriMesh:
    return build_mesh(*_scrambled_mesh(8, 0)) if spec == "scrambled" else unit_square_mesh(spec)


def _recursive_nested_dissection(mesh: TriMesh, interior: np.ndarray) -> np.ndarray:
    """Oracle for the bit arithmetic of the nested-dissection order: bisect
    the box of the quantized centroids recursively, 31 levels per axis from
    the wider one, and number the edges inside each half, then the edges
    between the halves, each group in the order of interior.  Returns
    positions in interior."""
    c = mesh.centroids
    lo, span = c.min(axis=0), np.ptp(c, axis=0)
    q = ((c - lo) * ((2**31 - 1) / np.where(span > 0.0, span, 1.0))).astype(np.int64)
    axes = (1, 0) if span[1] > span[0] else (0, 1)
    tris = mesh.edge_tris[interior]
    order: list[int] = []

    def number(edges: np.ndarray, depth: int) -> None:
        if depth == 62:
            order.extend(edges)
            return
        side = (q[tris[edges], axes[depth % 2]] >> (30 - depth // 2)) & 1
        for half in (0, 1):
            inside = edges[(side[:, 0] == half) & (side[:, 1] == half)]
            if len(inside):
                number(inside, depth + 1)
        order.extend(edges[side[:, 0] != side[:, 1]])

    number(np.arange(len(interior)), 0)
    return np.array(order, dtype=np.int64)


@pytest.mark.parametrize("spec", _ORDERING_MESHES)
def test_nested_dissection_order(spec: int | str) -> None:
    """The DofMap numbers every interior edge once, in the recursive
    bisection's order, separator edges after both halves."""
    mesh = _ordering_mesh(spec)
    interior = np.flatnonzero(~mesh.boundary_edge)
    dofmap = build_dofmap(mesh)
    assert np.array_equal(np.sort(dofmap.dof_edge), interior)
    assert np.array_equal(dofmap.dof_edge, interior[_recursive_nested_dissection(mesh, interior)])


def test_rt0_basis_normal_traces() -> None:
    """Average flux is 1 on the basis function's own edge and 0 elsewhere."""
    mesh = unit_square_mesh(3)
    t = 7
    line = np.linspace(0.0, 1.0, 11)[1:-1]
    for k in range(3):
        for kk in range(3):
            e = mesh.tri_edges[t, kk]
            a, b = mesh.vertices[mesh.edges[e]]
            pts = a[None, :] + line[:, None] * (b - a)[None, :]
            flux = rt0_eval(mesh, t, k, pts) @ mesh.edge_normals[e]
            expected = 1.0 if kk == k else 0.0
            assert np.allclose(flux, expected, atol=1e-12)


def test_rt0_divergence_matches_flux_by_area() -> None:
    mesh = unit_square_mesh(2)
    for t in (0, 5):
        for k in range(3):
            e = mesh.tri_edges[t, k]
            expected = (
                mesh.tri_edge_signs[t, k] * mesh.edge_lengths[e] / mesh.areas[t]
            )
            assert rt0_div(mesh, t, k) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(IndexError):
        rt0_div(mesh, 0, 3)
    with pytest.raises(IndexError):
        rt0_eval(mesh, 0, -1, np.zeros(2))


def test_rt0_cell_affine_reconstructs_basis() -> None:
    mesh = unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=dofmap.n_rt0)
    gamma, d = rt0_cell_affine(mesh, dofmap, coeffs)
    for t in (0, 4, 11):
        x = rng.uniform(size=(6, 2))
        expected = np.zeros((6, 2))
        for k in range(3):
            dof = dofmap.edge_dof[mesh.tri_edges[t, k]]
            if dof >= 0:
                expected += coeffs[dof] * rt0_eval(mesh, t, k, x)
        got = d[t] + gamma[t] * x
        assert np.allclose(got, expected, atol=1e-13)
        div = sum(
            coeffs[dofmap.edge_dof[mesh.tri_edges[t, k]]] * rt0_div(mesh, t, k)
            for k in range(3)
            if dofmap.edge_dof[mesh.tri_edges[t, k]] >= 0
        )
        assert 2.0 * gamma[t] == pytest.approx(div, rel=1e-12, abs=1e-13)


def test_scalar_projection_exact_for_linear_fields() -> None:
    mesh = unit_square_mesh(4)
    proj = l2_project_scalar(mesh, lambda x, y: 2.0 + 3.0 * x - y)
    expected = 2.0 + 3.0 * mesh.centroids[:, 0] - mesh.centroids[:, 1]
    assert np.allclose(proj, expected, rtol=1e-14)


def test_scalar_projection_matches_independent_rule() -> None:
    smooth = lambda x, y: np.exp(x) * np.sin(3.0 * y) + x**4
    for n, tol in ((2, 1e-4), (8, 5e-8)):
        mesh = unit_square_mesh(n)
        got = l2_project_scalar(mesh, smooth)
        oracle = l2_project_scalar(mesh, smooth, triangle_rule(13))
        assert np.allclose(got, oracle, atol=tol)
    mesh = unit_square_mesh(2)
    exact_poly = lambda x, y: x**3 - 2.0 * y**2 * x**2
    assert np.allclose(
        l2_project_scalar(mesh, exact_poly),
        l2_project_scalar(mesh, exact_poly, triangle_rule(9)),
        atol=1e-15,
    )


def test_vector_projection_componentwise() -> None:
    mesh = unit_square_mesh(3)
    field = lambda x, y: np.stack(np.broadcast_arrays(x * y, 1.0 - y), axis=-1)
    proj = l2_project_vector(mesh, field)
    assert proj.shape == (mesh.num_triangles, 2)
    assert np.allclose(proj[:, 1], 1.0 - mesh.centroids[:, 1], rtol=1e-13)
    oracle = l2_project_scalar(mesh, lambda x, y: x * y)
    assert np.allclose(proj[:, 0], oracle, rtol=1e-13)


def _admissible_field(amp_x: float = 1.0, amp_y: float = 1.0):
    """Smooth vector field with zero normal flux on the square's boundary."""

    def v(x, y):
        return np.stack(
            np.broadcast_arrays(
                amp_x * x * (1.0 - x) * (1.0 + y),
                amp_y * y * (1.0 - y) * (2.0 - x),
            ),
            axis=-1,
        )

    return v


def _rt0_field(mesh, dofmap, coeffs):
    """Pointwise evaluator (x, y) -> (..., 2) of an RT0 field: each point
    takes the affine form of the cell in which its smallest barycentric
    coordinate is largest, so a point on an edge takes one incident cell."""
    gamma, d = rt0_cell_affine(mesh, dofmap, coeffs)
    corners = mesh.vertices[mesh.triangles]
    jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=-1)
    inv = np.linalg.inv(jac)

    def evaluate(x, y):
        pts = np.stack(np.broadcast_arrays(x, y), axis=-1)
        local = np.einsum("fij,...fj->...fi", inv, pts[..., None, :] - corners[:, 0])
        bary = np.concatenate([1.0 - local.sum(axis=-1, keepdims=True), local], axis=-1)
        cells = np.argmax(bary.min(axis=-1), axis=-1)
        return d[cells] + gamma[cells][..., None] * pts

    return evaluate


def test_hdiv_interpolation_idempotent_on_rt0() -> None:
    mesh = unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    rng = np.random.default_rng(17)
    coeffs = rng.normal(size=dofmap.n_rt0)
    field = _rt0_field(mesh, dofmap, coeffs)
    inside = mesh.centroids
    assert np.allclose(
        field(inside[:, 0], inside[:, 1]),
        rt0_at_cell_points(mesh, dofmap, coeffs, inside[:, None, :])[:, 0],
        atol=1e-14,
    )
    recovered = hdiv_interpolate(mesh, dofmap, field)
    assert np.allclose(recovered, coeffs, atol=1e-13)


def test_hdiv_interpolation_rejects_boundary_flux() -> None:
    mesh = unit_square_mesh(2)
    dofmap = build_dofmap(mesh)
    leaky = lambda x, y: np.stack(
        np.broadcast_arrays(np.ones_like(x), np.zeros_like(y)), axis=-1
    )
    with pytest.raises(ValueError):
        hdiv_interpolate(mesh, dofmap, leaky)


def test_hdiv_interpolation_first_order_accurate() -> None:
    v = _admissible_field(1.3, -0.7)
    errors = []
    sizes = [4, 8, 16]
    rule = triangle_quadrature()
    for n in sizes:
        mesh = unit_square_mesh(n)
        dofmap = build_dofmap(mesh)
        coeffs = hdiv_interpolate(mesh, dofmap, v)
        pts = cell_points(mesh, rule)
        diff = rt0_at_cell_points(mesh, dofmap, coeffs, pts) - v(
            pts[..., 0], pts[..., 1]
        )
        sq = np.sum(diff * diff, axis=-1)
        errors.append(float(np.sqrt(integrate_cellwise(mesh, rule, sq).sum())))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert all(rate > 0.9 for rate in rates)


def test_commuting_projection_identity() -> None:
    """Cell averages of div(interpolated v) equal the projection of div v."""
    rng = np.random.default_rng(99)
    for n in (2, 4, 8):
        mesh = unit_square_mesh(n)
        dofmap = build_dofmap(mesh)
        for _ in range(10):
            ax, ay = rng.normal(size=2)
            v = _admissible_field(ax, ay)

            def div_v(x, y):
                return ax * (1.0 - 2.0 * x) * (1.0 + y) + ay * (
                    (1.0 - 2.0 * y) * (2.0 - x)
                )

            coeffs = hdiv_interpolate(mesh, dofmap, v)
            gamma, _ = rt0_cell_affine(mesh, dofmap, coeffs)
            projected = l2_project_scalar(mesh, div_v)
            assert np.max(np.abs(2.0 * gamma - projected)) < 1e-12


def test_assembled_blocks() -> None:
    """Every entry of the stacked forms [M_x; M_y; B_div] is the RT0 oracle's
    cell integral of the edge's basis function, with the mesh's edge
    orientation."""
    mesh = unit_square_mesh(2)
    dofmap = build_dofmap(mesh)
    forms = assemble_forms(mesh, dofmap)
    num_tris = mesh.num_triangles
    assert forms.shape == (3 * num_tris, dofmap.n_rt0)

    b = forms[2 * num_tris :].toarray()
    m = forms[: 2 * num_tris].toarray()
    rule = triangle_rule(2)
    pts = cell_points(mesh, rule)
    for t in range(mesh.num_triangles):
        for k in range(3):
            dof = dofmap.edge_dof[mesh.tri_edges[t, k]]
            if dof < 0:
                continue
            assert b[t, dof] == pytest.approx(
                rt0_div(mesh, t, k) * mesh.areas[t], rel=1e-13
            )
            moment = mesh.areas[t] * (
                rt0_eval(mesh, t, k, pts[t]).T @ rule.weights
            )
            assert np.allclose(m[[t, num_tris + t], dof], moment, atol=1e-14)


def test_single_square_divergence_block() -> None:
    mesh = unit_square_mesh(1)
    dofmap = build_dofmap(mesh)
    b_div = assemble_forms(mesh, dofmap)[2 * mesh.num_triangles :]
    assert b_div.shape == (2, 1)
    # the single interior dof is the diagonal edge of length sqrt(2)
    assert np.allclose(np.abs(b_div.toarray()).ravel(), np.sqrt(2.0))
