"""Triangle quadrature of any total degree, the tests' reference for integrals
that the scheme's own degree-4 rule does not resolve exactly."""

from __future__ import annotations

import numpy as np

from forchmix.spaces import QuadratureRule, triangle_quadrature


def _symmetric_orbit(first: float, other: float) -> list[tuple[float, float, float]]:
    return [(first, other, other), (other, first, other), (other, other, first)]


def _collapsed_rule(degree: int) -> QuadratureRule:
    """Tensor Gauss rule mapped to the triangle by collapsing one square edge.

    With m Gauss points per axis the rule integrates total degree 2m - 2
    exactly (the collapse adds one degree in the first variable); weights stay
    positive.
    """
    m = degree // 2 + 2
    nodes, gw = np.polynomial.legendre.leggauss(m)
    u = 0.5 * (nodes + 1.0)
    wu = 0.5 * gw
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    weights = ww.ravel()
    points = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(points=points, weights=weights / weights.sum())


def triangle_rule(degree: int) -> QuadratureRule:
    """Rule exact for polynomials of the given total degree: the centroid
    rule, the 3-point rule, the scheme's 6-point rule through degree 4, and
    a collapsed Gauss rule beyond."""
    if degree <= 1:
        points = np.array([[1.0, 1.0, 1.0]]) / 3.0
        return QuadratureRule(points=points, weights=np.array([1.0]))
    if degree <= 2:
        points = np.array(_symmetric_orbit(2.0 / 3.0, 1.0 / 6.0))
        return QuadratureRule(points=points, weights=np.full(3, 1.0 / 3.0))
    if degree <= 4:
        return triangle_quadrature()
    return _collapsed_rule(degree)
