"""Constitutive law: g, the root solve s(xi), K, K', and H."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from forchmix.law import (
    DegeneracyExponents,
    ForchheimerLaw,
    K_eval,
    K_flux,
    K_prime,
    _as_nonneg_array,
    _g_and_slope,
    _newton_s,
    _terms,
    degeneracy_exponents,
    law_from_string,
    solve_s_of_xi,
)

TWO_TERM = ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0, 1.0))
THREE_TERM = ForchheimerLaw(exponents=(0.0, 1.0, 2.0), coefficients=(1.0, 1.0, 2.0))


def g_eval(law: ForchheimerLaw, s):
    """Oracle g(s) for s >= 0, with the input check of every evaluation of
    the law; at least a_0 > 0."""
    return _g_and_slope(_terms(law), _as_nonneg_array(s, "s"))[0]


def test_g_eval_two_term_values() -> None:
    assert g_eval(TWO_TERM, 0.0) == pytest.approx(1.0, abs=0.0)
    assert g_eval(TWO_TERM, 3.0) == pytest.approx(4.0, abs=0.0)


def test_g_eval_three_term_value() -> None:
    law = ForchheimerLaw(exponents=(0.0, 1.0, 2.0), coefficients=(1.0, 0.0, 2.0))
    assert g_eval(law, 2.0) == pytest.approx(9.0, rel=1e-15)


def test_g_eval_vectorized_and_negative_rejected() -> None:
    s = np.array([0.0, 1.0, 2.0])
    assert np.allclose(g_eval(TWO_TERM, s), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        g_eval(TWO_TERM, -1.0)


def test_law_validation() -> None:
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.0,), coefficients=(1.0,))
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.5, 1.0), coefficients=(1.0, 1.0))
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.0, 1.0, 1.0), coefficients=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0, -1.0))
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(0.0, 1.0))
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.0, 1.0, 2.0), coefficients=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0,))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ForchheimerLaw(exponents=(0.0, bad), coefficients=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(bad, 1.0))


def test_law_from_string_parses_and_sorts() -> None:
    assert law_from_string("1:0,1:1") == TWO_TERM
    assert law_from_string("1:1,1:0") == TWO_TERM
    law = law_from_string("1:0,2:1")
    assert law.coefficients == (1.0, 2.0)
    assert law.exponents == (0.0, 1.0)


@pytest.mark.parametrize("text", ["", "1:0", "1:0,abc", "1,2", "1:0:2,1:1"])
def test_law_from_string_rejects_malformed(text: str) -> None:
    with pytest.raises(ValueError):
        law_from_string(text)


def test_root_solve_closed_form_values() -> None:
    assert solve_s_of_xi(TWO_TERM, 0.0) == 0.0
    assert solve_s_of_xi(TWO_TERM, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert solve_s_of_xi(TWO_TERM, 6.0) == pytest.approx(2.0, rel=1e-14)


def test_root_solve_newton_matches_closed_form() -> None:
    xi = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 400)])
    closed = solve_s_of_xi(TWO_TERM, xi)
    newton = _newton_s(TWO_TERM, xi)
    assert newton[0] == 0.0
    assert np.max(np.abs(newton[1:] - closed[1:]) / closed[1:]) < 1e-13


def test_root_solve_residual_three_term() -> None:
    xi = np.concatenate([[0.0], np.logspace(-10.0, 10.0, 500)])
    s = solve_s_of_xi(THREE_TERM, xi)
    residual = s * g_eval(THREE_TERM, s) - xi
    assert np.max(np.abs(residual) / np.maximum(xi, 1e-300)) < 1e-12


@pytest.mark.parametrize(
    "text", ["1:0,1e4:2", "1:0,1e12:0.5,1:3", "1:0,1e-8:1,1:30", "1:0,1e300:2"]
)
def test_root_solve_fits_a_small_iteration_budget(text: str, monkeypatch) -> None:
    """Ten Newton steps reach full accuracy from 0 through 1e300."""
    monkeypatch.setattr("forchmix.law._MAX_ITER", 10)
    law = law_from_string(text)
    xi = np.concatenate([[0.0, 5e-324], np.logspace(-300.0, 300.0, 601)])
    s = _newton_s(law, xi)
    assert s[0] == 0.0
    assert np.all(np.abs(s * g_eval(law, s) - xi) <= 1e-14 * xi)


def test_conductivity_of_a_huge_coefficient_is_finite() -> None:
    k = K_eval(law_from_string("1:0,1e300:2"), 2.0)
    assert 0.0 < k < 1e-100


def test_root_solve_rejects_negative_xi() -> None:
    with pytest.raises(ValueError):
        solve_s_of_xi(TWO_TERM, -0.5)


@pytest.mark.parametrize(
    "xi",
    [
        [-1.0, np.nan, 2.0],
        [np.nan, -1.0],
        [-np.inf, -1.0],
        [1.0, np.inf],
        [-3.0, np.inf],
        [np.nan],
    ],
)
def test_nonfinite_input_is_reported_before_a_negative_one(xi) -> None:
    """A NaN or an infinite entry is "must be finite", whatever negatives
    come with it, in the input check of every evaluation."""
    for law in (TWO_TERM, THREE_TERM):
        for evaluate in (solve_s_of_xi, K_eval, g_eval):
            with pytest.raises(ValueError, match="must be finite"):
                evaluate(law, np.array(xi))


def test_negative_input_is_rejected_and_empty_input_passes() -> None:
    for law in (TWO_TERM, THREE_TERM):
        for evaluate, name in ((solve_s_of_xi, "xi"), (K_eval, "xi"), (g_eval, "s")):
            with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
                evaluate(law, np.array([2.0, -1e-300, 0.0]))
            assert evaluate(law, np.array([])).shape == (0,)
        assert solve_s_of_xi(law, np.array([-0.0])) == 0.0


def test_conductivity_values() -> None:
    assert K_eval(TWO_TERM, 0.0) == pytest.approx(1.0, abs=0.0)
    assert K_eval(TWO_TERM, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert K_eval(TWO_TERM, 6.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_conductivity_decreasing_and_bounded() -> None:
    xi = np.concatenate([[0.0], np.logspace(-9.0, 9.0, 2000)])
    for law in (TWO_TERM, THREE_TERM):
        k = K_eval(law, xi)
        assert np.all(k > 0.0)
        assert np.all(k <= 1.0 / law.coefficients[0] + 1e-15)
        assert np.all(np.diff(k) <= 0.0)


def test_degeneracy_exponents_exact() -> None:
    assert degeneracy_exponents(TWO_TERM) == DegeneracyExponents(a=0.5, beta=1.5)
    d = degeneracy_exponents(THREE_TERM)
    assert d.a == pytest.approx(2.0 / 3.0, abs=0.0)
    assert d.beta == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_degeneracy_bracket() -> None:
    """K(xi) (1 + xi)^a stays within fixed positive bounds."""
    xi = np.concatenate([[0.0], np.logspace(-10.0, 10.0, 4001)])
    weighted = K_eval(TWO_TERM, xi) * (1.0 + xi) ** 0.5
    assert 0.85 < float(weighted.min()) < 0.88
    assert float(weighted.max()) <= 1.0 + 1e-12
    d = degeneracy_exponents(THREE_TERM)
    weighted = K_eval(THREE_TERM, xi) * (1.0 + xi) ** d.a
    assert float(weighted.min()) > 0.7
    assert float(weighted.max()) <= 1.0 + 1e-12


def test_conductivity_derivative_values_and_bound() -> None:
    assert K_prime(TWO_TERM, 0.0) == pytest.approx(-1.0, rel=1e-13)
    xi = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 1500)])
    for law in (TWO_TERM, THREE_TERM):
        a = degeneracy_exponents(law).a
        k = K_eval(law, xi)
        kp = K_prime(law, xi)
        assert np.all(kp * xi <= 1e-15)
        assert np.all(kp * xi >= -a * k - 1e-12)


def test_conductivity_derivative_matches_finite_differences() -> None:
    xi = np.linspace(0.013, 90.0, 400)
    step = 1e-6
    fd = (K_eval(TWO_TERM, xi + step) - K_eval(TWO_TERM, xi - step)) / (2.0 * step)
    assert np.max(np.abs(fd - K_prime(TWO_TERM, xi))) < 1e-9


@pytest.mark.parametrize("xi", [1e150, 1e200, 1e250, 1.7e308, np.finfo(float).max])
@pytest.mark.parametrize("text", ["1:0,1:1", "1:0,1e4:2", "1:0,1e12:0.5,1:3", "1:0,1e300:1"])
def test_conductivity_and_derivative_stay_finite_at_huge_xi(text: str, xi: float) -> None:
    """K and K' are finite, with no overflow on the way, up to the largest
    double: K' = -g'/(g^2 slope) underflows where g^2 slope would overflow,
    the closed form of the two-term linear laws holds past 4 a1 xi, and
    past a1 xi itself for a1 = 1e300, and the Newton solve of the others
    holds where its start's s g(s) would pass the largest double."""
    law = law_from_string(text)
    k, kp = K_eval(law, xi), K_prime(law, xi)
    assert 0.0 < k < 1.0 and -k / xi <= kp <= 0.0
    s = float(solve_s_of_xi(law, xi))
    g, _ = _g_and_slope(_terms(law), s)
    assert s * (float(g) / xi) == pytest.approx(1.0, rel=1e-13)


def test_flux_map_basic() -> None:
    y = np.array([3.0, 4.0])
    expected = K_eval(TWO_TERM, 5.0) * y
    assert np.allclose(K_flux(TWO_TERM, y), expected, rtol=1e-14)
    assert np.all(K_flux(TWO_TERM, np.zeros(2)) == 0.0)
    batch = K_flux(TWO_TERM, np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert batch.shape == (2, 2)
    with pytest.raises(ValueError):
        K_flux(TWO_TERM, np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        K_flux(TWO_TERM, 1.0)


@pytest.mark.parametrize("y", [[1e154, 1e154], [1e200, 0.0]])
def test_flux_map_takes_vectors_whose_squares_overflow(y) -> None:
    """|y| is finite where the sum of its squares is not: K(|y|) y comes
    from the norm of y / max|y|, scaled back, with no warning, and its norm
    is the root s(|y|).  The sum of squares made |y| infinite and raised."""
    y = np.array(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flux = K_flux(TWO_TERM, y)
    assert np.all(np.isfinite(flux))
    assert np.hypot(*flux) == pytest.approx(solve_s_of_xi(TWO_TERM, np.hypot(*y)), rel=1e-14)


def test_flux_map_monotone() -> None:
    """(K(|y'|)y' - K(|y|)y).(y' - y) >= (1 - a) K(max |.|) |y' - y|^2."""
    rng = np.random.default_rng(2024)
    for law in (TWO_TERM, THREE_TERM):
        a = degeneracy_exponents(law).a
        y1 = rng.normal(scale=3.0, size=(20000, 2))
        y2 = rng.normal(scale=3.0, size=(20000, 2))
        diff_flux = K_flux(law, y1) - K_flux(law, y2)
        diff = y1 - y2
        lhs = np.sum(diff_flux * diff, axis=1)
        k_far = K_eval(
            law, np.maximum(np.linalg.norm(y1, axis=1), np.linalg.norm(y2, axis=1))
        )
        rhs = (1.0 - a) * k_far * np.sum(diff * diff, axis=1)
        assert np.all(lhs >= rhs - 1e-12)


def test_flux_map_lipschitz() -> None:
    """|K(|y'|)y' - K(|y|)y| <= |y' - y| / a_0."""
    rng = np.random.default_rng(11)
    for law in (TWO_TERM, THREE_TERM):
        y1 = rng.normal(scale=5.0, size=(20000, 2))
        y2 = rng.normal(scale=5.0, size=(20000, 2))
        num = np.linalg.norm(K_flux(law, y1) - K_flux(law, y2), axis=1)
        den = np.linalg.norm(y1 - y2, axis=1)
        assert np.all(num <= den / law.coefficients[0] + 1e-12)


def H_eval(law: ForchheimerLaw, xi: float) -> float:
    """Energy density H(xi), the integral of K(sqrt(sigma)) over [0, xi^2].

    Substituting sigma = t^2 gives the smooth form H(xi) = int_0^xi 2 t K(t) dt,
    which is evaluated by adaptive quadrature to relative tolerance 1e-10.
    """
    if xi == 0.0:
        return 0.0
    value, abserr = quad(
        lambda t: 2.0 * t * K_eval(law, t), 0.0, xi, epsabs=0.0, epsrel=1e-12, limit=200
    )
    assert abserr <= 1e-10 * abs(value) + 1e-15
    return value


def test_h_eval_values() -> None:
    assert H_eval(TWO_TERM, 0.0) == 0.0
    exact = (5.0 * math.sqrt(5.0) - 7.0) / 6.0
    assert H_eval(TWO_TERM, 1.0) == pytest.approx(exact, rel=1e-10)


def test_h_eval_near_darcy_quadratic() -> None:
    """With a vanishing nonlinear term, H(xi) = xi^2 / a_0."""
    law = ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(2.0, 1e-30))
    assert H_eval(law, 3.0) == pytest.approx(4.5, rel=1e-9)


def test_h_eval_bracketed_by_conductivity() -> None:
    """K(xi) xi^2 <= H(xi) <= 2 K(xi) xi^2."""
    for law in (TWO_TERM, THREE_TERM):
        for xi in (0.01, 0.5, 1.0, 7.3, 100.0):
            h = H_eval(law, xi)
            k = K_eval(law, xi)
            assert k * xi * xi - 1e-12 <= h <= 2.0 * k * xi * xi + 1e-12


_XI_GRID = np.concatenate([[0.0], np.logspace(-12.0, 12.0, 241)])
_COEFFICIENT = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def _laws(draw) -> ForchheimerLaw:
    """Valid laws with 2-4 terms, exponents in (0, 5], coefficients in [1e-6, 1e6]."""
    exps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, exclude_min=True),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    coefs = draw(st.lists(_COEFFICIENT, min_size=len(exps) + 1, max_size=len(exps) + 1))
    return ForchheimerLaw(exponents=(0.0, *sorted(exps)), coefficients=tuple(coefs))


@given(_laws())
def test_property_root_solve_residual(law: ForchheimerLaw) -> None:
    s = solve_s_of_xi(law, _XI_GRID)
    assert np.all(np.abs(s * g_eval(law, s) - _XI_GRID) <= 1e-14 * _XI_GRID)


@given(_laws())
def test_property_conductivity_bounded_and_nonincreasing(law: ForchheimerLaw) -> None:
    k = K_eval(law, _XI_GRID)
    assert np.all(k > 0.0)
    assert np.all(k <= 1.0 / law.coefficients[0])
    assert np.all(np.diff(k) <= 0.0)


@given(_COEFFICIENT, _COEFFICIENT)
def test_property_newton_matches_closed_form(a0: float, a1: float) -> None:
    law = ForchheimerLaw(exponents=(0.0, 1.0), coefficients=(a0, a1))
    closed = solve_s_of_xi(law, _XI_GRID[1:])
    newton = _newton_s(law, _XI_GRID[1:])
    assert np.max(np.abs(newton - closed) / closed) < 1e-13
