"""Generalized Forchheimer laws and the degenerate conductivity they induce.

A law is a polynomial ``g(s) = sum_i a_i * s**alpha_i`` with ``alpha_0 = 0 <
alpha_1 < ... < alpha_N``, nonnegative coefficients, and ``a_0, a_N > 0``.
Because ``s * g(s)`` is strictly increasing on ``s >= 0`` it has an inverse
``s(xi)``, which defines the conductivity ``K(xi) = 1 / g(s(xi))``.  The flux
relation of the flow model is then ``u = -K(|grad p|) grad p``.

Two-term linear laws invert ``s * g(s) = xi`` in closed form; every other
law solves it by a monotone Newton iteration started above the root (see
``_newton_s``), so each evaluation of ``K`` is a root solve; no step of the
scheme or of its manufactured forcing evaluates ``K'``.

All evaluation functions accept scalars or numpy arrays and are pure, so they
are safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REL_TOL = 1e-13
_MAX_ITER = 100


class RootSolveError(RuntimeError):
    """Raised when the scalar root solve for s(xi) fails to converge."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ForchheimerLaw:
    """Polynomial law g(s) with strictly increasing exponents.

    Attributes:
        exponents: alpha_0..alpha_N with alpha_0 = 0, strictly increasing.
        coefficients: a_0..a_N, all nonnegative, a_0 > 0 and a_N > 0.
    """

    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        exps = tuple(float(e) for e in self.exponents)
        coefs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coefficients", coefs)
        if len(exps) != len(coefs):
            raise ValueError("exponents and coefficients must have equal length")
        if not all(math.isfinite(v) for v in exps + coefs):
            raise ValueError("exponents and coefficients must be finite")
        if len(exps) < 2:
            raise ValueError("law needs at least two terms")
        if exps[0] != 0.0:
            raise ValueError("first exponent must be 0")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")
        if any(c < 0.0 for c in coefs):
            raise ValueError("coefficients must be nonnegative")
        if coefs[0] <= 0.0 or coefs[-1] <= 0.0:
            raise ValueError("first and last coefficients must be positive")

    @property
    def degree(self) -> float:
        """Largest exponent alpha_N."""
        return self.exponents[-1]

    @property
    def is_two_term_linear(self) -> bool:
        """True for g(s) = a_0 + a_1 * s, which has a closed-form inverse."""
        return len(self.coefficients) == 2 and self.exponents == (0.0, 1.0)


@dataclass(frozen=True)
class DegeneracyExponents:
    """Exponent pair controlling the decay of K: a in (0,1), beta = 2 - a."""

    a: float
    beta: float


def degeneracy_exponents(law: ForchheimerLaw) -> DegeneracyExponents:
    """Return a = deg(g)/(deg(g)+1) and beta = 2 - a for the law."""
    a = law.degree / (law.degree + 1.0)
    return DegeneracyExponents(a=a, beta=2.0 - a)


def law_from_string(text: str) -> ForchheimerLaw:
    """Parse a law from comma-separated "coef:exponent" pairs.

    Example: "1:0,1:1" is g(s) = 1 + s.  Terms may come in any order; they
    are sorted by exponent before validation.
    """
    pairs = []
    for chunk in text.split(","):
        coef_text, sep, exp_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"bad law term {chunk!r}; expected 'coef:exponent'")
        try:
            pairs.append((float(exp_text), float(coef_text)))
        except ValueError:
            raise ValueError(f"bad law term {chunk!r}; expected numeric 'coef:exponent'") from None
    pairs.sort(key=lambda item: item[0])
    return ForchheimerLaw(
        exponents=tuple(exp for exp, _ in pairs),
        coefficients=tuple(coef for _, coef in pairs),
    )


def _as_nonneg_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    # NaN reaches the minimum and an infinite entry an extreme; [] passes
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    if lo < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _terms(law: ForchheimerLaw) -> list[tuple[float, float]]:
    """The (a_i, alpha_i) pairs of the law with a_i > 0, the terms g sums."""
    return [(a, e) for a, e in zip(law.coefficients, law.exponents) if a > 0.0]


def _newton_s(law: ForchheimerLaw, xi_arr: np.ndarray) -> np.ndarray:
    """Monotone Newton for s*g(s) = xi, started above the root.

    f(s) = s*g(s) = sum_i a_i s**(alpha_i + 1) is increasing and convex on
    s >= 0, since every power is at least 1, so Newton started at any s with
    f(s) >= xi decreases monotonically to the root and needs no bracket.
    Each term alone gives such a start, s_i = (xi/a_i)**(1/(alpha_i + 1));
    the smallest of them has f <= (N + 1) xi, close enough that no entry
    took more than 8 iterations on xi in {0} and logspace(-300, 300) for the
    laws in the tests.  The whole array iterates until every step is at most
    _REL_TOL times s; a step of the wrong sign comes only from rounding at a
    root.  xi_arr must already be finite and nonnegative.
    """
    terms = _terms(law)
    xi = xi_arr.ravel()
    # xi**(1/p) / a**(1/p) rather than (xi/a)**(1/p): the quotient can
    # underflow to 0 for a subnormal xi, which would start below the root
    s = np.min([xi ** (1.0 / (e + 1.0)) / a ** (1.0 / (e + 1.0)) for a, e in terms], axis=0)
    # where s g(s) <= (N + 1) xi could overflow, solve s g(s) = xi times a
    # power of 2 below 1/(N + 1): the same iterates, as scaling is exact
    big = xi > np.finfo(float).max / len(terms)
    if np.any(big):
        scale = np.where(big, 0.5 ** len(terms).bit_length(), 1.0)
        terms, xi = [(a * scale, e) for a, e in terms], xi * scale
    for _ in range(_MAX_ITER):
        g, slope = _g_and_slope(terms, s)
        step = (s * g - xi) / slope
        s = s - step
        if np.all(step <= _REL_TOL * s):
            return s.reshape(xi_arr.shape)
    g, _ = _g_and_slope(terms, s)
    residual = np.max(np.abs(s * g - xi))
    raise RootSolveError("root solve for s(xi) did not converge", float(residual))


def _g_and_slope(terms, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return g(s) and (s*g(s))' = g(s) + s*g'(s), one power per (a, e) term;
    the terms end with a positive power, which makes both sums arrays."""
    g = slope = 0.0
    for a, e in terms:
        term = a if e == 0.0 else a * s**e
        g = g + term
        slope = slope + (e + 1.0) * term
    return g, slope


def solve_s_of_xi(law: ForchheimerLaw, xi):
    """Solve s * g(s) = xi for the unique s >= 0.

    Two-term linear laws use the quadratic closed form, every other law the
    monotone Newton solve.
    """
    xi_arr = _as_nonneg_array(xi, "xi")
    if law.is_two_term_linear:
        a0, a1 = law.coefficients
        # root of a1*s^2 + a0*s - xi, written to avoid cancellation near 0 as
        # xi / (h + sqrt(h^2 + a1 xi)), h = a0/2: bit for bit 2 xi / (a0 +
        # sqrt(a0^2 + 4 a1 xi)), as powers of 2 scale exactly, with no 2 xi
        # or 4 a1 xi to overflow; hypot takes the sum where it still would
        h = 0.5 * a0
        with np.errstate(over="ignore"):
            root = np.sqrt(h * h + a1 * xi_arr)
        if np.any(np.isinf(root)):
            root = np.where(np.isinf(root), np.hypot(h, np.sqrt(a1) * np.sqrt(xi_arr)), root)
        s = xi_arr / (h + root)
    else:
        s = _newton_s(law, xi_arr)
    return s


def K_eval(law: ForchheimerLaw, xi):
    """Conductivity K(xi) = 1/g(s(xi)); decreasing, with values in (0, 1/a_0].

    xi is checked once, by the root solve; its root needs no check.
    """
    return 1.0 / _g_and_slope(_terms(law), solve_s_of_xi(law, xi))[0]


def K_prime(law: ForchheimerLaw, xi):
    """Derivative K'(xi), from implicit differentiation of s*g(s) = xi.

    With s = s(xi): K' = -g'(s) / (g(s)^2 * (g(s) + s*g'(s))).  For laws whose
    smallest positive exponent is below 1 the derivative diverges at xi = 0.
    """
    s = solve_s_of_xi(law, xi)
    g, slope = _g_and_slope(_terms(law), s)
    with np.errstate(divide="ignore"):  # g' is infinite at s = 0 for an exponent below 1
        g_prime = sum(a * e * np.power(s, e - 1.0) for a, e in _terms(law) if e != 0.0)
    # one quotient at a time: g^2 slope overflows long before K' underflows
    return -g_prime / slope / g / g


def K_flux(law: ForchheimerLaw, y):
    """Evaluate K(|y|) * y for vectors y of shape (..., d).

    This is the unsigned constitutive product; the flow solver fixes the sign
    convention u = -K(|s|) s.
    """
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim == 0:
        raise ValueError("y must be a vector")
    if np.any(~np.isfinite(y_arr)):
        raise ValueError("y must be finite")
    # by component: the same sums as a reduction over the short last axis, faster
    parts = [y_arr[..., i] for i in range(y_arr.shape[-1])]
    with np.errstate(over="ignore"):
        norm = np.sqrt(sum(part * part for part in parts))
    big = np.isinf(norm)
    if np.any(big):  # the squares overflow: the norm of y / max|y|, scaled back
        scale = np.max(np.abs(y_arr), axis=-1, where=big[..., None], initial=1.0)
        norm = np.where(big, scale * np.sqrt(sum((part / scale) ** 2 for part in parts)), norm)
    k = K_eval(law, norm)
    return np.stack([k * part for part in parts], axis=-1)
