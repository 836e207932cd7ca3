"""F4 metric data, the Weyl dimension formula, and big-integer series identities.

Everything here works in the simple-root basis of F4 with the long roots
normalized to squared length 2.  The metric data is exact rational
arithmetic; the Weyl formula and the series are integer arithmetic, with no
floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

Root4 = Tuple[int, int, int, int]

# Gram matrix of the four simple roots: two long (norm 2), two short (norm 1),
# with the double bond between positions 2 and 3.
GRAM4: Tuple[Tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(v) for v in row)
    for row in (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 1, Fraction(-1, 2)),
        (0, 0, Fraction(-1, 2), 1),
    )
)

PRINTED_CONSTANT = 39_504_568_320_000
CORRECTED_CONSTANT = 12_070_840_320_000


def inner(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Bilinear form in simple-root coordinates."""
    total = Fraction(0)
    for i in range(4):
        if not u[i]:
            continue
        for j in range(4):
            if v[j]:
                total += Fraction(u[i]) * GRAM4[i][j] * Fraction(v[j])
    return total


def norm(root: Sequence[Fraction]) -> Fraction:
    return inner(root, root)


def _reflect(root: Root4, i: int) -> Root4:
    """Reflection of a root in the hyperplane of the i-th simple root."""
    simple = tuple(1 if j == i else 0 for j in range(4))
    coeff = 2 * inner(root, simple) / GRAM4[i][i]
    if coeff.denominator != 1:
        raise ArithmeticError("reflection produced a non-integral coordinate")
    out = list(root)
    out[i] -= coeff.numerator
    return tuple(out)


@lru_cache(maxsize=None)
def positive_roots() -> Tuple[Root4, ...]:
    """All 24 positive roots, generated by reflection closure from the simples."""
    simples = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        root = frontier.pop()
        for i in range(4):
            image = _reflect(root, i)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    positives = sorted(r for r in seen if all(c >= 0 for c in r) and any(r))
    if len(positives) != 24:
        raise ArithmeticError(f"expected 24 positive roots, found {len(positives)}")
    return tuple(positives)


@lru_cache(maxsize=None)
def _coroot_forms() -> Tuple[Tuple[Tuple[int, int, int], ...], int]:
    """Integer forms of the Weyl formula, and its denominator.

    For a positive root alpha = sum a_i alpha_i, the coroot
    alpha^vee = 2 alpha/(alpha, alpha) is sum c_i alpha_i^vee with
    c_i = a_i (alpha_i, alpha_i)/(alpha, alpha), so a weight with Dynkin
    labels (m_1, ..., m_4) pairs with it to sum c_i m_i (Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, 24.3).  The
    weight k*w3 + l*w4 + rho has labels (1, 1, k+1, l+1), so its pairing is
    c_3*k + c_4*l + (c_1 + c_2 + c_3 + c_4), stored as the triple
    (c_3, c_4, sum c_i).  The denominator is the product of the 24 sums, the
    pairings of rho alone.
    """
    forms = []
    for root in positive_roots():
        length = norm(root)
        coeffs = [a * GRAM4[i][i] / length for i, a in enumerate(root)]
        if any(c.denominator != 1 for c in coeffs):
            raise ArithmeticError(f"non-integral coroot at root {root}")
        c1, c2, c3, c4 = (c.numerator for c in coeffs)
        forms.append((c3, c4, c1 + c2 + c3 + c4))
    return tuple(forms), math.prod(c for _, _, c in forms)


@lru_cache(maxsize=None)
def weyl_dim(k: int, l: int) -> int:
    """Dimension of the irreducible module with highest weight k*w3 + l*w4."""
    forms, denominator = _coroot_forms()
    numerator = math.prod(a * k + b * l + c for a, b, c in forms)
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"dimension formula gave non-integer {Fraction(numerator, denominator)}"
        )
    return quotient


def closed_form_numerator(k: int, l: int) -> int:
    """Numerator polynomial of the closed-form dimension expression."""
    value = (l + 1) * (k + 3) * (k + l + 4) * (2 * k + l + 7)
    value *= (3 * k + l + 10) * (3 * k + 2 * l + 11)
    for r in range(1, 6):
        value *= k + r
    for s in range(2, 7):
        value *= k + l + s
    for q in range(5, 10):
        value *= 2 * k + l + q
    return value


def closed_form_dim(k: int, l: int) -> int:
    """Closed-form dimension with the corrected denominator constant.

    Kept as an independent cross-check of ``weyl_dim``, which computes the
    same number from the Weyl formula.
    """
    numerator = closed_form_numerator(k, l)
    quotient, remainder = divmod(numerator, CORRECTED_CONSTANT)
    if remainder:
        raise ArithmeticError("closed-form numerator not divisible by the constant")
    return quotient


class TruncatedSeries(NamedTuple):
    """Power series modulo t^(order+1) with arbitrary-precision coefficients."""

    order: int
    coeffs: Tuple[int, ...]

    @staticmethod
    def from_coeffs(order: int, values: Sequence[int]) -> "TruncatedSeries":
        padded = list(values[: order + 1]) + [0] * (order + 1 - len(values))
        return TruncatedSeries(order, tuple(padded))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(self.order, tuple(out))

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("series orders differ")


def one_minus_t_power(exponent: int, order: int) -> TruncatedSeries:
    """(1 - t)^exponent for a nonnegative integer exponent."""
    coeffs = [
        (-1) ** j * math.comb(exponent, j) if j <= exponent else 0
        for j in range(order + 1)
    ]
    return TruncatedSeries.from_coeffs(order, coeffs)


def inverse_one_minus_t_power(exponent: int, order: int) -> TruncatedSeries:
    """(1 - t)^(-exponent): coefficients C(n+exponent-1, exponent-1)."""
    coeffs = [math.comb(n + exponent - 1, exponent - 1) for n in range(order + 1)]
    return TruncatedSeries.from_coeffs(order, coeffs)


def _inverse_one_minus_t_k(k: int, order: int) -> TruncatedSeries:
    """1/(1 - t^k): indicator of multiples of k."""
    coeffs = [1 if n % k == 0 else 0 for n in range(order + 1)]
    return TruncatedSeries.from_coeffs(order, coeffs)


@lru_cache(maxsize=None)
def rhs_series(order: int) -> TruncatedSeries:
    """Sum of weyl_dim(k1, k2+k3) * t^(3k1+2k2+k3), truncated."""
    coeffs = [0] * (order + 1)
    for k1 in range(order // 3 + 1):
        for k2 in range((order - 3 * k1) // 2 + 1):
            base = 3 * k1 + 2 * k2
            for k3 in range(order - base + 1):
                coeffs[base + k3] += weyl_dim(k1, k2 + k3)
    return TruncatedSeries.from_coeffs(order, coeffs)


class IdentityReport(NamedTuple):
    order: int
    computed: Tuple[int, ...]
    expected: Tuple[int, ...]
    passed: bool
    first_mismatch: Optional[int]


def verify_identity_24(order: int) -> IdentityReport:
    """(1-t)^24 times the dimension series must equal 1 + 2t + 2t^2 + t^3."""
    if order < 3:
        raise ValueError("order must be at least 3")
    product = one_minus_t_power(24, order) * rhs_series(order)
    expected = TruncatedSeries.from_coeffs(order, (1, 2, 2, 1))
    first = next(
        (n for n in range(order + 1) if product.coeffs[n] != expected.coeffs[n]), None
    )
    return IdentityReport(order, product.coeffs, expected.coeffs, first is None, first)


class IdentityFamilyReport(NamedTuple):
    order: int
    binomial_route: bool
    convolution_route: bool
    product_route: bool
    passed: bool


def verify_identity_26(order: int) -> IdentityFamilyReport:
    """Check the 26-variable identity in three equivalent cleared forms."""
    series = rhs_series(order)
    # Route 1: 1/((1-t^2)(1-t^3)) * series has coefficients C(n+25, 25).
    lhs = _inverse_one_minus_t_k(2, order) * _inverse_one_minus_t_k(3, order) * series
    binomial_route = all(
        lhs.coeffs[n] == math.comb(n + 25, 25) for n in range(order + 1)
    )
    # Route 2: series equals (1+2t+2t^2+t^3) * 1/(1-t)^24 by convolution.
    quartic = TruncatedSeries.from_coeffs(order, (1, 2, 2, 1))
    convolution_route = (
        quartic * inverse_one_minus_t_power(24, order)
    ).coeffs == series.coeffs
    # Route 3: the degree-24 product form.
    product_route = verify_identity_24(order).passed if order >= 3 else True
    return IdentityFamilyReport(
        order,
        binomial_route,
        convolution_route,
        product_route,
        binomial_route and convolution_route and product_route,
    )


def generator_exponents(degree: int) -> List[Tuple[int, int, int, int, int]]:
    """Exponent tuples (m1..m5) with m1 + 2m2 + 3m3 + 2m4 + 3m5 = degree."""
    out = []
    for m5 in range(degree // 3 + 1):
        for m4 in range((degree - 3 * m5) // 2 + 1):
            for m3 in range((degree - 3 * m5 - 2 * m4) // 3 + 1):
                for m2 in range((degree - 3 * m5 - 2 * m4 - 3 * m3) // 2 + 1):
                    m1 = degree - 3 * m5 - 2 * m4 - 3 * m3 - 2 * m2
                    out.append((m1, m2, m3, m4, m5))
    return sorted(out, reverse=True)


def branching_sum(degree: int) -> int:
    """Total dimension of the modules generated at this polynomial degree."""
    return sum(weyl_dim(m3, m1 + m2) for m1, m2, m3, _, _ in generator_exponents(degree))

