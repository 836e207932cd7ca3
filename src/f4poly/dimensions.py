"""F4 metric data, the Weyl dimension formula, and big-integer series identities.

Everything here works in the simple-root basis of F4 in the integral
normalization: short roots have squared length 2 and long roots 4, so the
Gram matrix is the symmetrized Cartan matrix.  The metric, the Weyl formula
and the series are all integer arithmetic, with no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

Root4 = Tuple[int, int, int, int]

# Gram matrix of the four simple roots: two long (norm 4), two short (norm 2),
# with the double bond between positions 2 and 3.  Only ratios of its entries
# reach the results (the Cartan integers 2*G_ij/G_jj and the coroot
# coefficients), so this scale gives the same dimensions as any other.
GRAM4: Tuple[Tuple[int, ...], ...] = (
    (4, -2, 0, 0),
    (-2, 4, -2, 0),
    (0, -2, 2, -1),
    (0, 0, -1, 2),
)

PRINTED_CONSTANT = 39_504_568_320_000
CORRECTED_CONSTANT = 12_070_840_320_000


def inner(u: Sequence[int], v: Sequence[int]) -> int:
    """Bilinear form in simple-root coordinates; exact on any exact entries."""
    return sum(a * g * b for a, row in zip(u, GRAM4) for g, b in zip(row, v))


def norm(root: Sequence[int]) -> int:
    return inner(root, root)


def _reflect(root: Root4, i: int) -> Root4:
    """Reflection of a root in the hyperplane of the i-th simple root."""
    simple = tuple(1 if j == i else 0 for j in range(4))
    coeff, remainder = divmod(2 * inner(root, simple), GRAM4[i][i])
    if remainder:
        raise ArithmeticError("reflection produced a non-integral coordinate")
    out = list(root)
    out[i] -= coeff
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
        coeffs = [divmod(a * GRAM4[i][i], length) for i, a in enumerate(root)]
        if any(remainder for _, remainder in coeffs):
            raise ArithmeticError(f"non-integral coroot at root {root}")
        c1, c2, c3, c4 = (c for c, _ in coeffs)
        forms.append((c3, c4, c1 + c2 + c3 + c4))
    return tuple(forms), math.prod(c for _, _, c in forms)


@lru_cache(maxsize=None)
def weyl_dim(k: int, l: int) -> int:
    """Dimension of the irreducible module with highest weight k*w3 + l*w4."""
    forms, denominator = _coroot_forms()
    numerator = math.prod(a * k + b * l + c for a, b, c in forms)
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        g = math.gcd(numerator, denominator)
        raise ArithmeticError(
            f"dimension formula gave non-integer {numerator // g}/{denominator // g}"
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


def module_exponents(degree: int) -> List[Tuple[int, int, int]]:
    """Exponents (m1, m2, m3) of x1^m1 * zeta1^m2 * theta^m3 with m1 + 2m2 + 3m3 = degree."""
    pairs = ((m2, m3) for m3 in range(degree // 3 + 1) for m2 in range((degree - 3 * m3) // 2 + 1))
    return [(degree - 2 * m2 - 3 * m3, m2, m3) for m2, m3 in pairs]


def highest_weight(exponents: Sequence[int]) -> Tuple[int, int]:
    """(k, l) with k*w3 + l*w4 the highest weight of a product of the five generators."""
    m1, m2, m3 = exponents[:3]
    return m3, m1 + m2


def _module_dims(degree: int) -> int:
    """Total dimension of the modules generated by the products of x1, zeta1 and theta."""
    return sum(weyl_dim(*highest_weight(m)) for m in module_exponents(degree))


@lru_cache(maxsize=None)
def rhs_series(order: int) -> TruncatedSeries:
    """Sum of _module_dims(n) * t^n, truncated."""
    return TruncatedSeries(order, tuple(map(_module_dims, range(order + 1))))


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
    convolution: TruncatedSeries
    product: IdentityReport
    passed: bool


def verify_identity_26(order: int) -> IdentityFamilyReport:
    """Check the 26-variable identity in three equivalent cleared forms,
    keeping route 2's series and route 3's report (which needs order >= 3)."""
    series = rhs_series(order)
    # Route 1: 1/((1-t^2)(1-t^3)) * series has coefficients C(n+25, 25).
    lhs = _inverse_one_minus_t_k(2, order) * _inverse_one_minus_t_k(3, order) * series
    binomial_route = all(
        lhs.coeffs[n] == math.comb(n + 25, 25) for n in range(order + 1)
    )
    # Route 2: series equals (1+2t+2t^2+t^3) * 1/(1-t)^24 by convolution.
    quartic = TruncatedSeries.from_coeffs(order, (1, 2, 2, 1))
    convolution = quartic * inverse_one_minus_t_power(24, order)
    convolution_route = convolution.coeffs == series.coeffs
    # Route 3: the degree-24 product form.
    product = verify_identity_24(order)
    return IdentityFamilyReport(
        order,
        binomial_route,
        convolution_route,
        convolution,
        product,
        binomial_route and convolution_route and product.passed,
    )


def generator_exponents(degree: int) -> List[Tuple[int, int, int, int, int]]:
    """(m1..m5) with m1 + 2m2 + 3m3 + 2m4 + 3m5 = degree, descending (eta1, eta2 weigh 2, 3)."""
    tuples = ((*m, m4, m5) for r, m4, m5 in module_exponents(degree) for m in module_exponents(r))
    return sorted(tuples, reverse=True)


def branching_sum(degree: int) -> int:
    """Total dimension of the modules generated at this polynomial degree."""
    return sum(_module_dims(r) for r, _, _ in module_exponents(degree))
