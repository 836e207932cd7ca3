"""F4 Cartan data, the Weyl dimension formula, and big-integer series identities.

Everything here works in the simple-root basis of F4, from its Cartan matrix
alone: no metric is needed, because the coroots are the roots of the
transposed Cartan matrix.  The Weyl formula and the series are integer
arithmetic, with no floating point anywhere.  The one reflection closure,
``reflection_closure``, takes any Cartan matrix: it gives F4's coroots here
and E6's roots in ``lattice``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

# Cartan matrix of F4, row i holding <alpha_j, alpha_i^vee>: alpha_1 and
# alpha_2 long, alpha_3 and alpha_4 short, with the double bond between
# positions 2 and 3.
CARTAN4: Tuple[Tuple[int, ...], ...] = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -2, 2, -1),
    (0, 0, -1, 2),
)

PRINTED_CONSTANT = 39_504_568_320_000
CORRECTED_CONSTANT = 12_070_840_320_000


def reflection_closure(cartan: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Every root of the system with this Cartan matrix, sorted: the unit
    simple roots closed under the simple reflections.  Row i of the matrix
    holds <alpha_j, alpha_i^vee>, so the i-th reflection changes only
    coordinate i, by the integer sum_j cartan[i][j] v_j; a closure too large
    to be finite raises ArithmeticError.  The negatives come from
    s_i(alpha_i) = -alpha_i."""
    rank = len(cartan)
    # A finite system has rank * (Coxeter number) roots, and no Coxeter number
    # exceeds max(2 * rank, 30) (B_r and C_r have 2r, E8 has 30).
    bound = rank * max(2 * rank, 30)
    seen = {tuple(int(j == i) for j in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        root = frontier.pop()
        for i, row in enumerate(cartan):
            image = root[:i] + (root[i] - sum(a * c for a, c in zip(row, root)),) + root[i + 1:]
            if image not in seen:
                if len(seen) == bound:
                    raise ArithmeticError("the Cartan matrix is not of finite type")
                seen.add(image)
                frontier.append(image)
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def _coroot_forms() -> Tuple[Tuple[Tuple[int, int, int], ...], int]:
    """Integer forms of the Weyl formula, and its denominator.

    The positive coroots are the positive roots of the transposed Cartan
    matrix, in the basis of simple coroots: alpha^vee = sum c_i alpha_i^vee.
    A weight with Dynkin labels (m_1, ..., m_4) pairs with it to
    sum c_i m_i (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, 24.3).  The weight k*w3 + l*w4 + rho has labels
    (1, 1, k+1, l+1), so its pairing is c_3*k + c_4*l + (c_1 + c_2 + c_3 + c_4),
    stored as the triple (c_3, c_4, sum c_i).  The denominator is the product
    of the 24 sums, the pairings of rho alone.
    """
    coroots = [c for c in reflection_closure(tuple(zip(*CARTAN4))) if min(c) >= 0]
    if len(coroots) != 24:
        raise ArithmeticError(f"expected 24 positive coroots, found {len(coroots)}")
    forms = tuple((c3, c4, c1 + c2 + c3 + c4) for c1, c2, c3, c4 in coroots)
    return forms, math.prod(c for _, _, c in forms)


@lru_cache(maxsize=None, typed=True)
def weyl_dim(k: int, l: int) -> int:
    """Dimension of the irreducible module with highest weight k*w3 + l*w4, k
    and l exactly nonnegative ints (the cache is typed, so True is not 1)."""
    if type(k) is not int or type(l) is not int:
        raise TypeError(f"weight labels must be ints, got {k!r}, {l!r}")
    if k < 0 or l < 0:
        raise ValueError(f"weight labels must be nonnegative, got {k}, {l}")
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
