"""Tests for the F4 Cartan data, dimension formulas, and series identities."""

from __future__ import annotations

import math
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import algebra, dimensions as dim
from helpers import (
    GRAM4,
    branching_matches_monomial_count,
    f4_positive_roots,
    inner,
    long_and_short_counts,
    norm,
    printed_constant_ratio,
)


SIMPLES = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# Test references, independent of the package's integer Weyl forms and read
# through the reference metric: the four fundamental weights in simple-root
# coordinates (checked by the normalization test), and rho as half the sum of
# the positive roots.
FUNDAMENTAL_WEIGHTS = ((2, 3, 4, 2), (3, 6, 8, 4), (2, 4, 6, 3), (1, 2, 3, 2))
RHO = tuple(Fraction(sum(column), 2) for column in zip(*f4_positive_roots()))


def fraction_weyl_dim(weight):
    """Weyl product over the positive roots in Fractions: the test reference."""
    shifted = tuple(weight[j] + RHO[j] for j in range(4))
    value = Fraction(1)
    for root in f4_positive_roots():
        value *= inner(shifted, root) / inner(RHO, root)
    return value


def transpose(matrix):
    return tuple(zip(*matrix))


def positives(roots):
    return tuple(r for r in roots if min(r) >= 0)


def test_gram_matrix_shape():
    assert [GRAM4[i][i] for i in range(4)] == [4, 4, 2, 2]
    assert GRAM4[0][1] == -2
    assert GRAM4[1][2] == -2
    assert GRAM4[2][3] == -1
    assert GRAM4[0][2] == 0 and GRAM4[0][3] == 0 and GRAM4[1][3] == 0
    for i in range(4):
        for j in range(4):
            assert GRAM4[i][j] == GRAM4[j][i]


def test_cartan_matrix_is_the_rescaled_reference_gram():
    for i in range(4):
        for j in range(4):
            assert dim.CARTAN4[i][j] == Fraction(2 * GRAM4[i][j], GRAM4[i][i])


def test_positive_roots_count_and_norms():
    roots = f4_positive_roots()
    assert len(roots) == 24
    assert long_and_short_counts() == (12, 12)
    assert positives(dim.reflection_closure(dim.CARTAN4)) == roots


@pytest.mark.parametrize(
    "cartan, count",
    [
        (((2, -1), (-1, 2)), 6),
        (((2, -2), (-1, 2)), 8),
        (((2, -3), (-1, 2)), 12),
        (dim.CARTAN4, 48),
    ],
    ids=["A2", "B2", "G2", "F4"],
)
def test_reflection_closure_counts_the_roots(cartan, count):
    """Each system and its dual, the roots of the transposed matrix (C2 for
    B2), which for these four is the same system with its nodes reversed."""
    roots = dim.reflection_closure(cartan)
    dual = dim.reflection_closure(transpose(cartan))
    for system in (roots, dual):
        assert len(system) == len(set(system)) == count
        assert list(system) == sorted(system)
        assert all(tuple(-c for c in root) in system for root in system)
    assert set(dual) == {root[::-1] for root in roots}


def test_reflection_closure_refuses_an_infinite_system():
    # affine A1: the two reflections generate an infinite group.  The alarm
    # turns a closure that never stops into a failure instead of a hang.
    def stop(signum, frame):
        raise TimeoutError("the closure of an infinite system did not stop")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        with pytest.raises(ArithmeticError, match="not of finite type"):
            dim.reflection_closure(((2, -2), (-2, 2)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_positive_roots_match_folded_algebra():
    assert set(f4_positive_roots()) == set(algebra.F4_POSITIVE)


def test_positive_coroots_are_the_rescaled_roots():
    """The positive roots of the transposed Cartan matrix, sum c_i alpha_i^vee
    with alpha_i^vee = 2 alpha_i/(alpha_i, alpha_i), are the coroots
    2 alpha/(alpha, alpha) of the positive roots, read through the reference."""
    coroots = positives(dim.reflection_closure(transpose(dim.CARTAN4)))
    in_root_basis = {tuple(Fraction(2 * c, GRAM4[i][i]) for i, c in enumerate(v)) for v in coroots}
    rescaled = {tuple(Fraction(2 * a, norm(root)) for a in root) for root in f4_positive_roots()}
    assert len(coroots) == 24
    assert in_root_basis == rescaled


def test_fundamental_weight_normalization():
    weights = FUNDAMENTAL_WEIGHTS
    for i in range(4):
        for k in range(4):
            pairing = Fraction(2 * inner(weights[i], SIMPLES[k]), GRAM4[k][k])
            assert pairing == (1 if i == k else 0)
    # metric values: 2 on the long simples, 1 on the short ones
    values = [inner(weights[i], SIMPLES[i]) for i in range(4)]
    assert values == [2, 2, 1, 1]
    # the cross pairings some sources misstate are actually zero
    assert inner(weights[0], SIMPLES[2]) == 0
    assert inner(weights[1], SIMPLES[3]) == 0


def test_weyl_vector_pairs_to_one():
    for i in range(4):
        assert 2 * inner(RHO, SIMPLES[i]) / GRAM4[i][i] == 1
    assert RHO == tuple(sum(column) for column in zip(*FUNDAMENTAL_WEIGHTS))


def test_weyl_dim_headline_values():
    assert dim.weyl_dim(0, 0) == 1
    assert dim.weyl_dim(0, 1) == 26
    assert dim.weyl_dim(1, 0) == 273
    assert dim.weyl_dim(0, 2) == 324
    assert dim.weyl_dim(0, 3) == 2652


def test_adjoint_and_second_fundamental_dimensions():
    assert fraction_weyl_dim(FUNDAMENTAL_WEIGHTS[0]) == 52
    assert fraction_weyl_dim(FUNDAMENTAL_WEIGHTS[1]) == 1274


@pytest.mark.parametrize(
    "k, l, error",
    [
        (True, 0, TypeError),
        (0, False, TypeError),
        (1.0, 0, TypeError),
        (0, 2.0, TypeError),
        (-1, 0, ValueError),
        (0, -1, ValueError),
    ],
    ids=["True", "False", "1.0", "2.0", "k -1", "l -1"],
)
def test_weyl_dim_labels_must_be_nonnegative_ints(k, l, error):
    # the int twin is cached first: the refusal must not depend on the cache
    if error is TypeError:
        dim.weyl_dim(int(k), int(l))
    with pytest.raises(error):
        dim.weyl_dim(k, l)


def test_weyl_dim_matches_fraction_weyl_formula():
    weights = FUNDAMENTAL_WEIGHTS
    for k in range(10):
        for l in range(10):
            weight = tuple(k * weights[2][j] + l * weights[3][j] for j in range(4))
            assert dim.weyl_dim(k, l) == fraction_weyl_dim(weight)


def test_coroot_forms_are_the_coroot_pairings():
    forms, denominator = dim._coroot_forms()
    assert len(forms) == 24
    assert all(c >= 1 for _, _, c in forms)
    vectors = (FUNDAMENTAL_WEIGHTS[2], FUNDAMENTAL_WEIGHTS[3], RHO)
    pairings = [
        tuple(Fraction(2 * inner(v, root), norm(root)) for v in vectors) for root in f4_positive_roots()
    ]
    assert sorted(forms) == sorted(pairings)
    assert denominator == math.prod(c for _, _, c in forms)


def test_inexact_weyl_data_raises(monkeypatch):
    monkeypatch.setattr(dim, "_coroot_forms", lambda: (((1, 0, 1),), 2))
    assert dim.weyl_dim.__wrapped__(1, 0) == 1
    with pytest.raises(ArithmeticError):
        dim.weyl_dim.__wrapped__(2, 0)


def test_closed_form_matches_weyl_dim_on_grid():
    for k in range(40):
        for l in range(40):
            assert dim.closed_form_dim(k, l) == dim.weyl_dim(k, l)


def test_closed_form_numerator_examples():
    assert dim.closed_form_numerator(0, 0) == dim.CORRECTED_CONSTANT
    assert dim.closed_form_numerator(0, 1) == 313_841_848_320_000
    assert dim.closed_form_numerator(0, 1) // dim.CORRECTED_CONSTANT == 26


def test_printed_constant_is_inconsistent():
    ratio = printed_constant_ratio()
    assert ratio == Fraction(11, 36)
    assert ratio.denominator != 1
    assert dim.PRINTED_CONSTANT * 11 == dim.CORRECTED_CONSTANT * 36


def test_series_arithmetic():
    a = dim.TruncatedSeries.from_coeffs(5, (1, 1))
    b = dim.one_minus_t_power(1, 5)
    assert (a * b).coeffs == (1, 0, -1, 0, 0, 0)
    geometric = dim.inverse_one_minus_t_power(1, 5)
    assert (b * geometric).coeffs == (1, 0, 0, 0, 0, 0)
    binom = dim.inverse_one_minus_t_power(26, 8)
    assert binom.coeffs[n := 4] == math.comb(n + 25, 25)


def series(order):
    """(a, b, c, order): three truncated series of one order, coefficients in [-50, 50]."""
    coeffs = st.lists(st.integers(-50, 50), max_size=order + 3)
    one = st.builds(dim.TruncatedSeries.from_coeffs, st.just(order), coeffs)
    return st.tuples(one, one, one, st.just(order))


@PROPERTY_SETTINGS
@given(st.integers(0, 12).flatmap(series))
def test_series_ring_laws(case):
    a, b, c, order = case
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    full = [0] * (2 * order + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            full[i + j] += x * y
    assert (a * b).coeffs == tuple(full[: order + 1])


def test_series_orders_must_agree():
    a = dim.TruncatedSeries.from_coeffs(3, (1, 2))
    b = dim.TruncatedSeries.from_coeffs(4, (1, 2))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ValueError):
            op(a, b)


def test_rhs_series_values():
    series = dim.rhs_series(8)
    assert series.coeffs[0] == 1
    assert series.coeffs[1] == 26
    assert series.coeffs[2] == 350
    assert series.coeffs[3] == 3249
    assert all(c > 0 for c in series.coeffs)


def test_identity_24_low_order_coefficients():
    report = dim.verify_identity_24(6)
    assert report.computed[:4] == (1, 2, 2, 1)
    # hand convolution at orders 1 and 2
    s = dim.rhs_series(6).coeffs
    assert s[1] - 24 * s[0] == 2
    assert s[2] - 24 * s[1] + math.comb(24, 2) * s[0] == 2


def test_identity_24_through_order_30():
    report = dim.verify_identity_24(30)
    assert report.passed
    assert report.first_mismatch is None
    assert report.computed == tuple([1, 2, 2, 1] + [0] * 27)


def test_identity_26_routes_agree():
    report = dim.verify_identity_26(24)
    assert report.binomial_route == report.convolution_route == report.product.passed
    assert report.passed


def test_branching_sum_examples():
    assert dim.branching_sum(0) == 1
    assert dim.branching_sum(2) == 351
    assert dim.branching_sum(3) == 3276
    assert dim.branching_sum(3) == 2652 + 324 + 273 + 26 + 1


def test_branching_matches_monomial_count_through_8():
    for degree in range(9):
        assert branching_matches_monomial_count(degree)


def test_generator_exponents_counts():
    assert [len(dim.generator_exponents(k)) for k in range(5)] == [1, 1, 3, 5, 8]


def partition_counts(degrees, order):
    """Coefficients of 1/prod(1 - t^d) over the given degrees, through t^order."""
    series = dim.TruncatedSeries.from_coeffs(order, (1,))
    for d in degrees:
        indicator = [1 if n % d == 0 else 0 for n in range(order + 1)]
        series = series * dim.TruncatedSeries.from_coeffs(order, indicator)
    return series.coeffs


def test_generator_exponents_are_every_product_once():
    counts = partition_counts((1, 2, 3, 2, 3), 40)
    for k in range(41):
        exps = dim.generator_exponents(k)
        assert len(exps) == len(set(exps)) == counts[k]
        assert all(m1 + 2 * m2 + 3 * m3 + 2 * m4 + 3 * m5 == k for m1, m2, m3, m4, m5 in exps)
        assert exps == sorted(exps, reverse=True)


def test_module_exponents_are_every_product_of_x1_zeta1_theta_once():
    counts = partition_counts((1, 2, 3), 60)
    for n in range(61):
        exps = dim.module_exponents(n)
        assert len(exps) == len(set(exps)) == counts[n]
        assert all(min(m) >= 0 and m[0] + 2 * m[1] + 3 * m[2] == n for m in exps)


def test_highest_weight_reads_theta_and_x1_plus_zeta1():
    assert dim.highest_weight((2, 3, 5)) == (5, 5)
    assert dim.highest_weight((1, 0, 4, 7, 9)) == (4, 1)


def test_rhs_series_matches_the_triple_loop():
    """The reference is a plain triple loop over the exponents of theta, zeta1 and x1."""
    order = 40
    coeffs = [0] * (order + 1)
    for k1 in range(order // 3 + 1):
        for k2 in range((order - 3 * k1) // 2 + 1):
            base = 3 * k1 + 2 * k2
            for k3 in range(order - base + 1):
                coeffs[base + k3] += dim.weyl_dim(k1, k2 + k3)
    assert dim.rhs_series(order).coeffs == tuple(coeffs)


def test_branching_sum_is_the_monomial_count_through_60():
    assert [dim.branching_sum(k) for k in range(61)] == [math.comb(k + 25, 25) for k in range(61)]
