"""Tests for the F4 metric data, dimension formulas, and series identities."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import algebra, dimensions as dim
from helpers import branching_matches_monomial_count, long_and_short_counts, printed_constant_ratio


SIMPLES = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# Test references, independent of the package's integer Weyl forms: the four
# fundamental weights in simple-root coordinates (checked by the normalization
# test), and rho as half the sum of the positive roots.
FUNDAMENTAL_WEIGHTS = ((2, 3, 4, 2), (3, 6, 8, 4), (2, 4, 6, 3), (1, 2, 3, 2))
RHO = tuple(Fraction(sum(column), 2) for column in zip(*dim.positive_roots()))


def fraction_weyl_dim(weight):
    """Weyl product over the positive roots in Fractions: the test reference."""
    shifted = tuple(weight[j] + RHO[j] for j in range(4))
    value = Fraction(1)
    for root in dim.positive_roots():
        value *= dim.inner(shifted, root) / dim.inner(RHO, root)
    return value


def test_gram_matrix_shape():
    assert [dim.GRAM4[i][i] for i in range(4)] == [2, 2, 1, 1]
    assert dim.GRAM4[0][1] == -1
    assert dim.GRAM4[1][2] == -1
    assert dim.GRAM4[2][3] == Fraction(-1, 2)
    assert dim.GRAM4[0][2] == 0 and dim.GRAM4[0][3] == 0 and dim.GRAM4[1][3] == 0
    for i in range(4):
        for j in range(4):
            assert dim.GRAM4[i][j] == dim.GRAM4[j][i]


def test_positive_roots_count_and_norms():
    roots = dim.positive_roots()
    assert len(roots) == 24
    assert long_and_short_counts() == (12, 12)
    for root in roots:
        assert dim.norm(root) in (1, 2)


def test_positive_roots_match_folded_algebra():
    assert set(dim.positive_roots()) == set(algebra.F4_POSITIVE)


def test_fundamental_weight_normalization():
    weights = FUNDAMENTAL_WEIGHTS
    for i in range(4):
        for k in range(4):
            pairing = 2 * dim.inner(weights[i], SIMPLES[k]) / dim.GRAM4[k][k]
            assert pairing == (1 if i == k else 0)
    # metric values: 1 on the long simples, 1/2 on the short ones
    values = [dim.inner(weights[i], SIMPLES[i]) for i in range(4)]
    assert values == [1, 1, Fraction(1, 2), Fraction(1, 2)]
    # the cross pairings some sources misstate are actually zero
    assert dim.inner(weights[0], SIMPLES[2]) == 0
    assert dim.inner(weights[1], SIMPLES[3]) == 0


def test_weyl_vector_pairs_to_one():
    for i in range(4):
        assert 2 * dim.inner(RHO, SIMPLES[i]) / dim.GRAM4[i][i] == 1
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
    for root, form in zip(dim.positive_roots(), forms):
        assert form == tuple(2 * dim.inner(v, root) / dim.norm(root) for v in vectors)
    assert denominator == math.prod(c for _, _, c in forms)


def test_inexact_weyl_data_raises(monkeypatch):
    dim._coroot_forms.cache_clear()
    # a bogus root of norm 3: its coroot has coefficient 2/3 on alpha_1^vee
    assert dim.norm((1, 0, 1, 0)) == 3
    monkeypatch.setattr(dim, "positive_roots", lambda: ((1, 0, 1, 0),))
    with pytest.raises(ArithmeticError):
        dim._coroot_forms()
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
    assert report.binomial_route == report.convolution_route == report.product_route
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
