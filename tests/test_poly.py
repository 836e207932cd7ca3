"""Tests for exact polynomials, derivations, the dual involution, and weights."""

import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import poly, representation as rep
from f4poly.poly import Derivation, Polynomial
from helpers import (
    dense_matrix,
    exact_values,
    is_homogeneous,
    operator_cells,
    partial,
    plain_monomials,
    poly_from_json,
    reference_weight_table,
)


def x(i):
    return Polynomial.variable(i)


def random_poly(rng, nterms=4, max_var=8, max_deg=2):
    total = Polynomial.zero()
    for _ in range(nterms):
        term = Polynomial.constant(rng.randrange(-5, 6))
        for _ in range(rng.randrange(0, max_deg + 1)):
            term = term * x(rng.randrange(1, max_var + 1))
        total = total + term
    return total


# Values that are not an int, each refused by every constructor: the
# coefficients are integers, so a Fraction is refused even when it is whole.
INEXACT = [0.5, 0.0, 2.0, complex(1, 0), Decimal("0.5"), "1", Fraction(1, 2), Fraction(2, 1)]


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_polynomial_refuses_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        Polynomial({poly.ZERO_EXP: 1, (1,) + (0,) * 25: bad})


@pytest.mark.parametrize("flag", [True, False])
def test_bool_coefficients_are_refused(flag):
    """A bool is an int subclass but not a coefficient, as it is not an
    exponent entry: stored, True would serialize as "True"."""
    with pytest.raises(TypeError):
        Polynomial({poly.ZERO_EXP: flag})
    with pytest.raises(TypeError):
        Polynomial.monomial(poly.ZERO_EXP, flag)
    with pytest.raises(TypeError):
        Polynomial.constant(flag)
    with pytest.raises(TypeError):
        poly.from_pairs([(flag, (1,))])
    with pytest.raises(TypeError):
        Derivation([(0, 1, flag)])


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "combine",
    [
        lambda f, b: f + b,
        lambda f, b: b + f,
        lambda f, b: f - b,
        lambda f, b: b - f,
        lambda f, b: f * b,
        lambda f, b: b * f,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_bool_scalars_are_refused(combine, flag):
    """A bool scalar is refused by the arithmetic, as it is by the
    constructors, whichever side it stands on."""
    with pytest.raises(TypeError):
        combine(x(1), flag)


# Exponent keys that are not 26 nonnegative ints, and the error each raises.
MALFORMED_EXPONENTS = [
    ((1,), ValueError),
    ((0,) * 27, ValueError),
    ((-1,) + (0,) * 25, ValueError),
    ((0.5,) + (0,) * 25, TypeError),
    ((1.0,) + (0,) * 25, TypeError),
    ((True,) + (0,) * 25, TypeError),
]


@pytest.mark.parametrize(
    "exp, error",
    MALFORMED_EXPONENTS,
    ids=["1 entry", "27 entries", "negative", "0.5", "1.0", "True"],
)
def test_polynomial_refuses_malformed_exponents(exp, error):
    with pytest.raises(error):
        Polynomial({poly.ZERO_EXP: 1, exp: 1})
    with pytest.raises(error):
        Polynomial({exp: 0})
    with pytest.raises(error):
        Polynomial.monomial(exp)
    with pytest.raises(error):
        Polynomial.monomial(list(exp), 2)


@pytest.mark.parametrize("index", [0, -1, 27])
def test_from_pairs_refuses_a_variable_outside_1_to_26(index):
    with pytest.raises(ValueError):
        poly.from_pairs([(2, (1, 2)), (1, (3, index))])


# Variable indices that are not exactly an int, each in range by value.
NON_INT_INDICES = [True, 1.0, 1.5, Fraction(1, 1), Decimal("1")]


@pytest.mark.parametrize("bad", NON_INT_INDICES, ids=repr)
def test_variable_indices_must_be_ints(bad):
    """A bool or a whole float equals a valid index but is refused, as an
    exponent entry is: True would otherwise build x1, and a float cell
    would fail only later, in apply."""
    with pytest.raises(TypeError):
        Polynomial.variable(bad)
    with pytest.raises(TypeError):
        poly.from_pairs([(1, (bad,))])
    with pytest.raises(TypeError):
        Derivation.from_terms([(bad, 2, 1)])
    with pytest.raises(TypeError):
        Derivation.from_terms([(2, bad, 1)])
    with pytest.raises(TypeError):
        Derivation([(bad, 1, 1)])
    with pytest.raises(TypeError):
        Derivation([(0, bad, 1)])


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_from_pairs_refuses_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        poly.from_pairs([(2, (1, 2)), (bad, (1,))])


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_derivation_refuses_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        Derivation([(0, 1, 3), (4, 1, bad)])
    with pytest.raises(TypeError):
        Derivation.from_terms([(1, 2, bad)])


def test_degree_and_homogeneous():
    assert Polynomial.zero().degree() == -1
    assert Polynomial.constant(3).degree() == 0
    assert (x(1) * x(2) + x(3)).degree() == 2
    assert not is_homogeneous(x(1) * x(2) + x(3))
    assert is_homogeneous(x(1) * x(2) + x(3) ** 2)


def test_partial_derivative():
    p = x(1) ** 3 * x(2) + 2 * x(2)
    assert partial(p, 1) == 3 * x(1) ** 2 * x(2)
    assert partial(p, 2) == x(1) ** 3 + Polynomial.constant(2)
    assert partial(p, 3).is_zero()


def test_partial_product_rule():
    rng = random.Random(4242)
    for _ in range(20):
        f = random_poly(rng)
        g = random_poly(rng)
        v = rng.randrange(1, 9)
        assert partial(f * g, v) == partial(f, v) * g + f * partial(g, v)


# Operators and polynomials over a set of variables closed under the dual
# pairing (1<->26, 2<->25, 3<->24, 12<->15, 13 and 14 fixed), so that random
# operators and polynomials share variables often.
PAIRED_VARS = (1, 2, 3, 12, 13, 14, 15, 24, 25, 26)
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

variables = st.sampled_from(PAIRED_VARS) | st.integers(1, 26)
coeffs = st.sampled_from(exact_values(4))
monomials = st.lists(variables, max_size=3).map(
    lambda indices: Polynomial.monomial([indices.count(j) for j in range(1, 27)])
)
polynomials = st.lists(st.tuples(coeffs, monomials), max_size=4).map(
    lambda terms: sum((c * m for c, m in terms), Polynomial.zero())
)
derivations = st.lists(st.tuples(variables, variables, st.integers(-3, 3)), max_size=6).map(
    Derivation.from_terms
)


def assert_read_only(p):
    exp = next(iter(p.terms), poly.ZERO_EXP)
    with pytest.raises(TypeError):
        p.terms[exp] = 1
    with pytest.raises(TypeError):
        del p.terms[exp]
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(AttributeError):
        del p.terms


@PROPERTY_SETTINGS
@given(polynomials, polynomials, derivations, st.integers(0, 2))
def test_every_polynomial_is_read_only(f, g, op, k):
    before = (dict(f.terms), dict(g.terms))
    assert Polynomial.zero() + f is f
    builds = [
        lambda: Polynomial(f.terms),
        Polynomial.zero,
        lambda: Polynomial.constant(3),
        lambda: Polynomial.variable(5),
        lambda: Polynomial.monomial(next(iter(g.terms), poly.ZERO_EXP), 2),
        lambda: poly.from_pairs([(2, (1, 13)), (-1, (26,))]),
        lambda: f + g,
        lambda: f - g,
        lambda: f * g,
        lambda: 2 * f,
        lambda: 1 - f,
        lambda: f**k,
        lambda: -f,
        lambda: poly.dual(f),
        lambda: op(f),
        lambda: rep.apply_laplacian(f),
        lambda: Polynomial.zero() + f,
    ]
    for build in builds:
        assert_read_only(build())
        assert (dict(f.terms), dict(g.terms)) == before


@PROPERTY_SETTINGS
@given(polynomials, polynomials, polynomials)
def test_basic_arithmetic(f, g, h):
    p = x(1) + x(2)
    assert p * p == x(1) ** 2 + 2 * x(1) * x(2) + x(2) ** 2
    assert (p - p).is_zero()
    assert p - x(2) == x(1)
    assert 0 * p == Polynomial.zero()
    assert p * 0 == Polynomial.zero()
    assert (p + 0) == p
    assert Polynomial.constant(5) == 5
    assert Polynomial.zero() == 0
    zero, one = Polynomial.zero(), Polynomial.constant(1)
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and zero + f == f
    assert f * one == f and one * f == f
    assert f * zero == zero
    assert (f - f).is_zero()


def reference_apply(op, f):
    """The defining sum over the operator's cells of c * x_(i+1) * df/dx_(j+1)."""
    total = Polynomial.zero()
    for i, j, c in operator_cells(op):
        total = total + c * x(i + 1) * partial(f, j + 1)
    return total


@PROPERTY_SETTINGS
@given(derivations, polynomials, polynomials)
def test_derivation_apply_and_leibniz(op, f, g):
    simple = Derivation.from_terms([(1, 2, 1)])  # x1 * d/dx2
    assert simple(x(2)) == x(1)
    assert simple(x(2) ** 2) == 2 * x(1) * x(2)
    assert op(f) == reference_apply(op, f)
    assert op(f + g) == op(f) + op(g)
    assert op(f * g) == op(f) * g + f * op(g)


@PROPERTY_SETTINGS
@given(derivations, derivations, polynomials)
def test_derivation_commutator(a, b, f):
    c = a.commutator(b)
    assert c(f) == a(b(f)) - b(a(f))
    ma, mb = dense_matrix(operator_cells(a)), dense_matrix(operator_cells(b))
    product = [[sum(ma[i][k] * mb[k][j] for k in range(26)) for j in range(26)] for i in range(26)]
    reverse = [[sum(mb[i][k] * ma[k][j] for k in range(26)) for j in range(26)] for i in range(26)]
    assert dense_matrix(operator_cells(c)) == [
        [p - q for p, q in zip(*rows)] for rows in zip(product, reverse)
    ]
    assert Derivation(operator_cells(a)) == a


def test_derivation_matrix_roundtrip():
    op = Derivation.from_terms([(1, 2, 3), (5, 2, -1), (7, 26, 2)])
    assert op.columns == ((1, ((0, 3), (4, -1))), (25, ((6, 2),)))
    assert operator_cells(op) == ((0, 1, 3), (4, 1, -1), (6, 25, 2))
    assert Derivation(reversed(operator_cells(op))) == op


@pytest.mark.parametrize(
    "cell", [(26, 0, 1), (0, 26, 1), (-1, 0, 1)], ids=["row 26", "col 26", "row -1"]
)
def test_derivation_rejects_a_cell_outside_the_matrix(cell):
    with pytest.raises(ValueError):
        Derivation([cell])


@PROPERTY_SETTINGS
@given(polynomials, polynomials)
def test_dual_involution(f, g):
    assert poly.dual(x(1)) == x(26)
    assert poly.dual(x(12)) == x(15)
    assert poly.dual(x(13)) == -x(13)
    assert poly.dual(x(14)) == -x(14)
    assert poly.dual(x(13) * x(14)) == x(13) * x(14)
    assert poly.dual(poly.dual(f)) == f
    assert poly.dual(f * g) == poly.dual(f) * poly.dual(g)


@PROPERTY_SETTINGS
@given(derivations, polynomials)
def test_dual_op_is_conjugation(op, f):
    conj = poly.dual_op(op)
    for g in [f] + [x(k) for k in range(1, 27)]:
        assert conj(g) == poly.dual(op(poly.dual(g)))
    assert poly.dual_op(conj) == op


def test_variable_weights_pair_to_zero():
    for r in range(1, 13):
        w = poly.VARIABLE_WEIGHTS[r - 1]
        wbar = poly.VARIABLE_WEIGHTS[26 - r]
        assert tuple(a + b for a, b in zip(w, wbar)) == (0, 0, 0, 0)
    assert poly.VARIABLE_WEIGHTS[12] == (0, 0, 0, 0)
    assert poly.VARIABLE_WEIGHTS[13] == (0, 0, 0, 0)
    nonzero = [w for w in poly.VARIABLE_WEIGHTS if w != (0, 0, 0, 0)]
    assert len(nonzero) == 24
    assert len(set(nonzero)) == 24


def test_weight_of_monomials_and_mixed_error():
    w1 = poly.VARIABLE_WEIGHTS[0]
    assert poly.weight(x(1)) == w1
    assert poly.weight(x(1) * x(26)) == (0, 0, 0, 0)
    assert poly.weight(x(1) ** 2) == tuple(2 * a for a in w1)
    try:
        poly.weight(x(1) + x(2))
    except poly.WeightError as err:
        assert err.first != err.second
    else:
        assert False, "expected WeightError"
    try:
        poly.weight(Polynomial.zero())
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_monomial_enumeration_counts():
    for k in range(4):
        count = sum(1 for _ in poly.monomials_of_degree(k))
        assert count == comb(k + 25, 25)
    assert list(poly.monomials_of_degree(-1)) == []


def test_monomials_of_degree_matches_plain_enumeration():
    """The head and tail blocks join into the plain enumeration, order included."""
    for d in range(6):
        assert list(poly.monomials_of_degree(d)) == list(plain_monomials(d))


def test_degree_weight_table():
    table = poly.degree_weight_table(2)
    keys = list(table)
    assert keys == sorted(keys, reverse=True)
    for w, exps in table.items():
        assert min(w) >= 0
        for e in exps:
            assert sum(e) == 2
            assert poly.exponent_weight(e) == w
    # 12 dual-pair products plus the three quadratics in the two null variables
    assert len(table[(0, 0, 0, 0)]) == 15
    # x26 and x26^2 weigh (0, 0, 0, -1) and (0, 0, 0, -2): not dominant, so dropped
    assert (0, 0, 0, -2) not in table and (0, 0, 0, -1) not in poly.degree_weight_table(1)
    assert (9, 9, 9, 9) not in poly.degree_weight_table(1)
    with pytest.raises(ValueError):
        poly.degree_weight_table(-1)


def test_degree_weight_table_matches_plain_grouping():
    for d in range(5):
        groups = {}
        for exp in plain_monomials(d):
            groups.setdefault(poly.exponent_weight(exp), []).append(exp)
        expected = {w: tuple(groups[w]) for w in sorted(groups, reverse=True) if min(w) >= 0}
        table = poly.degree_weight_table(d)
        assert list(table.items()) == list(expected.items())


@pytest.mark.parametrize("d", range(7))
def test_degree_weight_table_matches_reference_walk(d):
    """Deciding dominance once per head gives the keys, their order and the
    blocks that weighing every monomial gives."""
    table = poly.degree_weight_table(d)
    expected = reference_weight_table(d)
    assert list(table) == list(expected)
    assert list(table.items()) == list(expected.items())


@pytest.mark.parametrize("d, blocks, monomials", [(4, 16, 709), (5, 25, 3174)])
def test_degree_weight_table_dominant_counts(d, blocks, monomials):
    table = poly.degree_weight_table(d)
    assert len(table) == blocks
    assert sum(len(block) for block in table.values()) == monomials
    assert all(min(w) >= 0 for w in table)


@st.composite
def weights_with_degree(draw):
    """(w, v, d): two weights whose components a degree-d monomial can reach."""
    d = draw(st.integers(0, 40))
    component = st.integers(-2 * d, 2 * d)
    w = draw(st.tuples(component, component, component, component))
    v = draw(st.tuples(component, component, component, component))
    return w, v, d


@PROPERTY_SETTINGS
@given(weights_with_degree())
def test_pack_weight_round_trips_and_keeps_order(case):
    w, v, d = case
    assert poly.unpack_weight(poly.pack_weight(w, d), d) == w
    assert (poly.pack_weight(w, d) < poly.pack_weight(v, d)) == (w < v)


def test_degree_weight_table_is_read_only():
    table = poly.degree_weight_table(1)
    with pytest.raises(AttributeError):
        table.clear()
    with pytest.raises(TypeError):
        table[(0, 0, 0, 1)] = ()
    with pytest.raises(TypeError):
        del table[(0, 0, 0, 0)]
    x1, x13, x14 = (tuple(int(j == i) for j in range(26)) for i in (0, 12, 13))
    again = poly.degree_weight_table(1)
    expected = [((0, 0, 0, 1), (x1,)), ((0, 0, 0, 0), (x13, x14))]
    assert list(again.items()) == list(table.items()) == expected


def test_json_roundtrip():
    f = 3 * x(1) * x(26) - 5 * x(13) ** 2 + Polynomial.constant(7)
    data = poly.poly_to_json(f)
    assert all(set(rec) == {"exp", "num", "den"} for rec in data)
    assert [rec["den"] for rec in data] == ["1"] * 3
    assert poly_from_json(data) == f
