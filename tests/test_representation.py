"""Tests for the 26-variable differential-operator realization."""

from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import algebra, dimensions, errata, poly, representation as rep
from f4poly.poly import Derivation, Polynomial
from helpers import (
    dense_matrix,
    exact_values,
    operator_cells,
    partial,
    predicted_weight_counts,
    reference_block_rows,
)

X = Polynomial.variable
A1, A2, A3, A4 = algebra.F4_SIMPLE


def test_operator_labels():
    labels = rep.operator_labels()
    assert len(set(labels)) == 52
    assert sum(1 for l in labels if l[0] == "e") == 48
    assert sum(1 for l in labels if l[0] == "h") == 4


def test_transcribed_operator_examples():
    assert errata.transcribed_operator(("e", A2, 1)).apply(X(4)) == X(3)
    assert errata.transcribed_operator(("e", A1, -1)).apply(X(4)) == -X(6)
    assert errata.transcribed_operator(("h", 1)).apply(X(6)) == -X(6)


def test_operators_preserve_degree_and_cartans_are_diagonal():
    f = X(3) * X(17) + 2 * X(13) ** 2
    for label in rep.operator_labels():
        g = rep.operator(label).apply(f)
        assert g.is_zero() or g.degree() == 2
    for i in range(1, 5):
        assert all(r == s for r, s, _ in operator_cells(rep.operator(("h", i))))


def test_cached_operators_are_immutable():
    op = rep.operator(("h", 1))
    before = op.columns
    assert (3, 3, 1) in operator_cells(op)
    with pytest.raises(TypeError):
        op.columns[0] = (0, ())
    with pytest.raises(AttributeError):
        op.columns = ()
    with pytest.raises(AttributeError):
        del op.columns
    assert rep.operator(("h", 1)).columns == before


def test_cached_quadratic_copy_is_immutable():
    f = rep.zeta(1)
    before = dict(f.terms)
    exp = next(iter(before))
    with pytest.raises(TypeError):
        f.terms[exp] = 0
    with pytest.raises(TypeError):
        del f.terms[exp]
    for method in ("clear", "pop", "popitem", "update", "setdefault"):
        assert not hasattr(f.terms, method)
    assert rep.zeta(1).terms == before
    assert rep.theta() == errata.theta_printed()


def test_cached_quadratic_copy_cannot_be_rebound():
    f = rep.zeta(1)
    before = dict(f.terms)
    with pytest.raises(AttributeError):
        f.terms = {}
    with pytest.raises(AttributeError):
        del f.terms
    assert rep.zeta(1) is f
    assert f.terms == before
    assert rep.theta() == errata.theta_printed()
    # Polynomials built from the cached one are read-only too.
    g = 2 * f
    with pytest.raises(AttributeError):
        g.terms = {}
    with pytest.raises(TypeError):
        g.terms[next(iter(before))] = 0
    assert g == 2 * f and rep.zeta(1).terms == before


@pytest.mark.parametrize("generator", [rep.theta, rep.eta1, rep.eta2], ids=lambda g: g.__name__)
def test_cached_generators_are_read_only(generator):
    f = generator()
    before = dict(f.terms)
    with pytest.raises(TypeError):
        f.terms[next(iter(before))] = 0
    with pytest.raises(AttributeError):
        f.terms = {}
    with pytest.raises(AttributeError):
        del f.terms
    assert generator() is f and f.terms == before


def test_harmonic_bound_builds_the_cubic_invariant_at_most_once():
    rep.eta2.cache_clear()
    rep.harmonic_summand_bound(5)
    assert rep.eta2.cache_info().misses <= 1


def test_cached_errata_records_are_read_only():
    record = errata.validate_table()[0]
    with pytest.raises(AttributeError):
        record.oracle = "0"
    with pytest.raises(TypeError):
        record[4] = "0"
    with pytest.raises(TypeError):
        del record[0]
    assert errata.validate_table()[0].oracle == "-1"


def test_errata_records_are_named_tuples_in_table_order():
    records = errata.validate_table()
    assert type(records) is tuple and len(records) == 4
    assert all(type(record) is errata.TableErratum for record in records)
    position = {rep.label_string(label): k for k, label in enumerate(rep.operator_labels())}
    keys = [(position[record.label], record.row, record.col) for record in records]
    assert keys == sorted(set(keys))


def _dense_errata(transcribed):
    """The errata as a dense diff: every entry of the two 26x26 matrices,
    operator by operator, row by row."""
    records = []
    for label in rep.operator_labels():
        printed = dense_matrix(operator_cells(transcribed(label)))
        derived = dense_matrix(operator_cells(rep.oracle_operator(label)))
        for r in range(26):
            for s in range(26):
                if printed[r][s] != derived[r][s]:
                    a, b = str(Fraction(printed[r][s])), str(Fraction(derived[r][s]))
                    records.append((rep.label_string(label), r + 1, s + 1, a, b))
    return tuple(records)


def test_errata_match_the_dense_diff_with_planted_operators(monkeypatch):
    """Two operators transcribed as zero put all 18 and 12 of their oracle
    cells among the errata, in the order of the dense diff."""
    printed = errata.transcribed_operator
    planted = {("h", 3), ("e", (1, 2, 3, 1), 1)}

    def transcribed(label):
        return Derivation() if label in planted else printed(label)

    monkeypatch.setattr(errata, "transcribed_operator", transcribed)
    errata.validate_table.cache_clear()
    try:
        records = errata.validate_table()
    finally:
        errata.validate_table.cache_clear()
    assert len(records) == 4 + 18 + 12
    assert records == _dense_errata(transcribed)


def test_every_other_operator_matches_oracle():
    flagged = {r.label for r in errata.validate_table()}
    for label in rep.operator_labels():
        if rep.label_string(label) in flagged:
            continue
        assert errata.transcribed_operator(label) == rep.operator(label)


def test_simple_pair_commutators_equal_minus_cartan():
    for i, root in enumerate(algebra.F4_SIMPLE, start=1):
        raising = errata.transcribed_operator(("e", root, 1))
        lowering = errata.transcribed_operator(("e", root, -1))
        comm = raising.commutator(lowering)
        cartan = errata.transcribed_operator(("h", i))
        assert operator_cells(comm) == tuple((r, s, -c) for r, s, c in operator_cells(cartan))


def test_lowering_operators_are_mirror_conjugates():
    for root in algebra.F4_POSITIVE:
        raising = rep.operator(("e", root, 1))
        lowering = rep.operator(("e", root, -1))
        assert poly.dual_op(raising) == lowering
    for printed, root in zip(errata.LOWERING_SIMPLE_TERMS, algebra.F4_SIMPLE):
        assert Derivation.from_terms(printed) == errata.transcribed_operator(("e", root, -1))


def test_zeta_seed_and_recursion():
    assert rep.zeta(1) == poly.from_pairs(
        ((2, (1, 13)), (1, (1, 14)), (-3, (2, 12)), (-3, (3, 10)), (3, (4, 8)), (-3, (5, 6)))
    )
    lower4 = rep.operator(("e", A4, -1))
    assert lower4.apply(rep.zeta(1)) == rep.zeta(2)


def test_zeta_mirror_rule_needs_the_sign_flip():
    for r in range(15, 27):
        mirrored = poly.dual(rep.zeta(27 - r))
        assert rep.zeta(r) == -mirrored
        assert rep.zeta(r) != mirrored


def test_zeta_members_are_a_weight_basis():
    assert poly.weight(rep.zeta(1)) == (0, 0, 0, 1)
    vectors = [rep.zeta(r) for r in range(1, 27)]
    assert rep.polys_rank(vectors) == 26


def test_theta_matches_printed_and_is_singular():
    # that theta matches its printed form is a named invariants check
    assert poly.weight(rep.theta()) == (0, 0, 1, 0)
    for op in rep.simple_raising():
        assert op.apply(rep.theta()).is_zero()
        assert op.apply(rep.zeta(1)).is_zero()
        assert op.apply(X(1)).is_zero()


def test_invariants_annihilated_by_all_operators():
    eta1, eta2 = rep.eta1(), rep.eta2()
    assert poly.weight(eta1) == (0, 0, 0, 0)
    assert poly.weight(eta2) == (0, 0, 0, 0)
    # the 48 root operators are the named invariants checks; here the diagonal ones
    for i in range(1, 5):
        op = rep.operator(("h", i))
        assert op.apply(eta1).is_zero()
        assert op.apply(eta2).is_zero()


def test_printed_cubic_expansion_is_not_invariant():
    printed = errata.eta2_printed()
    assert rep.eta2() != printed
    lower3 = rep.operator(("e", A3, -1))
    assert not lower3.apply(printed).is_zero()


def test_elimination_identities():
    checks = {c.name: c for c in errata.verify_elimination_identities()}
    assert len(checks) == 10
    verbatim = {name for name, c in checks.items() if c.holds}
    assert verbatim == {
        "x1*x14",
        "3*x1*x15",
        "3*x1*x17",
        "3*x1*x19",
        "3*x1*x21",
        "3*x1*x22",
        "3*x1*x24",
        "3*x2*x25 + 3*x1*x26",
    }
    for name in ("3*x1*x23", "long elimination of x25/x26"):
        check = checks[name]
        assert not check.holds
        assert check.correction
        assert check.holds_with_correction
    assert checks["3*x1*x23"].diff == 6 * X(1) * X(23)


def test_elimination_correction_is_checked(monkeypatch):
    """A wrong head breaks the sign-slipped identity in both readings."""
    exact = rep.zeta
    monkeypatch.setattr(rep, "zeta", lambda r: exact(r) + X(1) ** 2 if r == 8 else exact(r))
    checks = {c.name: c for c in errata.verify_elimination_identities()}
    assert not checks["3*x1*x23"].holds
    assert not checks["3*x1*x23"].holds_with_correction
    assert checks["long elimination of x25/x26"].holds_with_correction


def test_formula_errata_labels():
    labels = [r["label"] for r in errata.formula_errata()]
    assert labels.count("cubic invariant expansion") == 1
    assert labels.count("invariant second-order operator") == 1
    mirror = [l for l in labels if l.endswith("mirror rule")]
    assert len(mirror) == 12
    elimination = [l for l in labels if l.startswith("elimination identity")]
    assert len(elimination) == 2


def test_predicted_counts():
    assert [predicted_weight_counts(k) and sum(predicted_weight_counts(k).values()) for k in range(5)] == [
        1,
        1,
        3,
        5,
        8,
    ]
    assert rep.predicted_weight((0, 0, 1, 0, 2)) == (0, 0, 1, 0)
    assert rep.predicted_weight((1, 1, 0, 0, 0)) == (0, 0, 0, 2)


def test_singular_vectors_degrees_0_to_3():
    expected_totals = {0: 1, 1: 1, 2: 3, 3: 5}
    for degree, total in expected_totals.items():
        report = rep.singular_vectors(degree)
        assert report.total == total
        assert report.predicted == total
        for entry in report.entries:
            assert entry.dim == len(entry.basis)
            for vector in entry.basis:
                assert poly.weight(vector) == entry.weight
        assert rep.products_span_kernels(report)


def test_singular_weights_match_generator_predictions():
    report = rep.singular_vectors(3)
    found = {entry.weight: entry.dim for entry in report.entries}
    assert found == predicted_weight_counts(3)


def test_block_rows_match_derivation_apply_assembly(monkeypatch):
    """The rows singular_vectors hands to nullspace, assembled on monomial
    codes, are the rows Derivation.apply gives, in order, block by block."""
    nullspace = rep.linalg.nullspace
    seen = []

    def recording_nullspace(rows, ncols):
        seen.append(rows)
        return nullspace(rows, ncols)

    monkeypatch.setattr(rep.linalg, "nullspace", recording_nullspace)
    for degree in range(5):
        seen.clear()
        rep.singular_vectors(degree)
        blocks = poly.degree_weight_table(degree).values()
        assert seen == [reference_block_rows(monomials) for monomials in blocks]


def test_raiser_check_rejects_a_vector_outside_the_kernel(monkeypatch):
    """A 'kernel' vector that some simple operator does not kill must make the
    cross-check against the 20 non-simple raisers raise."""

    def unit_vector_in_a_row(rows, ncols):
        if not rows:
            return []
        j = min(rows[0])
        return [tuple(int(c == j) for c in range(ncols))]

    monkeypatch.setattr(rep.linalg, "nullspace", unit_vector_in_a_row)
    with pytest.raises(ArithmeticError):
        rep.singular_vectors(2)


def test_generator_products_are_singular_through_degree_5():
    raising = rep.simple_raising()
    for exps in dimensions.generator_exponents(5) + dimensions.generator_exponents(4):
        product = rep.generator_product(exps)
        for op in raising:
            assert op.apply(product).is_zero()


def reference_laplacian(terms, f):
    """The sum of c * d_a d_b f over the terms (a, b, c), from second partials."""
    total = Polynomial.zero()
    for a, b, c in terms:
        total = total + c * partial(partial(f, a), b)
    return total


# Polynomials rich in the Laplacian's own terms: products of powers of the
# null variables x13 and x14 up to the fifth, powers of mirror pairs
# xr * x(27-r) up to the third, differences of two mirror pairs (on which the
# constant parts of the image cancel), and single variables.
laplacian_factors = st.one_of(
    st.tuples(st.sampled_from((13, 14)), st.integers(1, 5)).map(lambda vk: X(vk[0]) ** vk[1]),
    st.tuples(st.integers(1, 12), st.integers(1, 3)).map(
        lambda rk: (X(rk[0]) * X(27 - rk[0])) ** rk[1]
    ),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(
        lambda rs: X(rs[0]) * X(27 - rs[0]) - X(rs[1]) * X(27 - rs[1])
    ),
    st.integers(1, 26).map(X),
)
laplacian_coeffs = st.sampled_from(exact_values(3))
laplacian_terms = st.tuples(laplacian_coeffs, st.lists(laplacian_factors, max_size=3)).map(
    lambda cf: cf[0] * prod(cf[1], start=Polynomial.constant(1))
)
laplacian_polynomials = st.lists(laplacian_terms, max_size=4).map(
    lambda terms: sum(terms, Polynomial.zero())
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(laplacian_polynomials)
def test_apply_laplacian_matches_second_partials(f):
    assert rep.apply_laplacian(f) == reference_laplacian(rep.laplacian(), f)


def test_laplacian_printed_block_differs_and_fails():
    assert rep.laplacian() != errata.laplacian_printed()
    printed_terms = dict(((a, b), c) for a, b, c in errata.laplacian_printed())
    derived_terms = dict(((a, b), c) for a, b, c in rep.laplacian())
    assert printed_terms[(13, 14)] == -1
    assert derived_terms[(13, 14)] == 3
    product = rep.zeta(1) * rep.theta()
    assert not reference_laplacian(errata.laplacian_printed(), product).is_zero()
    assert rep.apply_laplacian(product).is_zero()


def test_laplacian_point_values():
    assert rep.apply_laplacian(X(1) * X(26)) == Polynomial.constant(3)
    assert rep.apply_laplacian(rep.eta1()) == Polynomial.constant(117)
    assert rep.apply_laplacian(X(13) ** 2) == Polynomial.constant(-6)
    assert rep.apply_laplacian(X(13) * X(14)) == Polynomial.constant(3)


def test_laplacian_basis_check_rejects_negative_degree():
    with pytest.raises(ValueError):
        rep.laplacian_commutes_on_degree(-1)


# x1*d1, x13*d14 and x1*d26 as 0-based (i, j, c) cells; none commutes with the Laplacian.
PLANTED = ((0, 0, 1), (12, 13, 1), (0, 25, 1))


@pytest.mark.parametrize("cell", PLANTED)
@pytest.mark.parametrize("degree", [2, 3])
def test_laplacian_basis_check_rejects_a_planted_operator(monkeypatch, cell, degree):
    planted = Derivation([cell])
    assert rep.laplacian_commutator_symbol(planted) != {}
    labels, operator = rep.operator_labels(), rep.operator
    # Last at degree 2, so the whole sweep runs; first at degree 3, to keep the test short.
    order = labels + ["planted"] if degree == 2 else ["planted"] + labels
    monkeypatch.setattr(rep, "operator_labels", lambda: order)
    monkeypatch.setattr(rep, "operator", lambda label: planted if label == "planted" else operator(label))
    assert rep.laplacian_commutes_on_degree(degree) is False


def test_laplacian_annihilates_generator_products():
    for k1 in range(0, 6):
        for k2 in range(0, 2):
            if 0 < k1 + 3 * k2 <= 5:
                product = X(1) ** k1 * rep.theta() ** k2
                assert rep.apply_laplacian(product).is_zero()
    for m1 in range(0, 4):
        for m2 in range(0, 2):
            if m1 + 2 + 3 * m2 <= 5:
                product = X(1) ** m1 * rep.zeta(1) * rep.theta() ** m2
                assert rep.apply_laplacian(product).is_zero()


def test_harmonic_summand_bounds():
    expected = {2: 2, 3: 3, 4: 3, 5: 4}
    for degree, bound in expected.items():
        assert rep.harmonic_summand_bound(degree)[0] == bound
