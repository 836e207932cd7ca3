"""Tests for the 78-dimensional algebra, its involution, and the fold to rank 4."""

from fractions import Fraction

import pytest

from f4poly import algebra, lattice, poly
from f4poly.algebra import AlgebraElement, bracket
from helpers import invariant_positive_roots, moved_positive_orbits, rank_of_vectors


def test_labels_and_element_arithmetic():
    labs = algebra.labels()
    assert labs[0] == ("h", 1)
    h1 = AlgebraElement.coroot(1)
    e = AlgebraElement.root_vector(lattice.simple_root(1))
    combo = 2 * h1 - e
    assert combo.terms[("h", 1)] == 2
    assert combo - combo == AlgebraElement.zero()
    assert Fraction(1, 2) * (2 * e) == e


def test_bracket_conventions():
    a1 = lattice.simple_root(1)
    a3 = lattice.simple_root(3)
    h1 = AlgebraElement.coroot(1)
    e1 = AlgebraElement.root_vector(a1)
    # Diagonal action: [h, e_a] = (h, a) e_a.
    assert bracket(h1, e1) == 2 * e1
    assert bracket(AlgebraElement.coroot(3), e1) == -e1
    assert bracket(AlgebraElement.coroot(2), e1) == AlgebraElement.zero()
    # Opposite root vectors bracket to the negated coroot combination.
    f1 = AlgebraElement.root_vector(lattice.neg(a1))
    assert bracket(e1, f1) == -h1
    # Root addition picks up the sign cocycle.
    e3 = AlgebraElement.root_vector(a3)
    sum_root = lattice.add(a1, a3)
    assert bracket(e1, e3) == -AlgebraElement.root_vector(sum_root)
    assert bracket(e3, e1) == AlgebraElement.root_vector(sum_root)
    # Non-root sums vanish.
    e5 = AlgebraElement.root_vector(lattice.simple_root(5))
    assert bracket(e1, e5) == AlgebraElement.zero()


def test_involution_is_order_two_automorphism():
    # that it preserves the bracket is a named algebra check
    for lab in algebra.labels():
        e = AlgebraElement._raw({lab: 1})
        assert algebra.involution(algebra.involution(e)) == e


def test_cached_tables_are_read_only():
    table = algebra.structure_table()
    with pytest.raises(TypeError):
        table[0][7][7] = 1
    cell = table[0][11]
    assert cell == {11: -1}
    with pytest.raises(TypeError):
        cell[11] = 0
    with pytest.raises(TypeError):
        del cell[11]
    index = algebra.label_index()
    with pytest.raises(TypeError):
        index[("h", 1)] = 5
    roots = algebra._module_root_index()
    with pytest.raises(TypeError):
        roots[lattice.ZERO] = (1, 1)
    assert not algebra.structure_table()[0][7]
    assert algebra.structure_table()[0][11] == {11: -1}
    assert algebra.label_index()[("h", 1)] == 0
    assert lattice.ZERO not in algebra._module_root_index()


def test_positive_root_split():
    invariant = invariant_positive_roots()
    orbits = moved_positive_orbits()
    assert len(invariant) == 12
    assert len(orbits) == 12
    assert len({r for pair in orbits for r in pair}) == 24
    assert len(invariant) + 2 * len(orbits) == 36


def test_fold_and_fibers():
    seen = set()
    for root4 in algebra.F4_POSITIVE:
        fiber = algebra.f4_fiber(root4)
        for beta in fiber:
            assert algebra.fold(beta) == root4
            assert beta in lattice.root_set()
            seen.add(beta)
        assert len(fiber) in (1, 2)
        if len(fiber) == 2:
            assert lattice.diagram_involution(fiber[0]) == fiber[1]
        else:
            assert lattice.diagram_involution(fiber[0]) == fiber[0]
    assert len(algebra.F4_POSITIVE) == 24
    assert len(set(algebra.F4_POSITIVE)) == 24
    singles = [r for r in algebra.F4_POSITIVE if len(algebra.f4_fiber(r)) == 1]
    doubles = [r for r in algebra.F4_POSITIVE if len(algebra.f4_fiber(r)) == 2]
    assert len(singles) == 12 and len(doubles) == 12
    # The fibers cover the invariant positives and the moved orbits exactly.
    assert {r for r in seen if lattice.diagram_involution(r) == r} == set(
        invariant_positive_roots()
    )
    assert len(seen) == 36


def test_folded_generators_are_involution_fixed():
    for root4 in algebra.F4_POSITIVE:
        for sign in (1, -1):
            g = algebra.f4_root_vector(root4, sign)
            assert algebra.involution(g) == g
    for i in range(1, 5):
        h = algebra.f4_cartan(i)
        assert algebra.involution(h) == h


def test_module_basis_is_odd_and_independent():
    vectors = []
    for i in range(1, 27):
        v = algebra.v_basis(i)
        assert algebra.involution(v) == -v
        vectors.append(v.coordinates())
    assert rank_of_vectors(vectors) == 26


def test_decompose_v_roundtrip_and_rejection():
    combo = AlgebraElement.zero()
    for i, c in ((1, 3), (13, -2), (26, 1), (7, Fraction(1, 2))):
        combo = combo + c * algebra.v_basis(i)
    coords = algebra.decompose_v(combo)
    assert coords[1] == 3 and coords[13] == -2 and coords[26] == 1
    assert coords[7] == Fraction(1, 2)
    try:
        algebra.decompose_v(AlgebraElement.coroot(2))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"
    # A root vector at an involution-fixed root is outside the module.
    try:
        algebra.decompose_v(AlgebraElement.root_vector(lattice.simple_root(2)))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_ad_on_v_requires_fixed_element():
    try:
        algebra.ad_on_v(AlgebraElement.root_vector(lattice.simple_root(1)))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_cartan_action_is_diagonal_with_module_weights():
    for i in range(1, 5):
        matrix = algebra.ad_on_v(algebra.f4_cartan(i))
        for r in range(26):
            for s in range(26):
                expected = poly.VARIABLE_WEIGHTS[r][i - 1] if r == s else 0
                assert matrix[r][s] == expected


def test_ad_is_a_representation():
    pairs = [
        (algebra.f4_cartan(1), algebra.f4_root_vector((0, 0, 1, 0), 1)),
        (algebra.f4_root_vector((1, 0, 0, 0), 1), algebra.f4_root_vector((0, 1, 0, 0), -1)),
        (algebra.f4_root_vector((0, 0, 0, 1), 1), algebra.f4_root_vector((0, 0, 0, 1), -1)),
        (algebra.f4_root_vector((0, 0, 1, 0), 1), algebra.f4_root_vector((0, 1, 2, 2), 1)),
    ]
    for g, h in pairs:
        gh = bracket(g, h)
        left = algebra.ad_on_v(gh)
        mg = algebra.ad_on_v(g)
        mh = algebra.ad_on_v(h)
        commutator = [
            [
                sum(mg[r][t] * mh[t][s] for t in range(26))
                - sum(mh[r][t] * mg[t][s] for t in range(26))
                for s in range(26)
            ]
            for r in range(26)
        ]
        assert left == commutator


def test_simple_pair_brackets_give_negated_diagonal():
    for i, root4 in enumerate(algebra.F4_SIMPLE, start=1):
        plus = algebra.f4_root_vector(root4, 1)
        minus = algebra.f4_root_vector(root4, -1)
        assert bracket(plus, minus) == -algebra.f4_cartan(i)


def test_folded_generator_count_is_52():
    vectors = []
    for i in range(1, 5):
        vectors.append(algebra.f4_cartan(i).coordinates())
    for root4 in algebra.F4_POSITIVE:
        vectors.append(algebra.f4_root_vector(root4, 1).coordinates())
        vectors.append(algebra.f4_root_vector(root4, -1).coordinates())
    assert len(vectors) == 52
    assert rank_of_vectors(vectors) == 52
