"""Tests for the rank-6 root lattice, diagram involution, and sign cocycle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import lattice
from helpers import plain_roots

VECTORS = st.tuples(*[st.integers(-5, 5)] * 6)


def test_gram_matrix_shape():
    assert len(lattice.GRAM) == 6
    for i in range(6):
        assert lattice.GRAM[i][i] == 2
        for j in range(6):
            assert lattice.GRAM[i][j] == lattice.GRAM[j][i]
    bonds = {(i, j) for i in range(6) for j in range(i + 1, 6) if lattice.GRAM[i][j] == -1}
    assert bonds == {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}


def test_simple_roots():
    for i in range(1, 7):
        root = lattice.simple_root(i)
        assert lattice.inner(root, root) == 2
        assert root in lattice.root_set()
    try:
        lattice.simple_root(7)
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_root_count_and_norms():
    roots = lattice.all_roots()
    assert len(set(roots)) == 72
    for root in roots:
        assert lattice.inner(root, root) == 2
        assert lattice.neg(root) in lattice.root_set()


def test_reflection_closure_matches_enumeration():
    assert lattice.roots_by_reflection_closure() == lattice.all_roots()


def test_box_scan_matches_the_plain_scan():
    assert lattice.all_roots.__wrapped__() == plain_roots() == lattice.roots_by_reflection_closure()


def test_highest_root():
    assert lattice.HIGHEST_ROOT in lattice.root_set()
    for root in lattice.positive_roots():
        diff = lattice.add(lattice.HIGHEST_ROOT, lattice.neg(root))
        assert all(k >= 0 for k in diff)


def test_positive_roots():
    positives = lattice.positive_roots()
    assert len(positives) == 36
    rset = lattice.root_set()
    for root in positives:
        assert root in rset
        assert lattice.neg(root) not in positives


def test_involution_is_lattice_symmetry():
    # that it permutes the roots isometrically is a named lattice check
    for u in lattice.all_roots():
        assert lattice.diagram_involution(lattice.diagram_involution(u)) == u


def test_involution_on_simple_roots():
    images = [lattice.diagram_involution(lattice.simple_root(i)) for i in range(1, 7)]
    expected = [lattice.simple_root(i) for i in (6, 2, 5, 4, 3, 1)]
    assert images == expected


def test_cocycle_values_on_simple_pairs():
    a1 = lattice.simple_root(1)
    a3 = lattice.simple_root(3)
    assert lattice.cocycle(a1, a1) == -1
    assert lattice.cocycle(a1, a3) == -1
    assert lattice.cocycle(a3, a1) == 1


def test_cocycle_is_bimultiplicative():
    roots = lattice.all_roots()
    sample = roots[::7]
    for u in sample:
        for v in sample:
            for w in sample:
                left = lattice.cocycle(lattice.add(u, v), w)
                assert left == lattice.cocycle(u, w) * lattice.cocycle(v, w)
                right = lattice.cocycle(u, lattice.add(v, w))
                assert right == lattice.cocycle(u, v) * lattice.cocycle(u, w)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(VECTORS, VECTORS)
def test_cocycle_is_the_parity_of_the_form(u, v):
    form = sum(u[i] * lattice.COCYCLE_FORM[i][j] * v[j] for i in range(6) for j in range(6))
    assert lattice.cocycle(u, v) == (-1) ** (form % 2)
