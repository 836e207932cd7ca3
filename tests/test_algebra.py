"""Tests for the 78-dimensional algebra, its involution, and the fold to rank 4."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import algebra, lattice, poly
from f4poly.algebra import bracket
from helpers import (
    combine,
    dense,
    dense_matrix,
    invariant_positive_roots,
    moved_positive_orbits,
    operator_cells,
    rank_of_vectors,
    reference_jacobi_failures,
    relabel,
    root_vector,
)

GENERATOR_LABELS = [("h", i) for i in range(1, 5)] + [
    ("e", root4, sign) for root4 in algebra.F4_POSITIVE for sign in (1, -1)
]


def _coroot(i):
    return ((i - 1, 1),)


def test_bracket_conventions():
    a1 = lattice.simple_root(1)
    a3 = lattice.simple_root(3)
    h1 = _coroot(1)
    e1 = root_vector(a1)
    # Diagonal action: [h, e_a] = (h, a) e_a.
    assert bracket(h1, e1) == combine((2, e1))
    assert bracket(_coroot(3), e1) == combine((-1, e1))
    assert bracket(_coroot(2), e1) == ()
    # Opposite root vectors bracket to the negated coroot combination.
    f1 = root_vector(lattice.neg(a1))
    assert bracket(e1, f1) == combine((-1, h1))
    # Root addition picks up the sign cocycle.
    e3 = root_vector(a3)
    sum_root = lattice.add(a1, a3)
    assert bracket(e1, e3) == combine((-1, root_vector(sum_root)))
    assert bracket(e3, e1) == root_vector(sum_root)
    # Non-root sums vanish.
    e5 = root_vector(lattice.simple_root(5))
    assert bracket(e1, e5) == ()


def test_involution_is_order_two_automorphism():
    # that it preserves the bracket is a named algebra check
    for i in range(algebra.DIM):
        assert relabel(relabel(((i, 1),))) == ((i, 1),)


def test_cached_tables_are_read_only():
    table = algebra.structure_table()
    with pytest.raises(TypeError):
        table[0][7][7] = 1
    cell = table[0][11]
    assert cell == ((11, -1),)
    with pytest.raises(TypeError):
        cell[11] = 0
    with pytest.raises(TypeError):
        del cell[11]
    index = algebra.label_index()
    with pytest.raises(TypeError):
        index[("h", 1)] = 5
    leads = algebra._module_leads()
    with pytest.raises(TypeError):
        leads[0] = (14, 1)
    assert not algebra.structure_table()[0][7]
    assert algebra.structure_table()[0][11] == ((11, -1),)
    assert algebra.labels()[0] == ("h", 1)
    assert algebra.label_index()[("h", 1)] == 0
    assert algebra._module_leads()[0] == (13, 1)


def _assert_cell(cell):
    """A well-formed ``Cell``: a tuple of (int index, nonzero int coefficient)
    pairs with strictly increasing indices."""
    assert type(cell) is tuple
    for pair in cell:
        assert type(pair) is tuple and len(pair) == 2
        assert type(pair[0]) is int and type(pair[1]) is int and pair[1] != 0
    indices = [k for k, _ in cell]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert all(0 <= k < algebra.DIM for k in indices)


def test_structure_table_and_sigma_shape():
    table = algebra.structure_table()
    assert type(table) is tuple and len(table) == algebra.DIM
    for row in table:
        assert type(row) is tuple and len(row) == algebra.DIM
        for cell in row:
            _assert_cell(cell)
    perm = algebra.sigma()
    assert sorted(perm) == list(range(algebra.DIM))
    assert all(perm[perm[i]] == i for i in range(algebra.DIM))
    assert sum(perm[i] == i for i in range(algebra.DIM)) == 26
    # sigma is the diagram flip read on labels: coroots follow the simple roots.
    labs = algebra.labels()
    for i, (kind, value) in enumerate(labs):
        if kind == "h":
            image = lattice.diagram_involution(lattice.simple_root(value))
            assert labs[perm[i]] == ("h", image.index(1) + 1)
        else:
            assert labs[perm[i]] == ("e", lattice.diagram_involution(value))


def test_generators_module_basis_and_brackets_are_cells():
    generators = [algebra.f4_generator(label) for label in GENERATOR_LABELS]
    module = [algebra.v_basis(i) for i in range(1, 27)]
    for cell in generators + module:
        _assert_cell(cell)
        assert cell != ()
        assert bracket(cell, cell) == ()
    # Every generator with every module element, and a spread of other pairs.
    for g in generators:
        for v in module:
            _assert_cell(bracket(g, v))
    for g, h in zip(generators, generators[7:] + generators[:7]):
        _assert_cell(bracket(g, h))
    for v, w in zip(module, module[5:] + module[:5]):
        _assert_cell(bracket(v, w))


def _first_moved_cell(kind):
    """First cell [b_i, b_j], i < j, whose pair the involution moves: of a
    coroot with a root vector, of two root vectors giving a root vector, or of
    opposite root vectors giving coroots."""
    table = algebra.structure_table()
    perm = algebra.sigma()
    for i in range(algebra.DIM):
        for j in range(i + 1, algebra.DIM):
            cell = table[i][j]
            if not cell or (perm[i], perm[j]) == (i, j):
                continue
            found = {
                "coroot-root": i < 6,
                "root-root": i >= 6 and cell[0][0] >= 6,
                "opposite-roots": i >= 6 and len(cell) > 1,
            }[kind]
            if found:
                return i, j
    raise AssertionError(f"no {kind} cell")


# The first triple (i, j, k) the Jacobi sweep reports for each planted cell.
FIRST_JACOBI_FAILURE = {
    "coroot-root": (0, 6, 56),
    "root-root": (1, 6, 54),
    "opposite-roots": (2, 9, 74),
}


@pytest.mark.parametrize("kind", ["coroot-root", "root-root", "opposite-roots"])
def test_sweeps_report_a_negated_cell(monkeypatch, kind):
    i, j = _first_moved_cell(kind)
    rows = [list(row) for row in algebra.structure_table()]
    rows[i][j] = tuple((k, -c) for k, c in rows[i][j])
    planted = tuple(map(tuple, rows))
    monkeypatch.setattr(algebra, "structure_table", lambda: planted)
    labs = algebra.labels()
    perm = algebra.sigma()
    failures = algebra.involution_is_automorphism_failures()
    assert set(failures) == {(labs[i], labs[j]), (labs[perm[i]], labs[perm[j]])}
    assert algebra.antisymmetry_failures() >= 1
    first = algebra.jacobi_failures.__wrapped__()
    assert first == (FIRST_JACOBI_FAILURE[kind],)
    assert first == reference_jacobi_failures(planted, algebra._JACOBI_FAILURE_LIMIT)
    # Without a limit both sweeps list every failing triple, in the same order.
    monkeypatch.setattr(algebra, "_JACOBI_FAILURE_LIMIT", algebra.DIM**3)
    every = algebra.jacobi_failures.__wrapped__()
    assert len(every) > 1
    assert every == reference_jacobi_failures(planted, algebra.DIM**3)


def test_jacobi_sweep_matches_the_triple_reference():
    table = algebra.structure_table()
    assert algebra.jacobi_failures.__wrapped__() == reference_jacobi_failures(table, 1) == ()


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
            assert relabel(g) == g
    for i in range(1, 5):
        h = algebra.f4_cartan(i)
        assert relabel(h) == h


def test_module_basis_is_odd_and_independent():
    vectors = []
    for i in range(1, 27):
        v = algebra.v_basis(i)
        assert relabel(v) == combine((-1, v))
        vectors.append(dense(v))
    assert rank_of_vectors(vectors) == 26


def test_decompose_v_roundtrip_and_rejection():
    terms = ((1, 3), (13, -2), (26, 1), (7, 5))
    combo = combine(*((c, algebra.v_basis(i)) for i, c in terms))
    coords = algebra.decompose_v(combo)
    assert coords == ((1, 3), (7, 5), (13, -2), (26, 1))
    with pytest.raises(ValueError):
        algebra.decompose_v(_coroot(2))
    # A root vector at an involution-fixed root is outside the module.
    with pytest.raises(ValueError):
        algebra.decompose_v(root_vector(lattice.simple_root(2)))
    # E(seed) + E(sigma seed): the lead index of x1, with the wrong partner sign.
    with pytest.raises(ValueError):
        algebra.decompose_v(tuple((k, 1) for k, _ in algebra.v_basis(1)))


def test_cached_module_basis_is_immutable():
    cached = [algebra.v_basis(i) for i in (1, 4, 13)]
    cached += [algebra.f4_generator(label) for label in (("h", 1), ("e", (0, 1, 0, 0), -1))]
    for cell in cached:
        assert type(cell) is tuple
        with pytest.raises(TypeError):
            cell[0] = (0, 1)
    assert (3, 3, 1) in algebra.ad_on_v(algebra.f4_cartan(1))


@pytest.mark.parametrize("index", [1.5, 2.0, True])
def test_module_indices_must_be_ints(index):
    # the int twin is cached first: the refusal must not depend on the cache
    algebra.v_basis(int(index))
    with pytest.raises(TypeError, match="must be an int"):
        algebra.v_basis(index)
    with pytest.raises(TypeError, match="must be an int"):
        algebra.f4_cartan(index)
    with pytest.raises(ValueError):
        algebra.v_basis(27)
    with pytest.raises(ValueError):
        algebra.f4_cartan(0)


def test_cached_module_basis_cannot_be_rebound():
    element = algebra.v_basis(4)
    before = tuple(element)
    with pytest.raises(AttributeError):
        element.terms = ()
    with pytest.raises(TypeError):
        del element[0]
    assert algebra.v_basis(4) is element
    assert element == before
    assert (3, 3, 1) in algebra.ad_on_v(algebra.f4_cartan(1))
    # Cells built from the cached one are new values; the cache is untouched.
    other = algebra.bracket(algebra.f4_cartan(1), element)
    assert other is not element and algebra.v_basis(4) == before
    assert algebra.decompose_v(other) == ((4, 1),)


def test_ad_on_v_requires_fixed_element():
    try:
        algebra.ad_on_v(root_vector(lattice.simple_root(1)))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_ad_on_v_gives_the_nonzero_cells_column_by_column():
    for label in GENERATOR_LABELS:
        cells = algebra.ad_on_v(algebra.f4_generator(label))
        assert type(cells) is tuple and cells
        assert all(0 <= i < 26 and 0 <= j < 26 and c for i, j, c in cells)
        # Column then row, strictly increasing, so each (i, j) occurs once.
        order = [(j, i) for i, j, _ in cells]
        assert order == sorted(set(order))
        assert operator_cells(poly.Derivation(cells)) == cells


def test_decompose_v_gives_sorted_nonzero_coordinates():
    for label in GENERATOR_LABELS:
        g = algebra.f4_generator(label)
        for j in range(1, 27):
            coords = algebra.decompose_v(bracket(g, algebra.v_basis(j)))
            indices = [i for i, _ in coords]
            assert indices == sorted(set(indices))
            assert all(1 <= i <= 26 and c for i, c in coords)
    assert algebra.decompose_v(()) == ()


def test_cartan_action_is_diagonal_with_module_weights():
    for i in range(1, 5):
        weights = [w[i - 1] for w in poly.VARIABLE_WEIGHTS]
        expected = tuple((r, r, w) for r, w in enumerate(weights) if w)
        assert algebra.ad_on_v(algebra.f4_cartan(i)) == expected


def test_ad_is_a_representation():
    pairs = [
        (algebra.f4_cartan(1), algebra.f4_root_vector((0, 0, 1, 0), 1)),
        (algebra.f4_root_vector((1, 0, 0, 0), 1), algebra.f4_root_vector((0, 1, 0, 0), -1)),
        (algebra.f4_root_vector((0, 0, 0, 1), 1), algebra.f4_root_vector((0, 0, 0, 1), -1)),
        (algebra.f4_root_vector((0, 0, 1, 0), 1), algebra.f4_root_vector((0, 1, 2, 2), 1)),
    ]
    for g, h in pairs:
        assert dense_matrix(algebra.ad_on_v(bracket(g, h))) == _commutator(g, h)


def _commutator(g, h):
    """ad(g) ad(h) - ad(h) ad(g) on the module, as a dense matrix."""
    mg = dense_matrix(algebra.ad_on_v(g))
    mh = dense_matrix(algebra.ad_on_v(h))
    return [
        [
            sum(mg[r][t] * mh[t][s] for t in range(26)) - sum(mh[r][t] * mg[t][s] for t in range(26))
            for s in range(26)
        ]
        for r in range(26)
    ]


def _combinations():
    """Small-integer combinations of two of the 52 generators: sigma-fixed cells."""
    term = st.tuples(st.integers(-3, 3), st.sampled_from(GENERATOR_LABELS))
    return st.tuples(term, term).map(
        lambda pair: combine(*((c, algebra.f4_generator(label)) for c, label in pair))
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_combinations(), _combinations())
def test_ad_is_a_lie_homomorphism(g, h):
    assert dense_matrix(algebra.ad_on_v(bracket(g, h))) == _commutator(g, h)


def test_simple_pair_brackets_give_negated_diagonal():
    for i, root4 in enumerate(algebra.F4_SIMPLE, start=1):
        plus = algebra.f4_root_vector(root4, 1)
        minus = algebra.f4_root_vector(root4, -1)
        assert bracket(plus, minus) == combine((-1, algebra.f4_cartan(i)))


def test_folded_generator_count_is_52():
    vectors = [dense(algebra.f4_generator(label)) for label in GENERATOR_LABELS]
    assert len(vectors) == 52
    assert rank_of_vectors(vectors) == 52
