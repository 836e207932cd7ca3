"""Tests for the exact sparse elimination helpers."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import linalg
from helpers import exact_values


def dense_rank(rows, ncols):
    """Reference rank over the rationals by plain Gaussian elimination."""
    matrix = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def scan_echelon(rows):
    """The column-scan elimination that ``linalg.echelon`` replaced, kept as a
    reference: for each column in turn, scan every active row for it."""
    active = [r for r in (linalg._to_int_row(row) for row in rows) if r]
    if not active:
        return []
    maxcol = max(max(r) for r in active)
    pivots = []
    for col in range(maxcol + 1):
        best = -1
        for idx, r in enumerate(active):
            if col in r and (best < 0 or len(r) < len(active[best])):
                best = idx
        if best < 0:
            continue
        piv = active.pop(best)
        a = piv[col]
        reduced = []
        for r in active:
            b = r.pop(col, 0)
            if b:
                g = 0
                out = {}
                for c, v in r.items():
                    out[c] = a * v
                for c, v in piv.items():
                    if c == col:
                        continue
                    w = out.get(c, 0) - b * v
                    if w:
                        out[c] = w
                    else:
                        out.pop(c, None)
                for v in out.values():
                    g = gcd(g, v)
                if g > 1:
                    for c in out:
                        out[c] //= g
                if out:
                    reduced.append(out)
            else:
                reduced.append(r)
        active = reduced
        pivots.append((col, piv))
        if not active:
            break
    return pivots


def scan_nullspace(rows, ncols):
    """The left-to-right ``linalg.nullspace`` that the fill-reducing column order
    replaced, kept as a reference: back-substitution over the pivots of the
    plain column order, one vector per free column."""
    pivots = linalg.echelon(rows)
    pivot_set = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = {free: Fraction(1)}
        for col, row in reversed(pivots):
            if col > free:
                continue
            s = Fraction(0)
            for c, v in row.items():
                if c != col and c in x:
                    s += v * x[c]
            if s:
                x[col] = -s / row[col]
        den = 1
        for c in x.values():
            den = den * c.denominator // gcd(den, c.denominator)
        vec = [0] * ncols
        for col, v in x.items():
            vec[col] = int(v * den)
        for v in vec:
            if v:
                if v < 0:
                    vec = [-w for w in vec]
                break
        basis.append(tuple(vec))
    return basis


def test_rank_simple_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([{}, {}]) == 0
    assert linalg.rank([{0: 1}, {0: 2}]) == 1
    assert linalg.rank([{0: 1, 1: 1}, {1: 1}]) == 2


def test_rank_handles_fractions():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]
    assert linalg.rank(rows) == 1


@st.composite
def row_sets(draw):
    """(rows, ncols): a few sparse rows of small integer or Fraction entries."""
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from(exact_values(4, 3, 4))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    return [{j: c for j, c in r.items() if c} for r in rows], ncols


# The values of exact_values(3, 2, 3), with zeros added so that 10 of the 32
# entries are zero: whole rows sampled from this pool are dense enough that
# pivot ties and fill-in are common.
DENSE_ENTRIES = exact_values(3, 2, 3) + (0,) * 8


@st.composite
def dense_row_sets(draw, with_ncols=False):
    """Up to 20 rows over up to 12 columns, dense enough that pivot ties and
    fill-in occur; (rows, ncols) if with_ncols."""
    ncols = draw(st.integers(1, 12))
    row = st.lists(st.sampled_from(DENSE_ENTRIES), min_size=ncols, max_size=ncols)
    rows = [{j: c for j, c in enumerate(r) if c} for r in draw(st.lists(row, max_size=20))]
    return (rows, ncols) if with_ncols else rows


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dense_row_sets())
def test_echelon_matches_column_scan_reference(rows):
    assert linalg.echelon(rows) == scan_echelon([dict(r) for r in rows])


@PROPERTY_SETTINGS
@given(row_sets())
def test_rank_matches_dense_reference(case):
    rows, ncols = case
    assert linalg.rank(rows) == dense_rank(rows, ncols)


@PROPERTY_SETTINGS
@given(row_sets())
def test_nullspace_annihilates_and_has_full_count(case):
    rows, ncols = case
    kernel = linalg.nullspace(rows, ncols)
    assert linalg.rank(rows) + len(kernel) == ncols
    for vec in kernel:
        assert len(vec) == ncols
        for row in rows:
            assert sum(c * vec[j] for j, c in row.items()) == 0


@PROPERTY_SETTINGS
@given(row_sets())
def test_nullspace_vectors_are_primitive_and_independent(case):
    rows, ncols = case
    kernel = linalg.nullspace(rows, ncols)
    for vec in kernel:
        assert all(isinstance(v, int) for v in vec)
        assert gcd(*vec) == 1
        assert next(v for v in vec if v) > 0
    assert linalg.rank_of_vectors(kernel) == len(kernel)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(dense_row_sets(with_ncols=True), row_sets()))
def test_nullspace_matches_scan_reference(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols) == scan_nullspace(rows, ncols)


def test_column_order_is_fewest_rows_first_then_column():
    rows = [{0: 1, 1: 2, 3: 1}, {0: 1, 3: 5}, {0: 3, 2: 1}, {4: 1}]
    # rows meeting columns 0..5: 3, 1, 1, 2, 1, 0
    assert linalg._column_order(rows, 6) == [5, 1, 2, 4, 3, 0]


def test_nullspace_known_answer():
    # x + y + z = 0 and y - z = 0 has kernel spanned by (-2, 1, 1).
    kernel = linalg.nullspace([{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}], 3)
    assert len(kernel) == 1
    vec = kernel[0]
    assert vec in ((-2, 1, 1), (2, -1, -1))
    assert vec[0] > 0 or vec[1] > 0 or vec[2] > 0
    assert next(v for v in vec if v) > 0


def test_determinism():
    rows = [{0: 2, 2: 4}, {1: 3, 2: -6}, {0: 1, 1: 1, 2: 1}]
    first = linalg.nullspace(rows, 4)
    second = linalg.nullspace([dict(r) for r in rows], 4)
    assert first == second
