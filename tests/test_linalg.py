"""Tests for the exact sparse elimination helpers."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4poly import linalg
from helpers import exact_values, rank_of_vectors


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
    """The column scan of ``linalg.echelon``, written apart from it as a
    reference: for each column up to the largest, scan every active row for it,
    and build each reduced row anew."""
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
    """``linalg.nullspace`` without the presolve, kept as a reference:
    back-substitution over the echelon pivots of all the columns in their plain
    order, one vector per free column."""
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


@st.composite
def row_sets(draw):
    """(rows, ncols): a few sparse rows of small integer entries."""
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from(exact_values(5))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    return [{j: c for j, c in r.items() if c} for r in rows], ncols


# The values of exact_values(5), with zeros added so that 5 of the 15 entries
# are zero: whole rows sampled from this pool are dense enough that pivot ties
# and fill-in are common.
DENSE_ENTRIES = exact_values(5) + (0,) * 4


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
    assert rank_of_vectors(kernel) == len(kernel)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(dense_row_sets(with_ncols=True), row_sets()))
def test_nullspace_matches_scan_reference(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols) == scan_nullspace(rows, ncols)


@st.composite
def planted_singleton_sets(draw):
    """dense_row_sets rows with up to three planted chains {a}, {a, b}, {b, c},
    ... inserted at drawn positions, so the singleton presolve forces some,
    all or none of the columns, often by a cascade."""
    rows, ncols = draw(dense_row_sets(with_ncols=True))
    entry = st.sampled_from([v for v in DENSE_ENTRIES if v])
    for _ in range(draw(st.integers(0, 3))):
        chain = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols, unique=True))
        planted = [{chain[0]: draw(entry)}]
        planted += [{a: draw(entry), b: draw(entry)} for a, b in zip(chain, chain[1:])]
        for row in planted:
            rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols


@settings(derandomize=True, max_examples=150, deadline=None)
@given(planted_singleton_sets())
def test_nullspace_with_planted_singletons_matches_scan_reference(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols) == scan_nullspace(rows, ncols)


NONZERO_ENTRIES = [v for v in DENSE_ENTRIES if v]


@st.composite
def planted_doubleton_sets(draw):
    """(rows, ncols): up to three rows of three to five entries, with one to
    three planted groups of rows inserted at drawn positions, so the doubleton
    presolve merges classes, often in a later pass than the row that needs
    the merge:
    - a chain {a, b}, {b, c}, ... with drawn coefficients;
    - a cycle of two-entry rows vanishing on a drawn vector, so it keeps a
      free direction;
    - the same cycle closed with its last ratio doubled, so it forces its
      class to zero;
    - a two-entry row repeated, as a multiple of itself (it reads as nothing
      once its columns merge) or with drawn coefficients (one entry: forced);
    - a two-entry row and a three-entry row whose first two entries are a
      multiple of it, so the three-entry row reads as a singleton after the
      merge.
    Coefficients are nonzero ints, and a planted row may carry
    an explicit zero at another column."""
    ncols = draw(st.integers(4, 12))
    coeff = st.sampled_from(NONZERO_ENTRIES)
    base = st.dictionaries(st.integers(0, ncols - 1), coeff, min_size=3, max_size=5)
    rows = draw(st.lists(base, max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["chain", "cycle", "broken cycle", "repeat", "three"]))
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=3, max_size=5, unique=True))
        x = [draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for _ in cols]

        def vanishing(i, j):
            # Two entries at cols[i], cols[j] with x[i] * a + x[j] * b = 0.
            s = draw(coeff)
            return {cols[i]: x[j] * s, cols[j]: -x[i] * s}

        if kind == "chain":
            planted = [{a: draw(coeff), b: draw(coeff)} for a, b in zip(cols, cols[1:])]
        elif kind in ("cycle", "broken cycle"):
            planted = [vanishing(i, (i + 1) % len(cols)) for i in range(len(cols))]
            if kind == "broken cycle":
                planted[-1][cols[0]] *= 2
        elif kind == "repeat":
            first = {cols[0]: draw(coeff), cols[1]: draw(coeff)}
            k = draw(coeff)
            if draw(st.booleans()):
                again = {c: k * v for c, v in first.items()}
            else:
                again = {cols[0]: draw(coeff), cols[1]: draw(coeff)}
            planted = [first, again]
        else:
            pair = vanishing(0, 1)
            k = draw(coeff)
            triple = {c: k * v for c, v in pair.items()}
            triple[cols[2]] = draw(coeff)
            planted = [pair, triple]
        for row in planted:
            zero_at = draw(st.integers(0, ncols - 1))
            if zero_at not in row and draw(st.booleans()):
                row[zero_at] = 0
            rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols


@settings(derandomize=True, max_examples=100, deadline=None)
@given(planted_doubleton_sets())
def test_nullspace_with_planted_doubletons_matches_scan_reference(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols) == scan_nullspace(rows, ncols)


def test_nullspace_of_inconsistent_triangle_is_zero():
    # x1 = 2 x0 and x2 = 3 x1 force x2 = 6 x0, but the third row says x2 = 5 x0.
    assert linalg.nullspace([{0: 2, 1: -1}, {1: 3, 2: -1}, {0: 5, 2: -1}], 3) == []


def test_nullspace_of_consistent_triangle_keeps_one_vector():
    # The same two rows closed by x2 = 6 x0 leave the direction (1, 2, 6).
    assert linalg.nullspace([{0: 2, 1: -1}, {1: 3, 2: -1}, {0: 6, 2: -1}], 3) == [(1, 2, 6)]


def forced_columns(rows, ncols):
    """Which columns the presolve forces to zero: those in forced classes."""
    cls, _, forced, _ = linalg._doubleton_presolve(rows, ncols)
    return [forced[k] for k in cls]


def test_presolve_cascade_forces_every_column():
    # {1, 2} and {0, 1} merge the three columns into one class, which {0}
    # forces.
    rows = [{1: 3, 2: -1}, {0: 2, 1: 1}, {0: 5}]
    before = [dict(r) for r in rows]
    assert forced_columns(rows, 3) == [True, True, True]
    assert linalg.nullspace(rows, 3) == []
    assert rows == before


def test_presolve_cascade_leaves_one_free_column():
    # {0, 3} and {0, 2} merge columns 0, 2 and 3 into one class, which {2}
    # forces; no row meets 1.
    rows = [{0: 2, 3: 1}, {0: -1, 2: 1}, {2: 5}]
    assert forced_columns(rows, 4) == [True, False, True, True]
    assert linalg.nullspace(rows, 4) == [(0, 1, 0, 0)]


def test_presolve_skips_explicit_zero_entries():
    # An entry stored as 0 meets no column: {1: 0} reads as nothing, and
    # {0: 1, 1: 0} forces column 0 alone.
    rows = [{1: 0}, {0: 1, 1: 0}]
    assert forced_columns(rows, 2) == [True, False]
    assert linalg.nullspace(rows, 2) == [(0, 1)]


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


@pytest.mark.parametrize(
    "bad",
    [0.5, 1.5, 2.0, Decimal("0.5"), 1e-400, Fraction(1, 2), Fraction(2, 1), True, False],
    ids=repr,
)
@pytest.mark.parametrize(
    "solve",
    [linalg.rank, linalg.echelon, lambda rows: linalg.nullspace(rows, 3)],
    ids=["rank", "echelon", "nullspace"],
)
def test_inexact_entries_are_refused(solve, bad):
    """Every entry point refuses an entry that is not an int: a float would be
    solved inexactly, and a Fraction, even a whole one, or a bool is outside
    the integer rows.  The singleton and doubleton rows are solved by
    nullspace's presolve without reaching echelon, and 1e-400 is the float
    0.0, which the presolve would read as an exact zero."""
    for rows in ([{0: 1, 1: 1, 2: 1}, {0: bad, 1: 3, 2: 1}], [{0: bad}], [{0: bad, 1: 1}]):
        with pytest.raises(TypeError):
            solve(rows)
