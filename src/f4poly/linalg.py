"""Exact sparse linear algebra over the rationals: echelon form, rank, nullspace.

Rows are dicts column -> coefficient (int or Fraction, zeros absent).  The
elimination is fraction-free: rows are rescaled to primitive integer vectors
after every combination, so all intermediate entries stay integral.  Rows are
kept in buckets by leading column, so finding the rows that meet a pivot
column costs nothing per untouched row; the pivots and pivot rows are those
of a plain left-to-right column scan.

``nullspace`` first runs the singleton-row and doubleton-equation steps of LP
presolve (Andersen and Andersen, "Presolving in linear programming", 1995),
applied to a kernel: a row with one live column forces that column to zero,
and a row with two is solved by substitution, which merges the two columns
into one class of columns with integer multipliers (see _doubleton_presolve).
Both steps can cascade, and each is a bijective change of parameters, so the
kernel is exactly that of the rows left over the live classes, expanded
through the multipliers.  The rows left are eliminated in a fill-reducing
static order, fewest rows first (Markowitz, "The elimination form of the
inverse", 1957), and the kernel basis is reduced to its canonical form: the
vectors with distinct last nonzero columns, each zero at the others' last
columns, primitive, with a positive first entry.  That form depends only on
the kernel and the column order, so neither the presolve nor the elimination
order changes it, and it is exactly the basis a left-to-right elimination
gives, whose free column is a vector's last nonzero entry and the other free
columns are zero.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

Row = Dict[int, int]


def _to_int_row(row: Dict[int, object]) -> Row:
    """Clear denominators and divide by the content; drop zeros."""
    den = 1
    for c in row.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    out: Row = {}
    g = 0
    for col, c in row.items():
        v = int(c * den)
        if v:
            out[col] = v
            g = gcd(g, v)
    if g > 1:
        for col in out:
            out[col] //= g
    return out


def echelon(rows: Iterable[Dict[int, object]]) -> List[Tuple[int, Row]]:
    """Reduce to row echelon form.

    Returns [(pivot_col, pivot_row), ...] in increasing pivot-column order.
    Each pivot row is a primitive integer row whose minimal column is its
    pivot.  Pivot choice (fewest nonzeros, then input order) is deterministic.

    Rows wait in buckets keyed by their smallest column.  When the smallest
    bucket's column is reached, no row has an entry to its left, so that
    bucket holds exactly the rows that meet the column: the pivot comes from
    it, and each row reduced against the pivot moves to the bucket of its new
    smallest column.
    """
    buckets: Dict[int, List[Tuple[int, int, Row]]] = {}  # entries (len(row), idx, row)
    for idx, row in enumerate(rows):
        r = _to_int_row(row)
        if r:
            buckets.setdefault(min(r), []).append((len(r), idx, r))
    heap = list(buckets)
    heapify(heap)
    pivots: List[Tuple[int, Row]] = []
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        _, pidx, piv = min(bucket)  # idx is unique, so rows are never compared
        a = piv[col]
        rest = [(c, v) for c, v in piv.items() if c != col]
        for _, idx, r in bucket:
            if idx == pidx:
                continue
            b = r.pop(col)
            # Every bucketed row is echelon's own copy, so it may be reused.
            out: Row = r if a == 1 else {c: a * v for c, v in r.items()}
            for c, v in rest:
                w = out.get(c, 0) - b * v
                if w:
                    out[c] = w
                else:
                    out.pop(c, None)
            if not out:
                continue
            g = 0
            for v in out.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for c in out:
                    out[c] //= g
            lead = min(out)
            if lead in buckets:
                buckets[lead].append((len(out), idx, out))
            else:
                buckets[lead] = [(len(out), idx, out)]
                heappush(heap, lead)
        pivots.append((col, piv))
    return pivots


def rank(rows: Iterable[Dict[int, object]]) -> int:
    return len(echelon(rows))


def _column_order(rows: Sequence[Dict[int, object]], ncols: int) -> List[int]:
    """The columns sorted by how many rows meet them, fewest first, then by
    column: a static fill-reducing elimination order."""
    meets = [0] * ncols
    for row in rows:
        for c in row:
            meets[c] += 1
    return sorted(range(ncols), key=lambda c: (meets[c], c))


def _doubleton_presolve(
    rows: Iterable[Dict[int, object]], ncols: int
) -> Tuple[List[int], List[int], List[bool], List[Row]]:
    """Solve every row with one or two live entries by substitution.

    Each column belongs to a class with an integer multiplier: x_c =
    mult[c] * t_k with k = cls[c], a class's id being one of its columns.
    Every class starts as its own column with multiplier 1.  A row is read
    through the classes, summing the entries that fall in one class and
    skipping the classes forced to zero.  The kernel vectors are the t that
    every row allows:
    - a row that reads nothing allows every t, so it is dropped;
    - a row that reads a * t_k allows exactly t_k = 0: the class is forced,
      and its parameter dropped;
    - a row that reads a * t_p + b * t_q allows exactly t_p = d * s, t_q =
      -n * s for a new parameter s, where n/d = a/b in lowest terms: the
      classes merge, the smaller one relabelled to the larger's id.
    Each is a bijective change of parameters on the vectors the row allows,
    so the kernel is exactly the kernel of the rows left, expanded through
    the classes.  The reading repeats over the rows left until none reads two
    entries or fewer.

    Returns (cls, mult, forced, reduced): forced is indexed by class id, and
    reduced holds the rows left, read through the final classes.  The rows
    are read in place, neither copied nor changed; a Fraction entry is read
    as it is, and echelon clears the denominators of the rows left.
    """
    cls = list(range(ncols))
    mult = [1] * ncols
    members = [[c] for c in range(ncols)]
    forced = [False] * ncols
    pending = list(rows)
    changed = True
    while changed:
        changed = False
        kept: List[Dict[int, object]] = []
        reduced: List[Row] = []
        for row in pending:
            read: Row = {}
            for c, v in row.items():
                k = cls[c]
                if not forced[k]:
                    read[k] = read.get(k, 0) + v * mult[c]
            if not all(read.values()):
                read = {k: v for k, v in read.items() if v}
            if len(read) > 2:
                kept.append(row)
                reduced.append(read)
            elif len(read) == 1:
                forced[next(iter(read))] = True
                changed = True
            elif read:
                (p, a), (q, b) = read.items()
                if len(members[p]) < len(members[q]):
                    p, a, q, b = q, b, p, a
                ratio = Fraction(a, b)
                fp, fq = ratio.denominator, -ratio.numerator
                if fp != 1:
                    for c in members[p]:
                        mult[c] *= fp
                for c in members[q]:
                    mult[c] *= fq
                    cls[c] = p
                members[p] += members[q]
                members[q] = []
                changed = True
        pending = kept
    return cls, mult, forced, reduced


def _axpy(y: Dict[int, Fraction], a: Fraction, x: Dict[int, Fraction]) -> None:
    """y += a * x in place, dropping entries that cancel."""
    if not a:
        return
    for c, v in x.items():
        w = y.get(c, 0) + a * v
        if w:
            y[c] = w
        else:
            y.pop(c, None)


def _kernel(rows: Sequence[Row], columns: Sequence[int]) -> List[Dict[int, Fraction]]:
    """A kernel basis of rows over the given columns, which hold every entry:
    one vector per free column of the elimination in _column_order, found by
    back-substitution, as a dict column -> Fraction."""
    label = {c: lab for lab, c in enumerate(columns)}
    pivots = echelon({label[c]: v for c, v in row.items()} for row in rows)
    pivot_set = {c for c, _ in pivots}
    kernel = []
    for free in range(len(columns)):
        if free in pivot_set:
            continue
        x: Dict[int, Fraction] = {free: Fraction(1)}
        for col, row in reversed(pivots):
            if col > free:
                continue
            s = Fraction(0)
            for c, v in row.items():
                if c != col and c in x:
                    s += v * x[c]
            if s:
                x[col] = -s / row[col]
        kernel.append({columns[c]: v for c, v in x.items()})
    return kernel


def nullspace(rows: Iterable[Dict[int, object]], ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    Vectors are length-ncols tuples.  Each vector's last nonzero entry sits at
    its free column, where the other vectors are zero; the basis is ordered by
    free column and each vector is normalized so its first nonzero entry is
    positive.

    _doubleton_presolve turns the rows into fewer rows over column classes,
    x_c = mult[c] * t_k; _kernel solves those over the live classes in
    _column_order.  Each class vector t is then reduced from the right in
    class space, where a vector's last nonzero column is the last column of
    its last class (classes are disjoint, so distinct classes have distinct
    last columns): it is cleared at the earlier vectors' last classes, scaled
    to 1 at its own, and cleared from the earlier vectors there.  Expanding
    through the classes is linear and one to one, so the expanded vectors
    are, up to scale, the canonical basis; each is made primitive by its gcd.
    """
    cls, mult, forced, reduced_rows = _doubleton_presolve(rows, ncols)
    last: Dict[int, int] = {}  # live class -> its last column
    for c, k in enumerate(cls):
        if not forced[k]:
            last[k] = c
    order = [k for k in _column_order(reduced_rows, ncols) if k in last]
    reduced: Dict[int, Dict[int, Fraction]] = {}  # last class -> vector, 1 there
    for t in _kernel(reduced_rows, order):
        for top, w in reduced.items():
            _axpy(t, -t.get(top, 0), w)
        top = max(t, key=last.__getitem__)
        a = t[top]
        t = {k: v / a for k, v in t.items()}
        for w in reduced.values():
            _axpy(w, -w.get(top, 0), t)
        reduced[top] = t
    basis: List[Tuple[int, ...]] = []
    for _, t in sorted((last[k], t) for k, t in reduced.items()):
        den = lcm(*(v.denominator for v in t.values()))
        scaled = {k: int(v * den) for k, v in t.items()}
        vec = [mult[c] * scaled[k] if k in scaled else 0 for c, k in enumerate(cls)]
        g = gcd(*vec)
        if next(v for v in vec if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in vec))
    return basis
