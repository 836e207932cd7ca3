"""Exact sparse linear algebra over the rationals: echelon form, rank, nullspace.

Rows are dicts column -> coefficient (int or Fraction, zeros absent).  The
elimination is fraction-free: rows are rescaled to primitive integer vectors
after every combination, so all intermediate entries stay integral.  Rows are
kept in buckets by leading column, so finding the rows that meet a pivot
column costs nothing per untouched row; the pivots and pivot rows are those
of a plain left-to-right column scan.

``nullspace`` first runs the singleton-row step of LP presolve (Andersen and
Andersen, "Presolving in linear programming", 1995): a row with one live
column forces that column to zero in every kernel vector, and forcing it can
leave other rows with one live column.  So the kernel is exactly the kernel
of the rows over the columns left, embedded with zeros at the forced columns.
It then eliminates over the columns left in a fill-reducing static order,
fewest rows first (Markowitz, "The elimination form of the inverse", 1957),
and reduces the kernel basis to its canonical form: the vectors with distinct
last nonzero columns, each zero at the others' last columns, primitive, with
a positive first entry.  That form depends only on the kernel and the column
order, so the elimination order does not change it, and it is exactly the
basis a left-to-right elimination gives, whose free column is a vector's last
nonzero entry and the other free columns are zero.  The embedding keeps the
column order and adds only zeros, so the presolve does not change it either.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
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


def _singleton_presolve(rows: Sequence[Dict[int, object]], ncols: int) -> List[bool]:
    """Which columns every kernel vector is zero at: repeatedly take a row that
    meets exactly one live column, force that column to zero, and count it
    out of every row that meets it.  A row with one live column meets the
    forced columns, zero in the kernel, and that column alone, so the kernel is
    zero there too.  Returns the forced flag of each column; the rows are
    neither copied nor changed."""
    meeting: List[List[int]] = [[] for _ in range(ncols)]  # column -> rows meeting it
    live: List[int] = []  # row -> number of unforced columns it meets
    for r, row in enumerate(rows):
        n = 0
        for c, v in row.items():
            if v:
                meeting[c].append(r)
                n += 1
        live.append(n)
    forced = [False] * ncols
    singles = [r for r, n in enumerate(live) if n == 1]
    while singles:
        r = singles.pop()
        if live[r] != 1:
            continue
        col = next(c for c, v in rows[r].items() if v and not forced[c])
        forced[col] = True
        for other in meeting[col]:
            live[other] -= 1
            if live[other] == 1:
                singles.append(other)
    return forced


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


def nullspace(rows: Iterable[Dict[int, object]], ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    Vectors are length-ncols tuples.  Each vector's last nonzero entry sits at
    its free column, where the other vectors are zero; the basis is ordered by
    free column and each vector is normalized so its first nonzero entry is
    positive.

    Columns forced to zero by _singleton_presolve are left out, and the
    elimination runs over the other columns relabelled by _column_order, so
    the kernel comes back with zeros at the forced columns.  Its kernel basis is then reduced from the right: each vector is cleared at the
    earlier vectors' last columns, scaled to 1 at its own last column, and
    cleared from the earlier vectors there.

    Scaling the rational solution by the lcm of its denominators already
    gives a primitive vector.  For a prime p dividing that lcm, take the entry
    whose denominator carries the full power of p: scaled, it is its reduced
    numerator times a factor prime to p, so p does not divide it.  For any
    other prime, the free entry 1 scales to the lcm itself, prime to p.
    """
    rows = list(rows)
    forced = _singleton_presolve(rows, ncols)
    order = [c for c in _column_order(rows, ncols) if not forced[c]]  # label -> column
    label = [-1] * ncols
    for lab, c in enumerate(order):
        label[c] = lab
    pivots = echelon(
        {lab: v for c, v in row.items() if (lab := label[c]) >= 0} for row in rows
    )
    pivot_set = {c for c, _ in pivots}
    reduced: Dict[int, Dict[int, Fraction]] = {}  # last column -> vector, 1 there
    for free in range(len(order)):
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
        kvec = {order[c]: v for c, v in x.items()}
        for last, w in reduced.items():
            _axpy(kvec, -kvec.get(last, 0), w)
        last = max(kvec)
        a = kvec[last]
        kvec = {c: v / a for c, v in kvec.items()}
        for w in reduced.values():
            _axpy(w, -w.get(last, 0), kvec)
        reduced[last] = kvec
    basis: List[Tuple[int, ...]] = []
    for _, x in sorted(reduced.items()):
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
