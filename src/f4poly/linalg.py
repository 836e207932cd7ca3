"""Exact sparse linear algebra over the rationals: echelon form, rank, nullspace.

Rows are dicts column -> coefficient (int or Fraction, zeros absent).  The
elimination is fraction-free: rows are rescaled to primitive integer vectors
after every combination, so all intermediate entries stay integral.  Rows are
kept in buckets by leading column, so finding the rows that meet a pivot
column costs nothing per untouched row; the pivots and pivot rows are those
of a plain left-to-right column scan.

``nullspace`` eliminates over its columns in a fill-reducing static order,
fewest rows first (Markowitz, "The elimination form of the inverse", 1957),
and then reduces the kernel basis to its canonical form: the vectors with
distinct last nonzero columns, each zero at the others' last columns.  That
form is unique for the kernel, so it does not depend on the column order, and
it is exactly the basis a left-to-right elimination gives, whose free column
is a vector's last nonzero entry and the other free columns are zero.
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
    buckets: Dict[int, List[Tuple[int, Row]]] = {}
    for idx, row in enumerate(rows):
        r = _to_int_row(row)
        if r:
            buckets.setdefault(min(r), []).append((idx, r))
    heap = list(buckets)
    heapify(heap)
    pivots: List[Tuple[int, Row]] = []
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        piv = min(bucket, key=lambda entry: (len(entry[1]), entry[0]))[1]
        a = piv[col]
        for idx, r in bucket:
            if r is piv:
                continue
            b = r.pop(col)
            out: Row = {c: a * v for c, v in r.items()}
            for c, v in piv.items():
                if c == col:
                    continue
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
            if g > 1:
                for c in out:
                    out[c] //= g
            lead = min(out)
            if lead in buckets:
                buckets[lead].append((idx, out))
            else:
                buckets[lead] = [(idx, out)]
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

    The elimination runs over the columns relabelled by _column_order.  Its
    kernel basis is then reduced from the right: each vector is cleared at the
    earlier vectors' last columns, scaled to 1 at its own last column, and
    cleared from the earlier vectors there.

    Scaling the rational solution by the lcm of its denominators already
    gives a primitive vector.  For a prime p dividing that lcm, take the entry
    whose denominator carries the full power of p: scaled, it is its reduced
    numerator times a factor prime to p, so p does not divide it.  For any
    other prime, the free entry 1 scales to the lcm itself, prime to p.
    """
    rows = list(rows)
    order = _column_order(rows, ncols)  # label -> column
    label = [0] * ncols
    for lab, c in enumerate(order):
        label[c] = lab
    pivots = echelon({label[c]: v for c, v in row.items()} for row in rows)
    pivot_set = {c for c, _ in pivots}
    reduced: Dict[int, Dict[int, Fraction]] = {}  # last column -> vector, 1 there
    for free in range(ncols):
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


def rank_of_vectors(vectors: Sequence[Sequence[object]]) -> int:
    """Rank of a list of dense coefficient sequences."""
    rows = []
    for vec in vectors:
        rows.append({i: c for i, c in enumerate(vec) if c})
    return rank(rows)
