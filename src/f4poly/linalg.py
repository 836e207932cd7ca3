"""Exact sparse linear algebra over the rationals: echelon form, rank, nullspace.

Rows are dicts column -> coefficient (int or Fraction, zeros absent).  The
elimination is fraction-free: rows are rescaled to primitive integer vectors
after every combination, so all intermediate entries stay integral.  Rows are
kept in buckets by leading column, so finding the rows that meet a pivot
column costs nothing per untouched row; the pivots and pivot rows are those
of a plain left-to-right column scan.
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


def nullspace(rows: Iterable[Dict[int, object]], ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    Vectors are length-ncols tuples; the basis is ordered by free column and
    each vector is normalized so its first nonzero entry is positive.

    Scaling the rational solution by the lcm of its denominators already
    gives a primitive vector.  For a prime p dividing that lcm, take the entry
    whose denominator carries the full power of p: scaled, it is its reduced
    numerator times a factor prime to p, so p does not divide it.  For any
    other prime, the free entry 1 scales to the lcm itself, prime to p.
    """
    pivots = echelon(rows)
    pivot_set = {c for c, _ in pivots}
    basis: List[Tuple[int, ...]] = []
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
