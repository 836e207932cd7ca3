"""Exact sparse linear algebra over the integers: echelon form, rank, nullspace.

Rows are dicts column -> int coefficient (zeros absent); any other entry,
a bool included, raises TypeError.  The elimination is a fraction-free
left-to-right column scan: rows are rescaled to primitive integer vectors
after every combination, so all intermediate entries stay integral.

``nullspace`` first runs the singleton-row and doubleton-equation steps of LP
presolve (Andersen and Andersen, "Presolving in linear programming", 1995),
applied to a kernel: a row with one live column forces that column to zero,
and a row with two is solved by substitution, which merges the two columns
into one class of columns with integer multipliers (see _doubleton_presolve).
Both steps can cascade, and each is a bijective change of parameters, so the
kernel is exactly that of the rows left over the live classes, expanded
through the multipliers.  Those rows are eliminated once, with the live
classes ordered by their last column, and solved by back-substitution, one
vector per free class set to 1 with the other free classes at 0.  The
back-substitution is fraction-free, as in Bareiss ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968):
where a pivot a meets a partial sum s, the whole vector is scaled by a / g,
with g = gcd(s, a) carrying the sign of a, so the pivot's entry -s / g is an
integer, and the vector is rescaled only when a does not divide s.

That basis is already canonical: the vectors have distinct last nonzero
columns, each is zero at the others' last nonzero columns, and each is
primitive with a positive first entry.  Back-substitution sets every pivot
class right of a free class f to zero, so f is its vector's last nonzero
class, and the vector is zero at the other free classes.  The classes are
disjoint, so expanding through x_c = mult[c] * t keeps both properties
column by column: the last nonzero column is the last column of f, where
every other vector is zero.  The canonical form depends only on the kernel
and the column order, so the presolve does not change it: it is the basis a
plain left-to-right elimination over all columns gives.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Tuple

Row = Dict[int, int]


def _to_int_row(row: Dict[int, object]) -> Row:
    """Divide by the content and drop zeros.  Entries must be exactly int:
    anything else, a bool included, raises TypeError."""
    out: Row = {}
    g = 0
    for col, c in row.items():
        if type(c) is not int:
            raise TypeError(f"expected an integer, got {type(c).__name__}")
        if c:
            out[col] = c
            g = gcd(g, c)
    if g > 1:
        for col in out:
            out[col] //= g
    return out


def echelon(rows: Iterable[Dict[int, object]]) -> List[Tuple[int, Row]]:
    """Reduce to row echelon form.

    Returns [(pivot_col, pivot_row), ...] in increasing pivot-column order.
    Each pivot row is a primitive integer row whose minimal column is its
    pivot.  For each column in turn, the pivot is the shortest of the rows
    that hold it, the earliest in input order on a tie, and the other rows
    that hold it are reduced against it.
    """
    active = [r for r in map(_to_int_row, rows) if r]
    pivots: List[Tuple[int, Row]] = []
    for col in sorted({c for r in active for c in r}):
        hits = [r for r in active if col in r]
        if not hits:
            continue
        piv = min(hits, key=len)  # the first of the shortest
        a = piv[col]
        rest = [(c, v) for c, v in piv.items() if c != col]
        for r in hits:
            if r is piv:
                continue
            # Every active row is echelon's own copy, so it is reduced in place.
            b = r.pop(col)
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in rest:
                w = r.get(c, 0) - b * v
                if w:
                    r[c] = w
                else:
                    del r[c]
            g = 0
            for v in r.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for c in r:
                    r[c] //= g
        pivots.append((col, piv))
        active = [r for r in active if r and r is not piv]
    return pivots


def rank(rows: Iterable[Dict[int, object]]) -> int:
    return len(echelon(rows))


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
    - a row that reads a * t_p + b * t_q allows exactly t_p = (b / g) * s,
      t_q = -(a / g) * s for a new parameter s, where g is gcd(a, b) with the
      sign of b, so that the class p is rescaled only when b does not divide
      a: the classes merge, the smaller one relabelled to the larger's id.
    Each is a bijective change of parameters on the vectors the row allows,
    so the kernel is exactly the kernel of the rows left, expanded through
    the classes.  The reading repeats over the rows left until none reads two
    entries or fewer.

    Returns (cls, mult, forced, reduced): forced is indexed by class id, and
    reduced holds the rows left, read through the final classes.  The rows
    are read in place, neither copied nor changed.  An entry that is not
    exactly an int raises TypeError before the first reading, as in
    _to_int_row: a float would be solved inexactly, or read as zero.  A
    column outside 0..ncols-1 raises ValueError there too: a negative one
    would wrap around to a column from the end.
    """
    cls = list(range(ncols))
    mult = [1] * ncols
    members = [[c] for c in range(ncols)]
    forced = [False] * ncols
    pending = list(rows)
    kinds = set()
    columns = set()
    for row in pending:
        kinds.update(map(type, row.values()))
        columns.update(row)
    for kind in kinds:
        if kind is not int:
            raise TypeError(f"expected an integer, got {kind.__name__}")
    outside = columns.difference(range(ncols))
    if outside:
        raise ValueError(f"column {min(outside)} is outside 0..{ncols - 1}")
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
                g = gcd(a, b) if b > 0 else -gcd(a, b)
                fp, fq = b // g, -a // g
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


def nullspace(rows: Iterable[Dict[int, object]], ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    Vectors are length-ncols tuples, and a row column outside 0..ncols-1
    raises ValueError.  Each vector's last nonzero entry sits at
    its free column, where the other vectors are zero; the basis is ordered by
    free column and each vector is normalized so its first nonzero entry is
    positive.

    _doubleton_presolve turns the rows into fewer rows over column classes,
    x_c = mult[c] * t_k.  The live classes, labelled in the order of their
    last columns, are eliminated by echelon and solved by back-substitution;
    each class vector t is expanded through the classes and made primitive
    by its gcd.  The module docstring shows why that basis is canonical.
    """
    cls, mult, forced, reduced = _doubleton_presolve(rows, ncols)
    last: Dict[int, int] = {}  # live class -> its last column
    for c, k in enumerate(cls):
        if not forced[k]:
            last[k] = c
    order = sorted(last, key=last.__getitem__)
    label = {k: i for i, k in enumerate(order)}
    pivots = echelon({label[k]: v for k, v in row.items()} for row in reduced)
    pivot_set = {c for c, _ in pivots}
    basis: List[Tuple[int, ...]] = []
    for free in range(len(order)):
        if free in pivot_set:
            continue
        t: Row = {free: 1}
        for col, row in reversed(pivots):
            if col > free:
                continue
            s = 0
            for c, v in row.items():
                if c in t:
                    s += v * t[c]
            if s:
                a = row[col]
                g = gcd(s, a) if a > 0 else -gcd(s, a)
                if a != g:
                    m = a // g
                    for k in t:
                        t[k] *= m
                t[col] = -s // g
        by_class = {order[i]: v for i, v in t.items()}
        vec = [mult[c] * by_class.get(k, 0) for c, k in enumerate(cls)]
        g = gcd(*vec)
        if next(v for v in vec if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in vec))
    return basis
