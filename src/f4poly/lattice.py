"""E6 root lattice: bilinear form, the 72 roots, diagram involution, sign cocycle.

Vectors are integer 6-tuples of coefficients in the simple-root basis.  The
numbering follows the Dynkin diagram with the branch node labeled 4 and the
degree-one branch vertex labeled 2:

    1 - 3 - 4 - 5 - 6
            |
            2
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Tuple

Vector = Tuple[int, int, int, int, int, int]

# Gram matrix of the simple roots, each of norm 2.  E6 is simply laced, so
# this is also its Cartan matrix, the form ``reflection_closure`` takes.
GRAM: tuple[Vector, ...] = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)

#: Coefficients of the highest root; they bound the exhaustive root search.
HIGHEST_ROOT: Vector = (1, 2, 2, 3, 2, 1)

ZERO: Vector = (0, 0, 0, 0, 0, 0)

# The sign cocycle as a mod-2 bilinear form u^T B v: the identity diagonal
# plus cross terms k1*l3, k4*l2, k3*l4, k5*l4, k6*l5.
COCYCLE_FORM: tuple[Vector, ...] = (
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 1, 1),
)


def simple_root(i: int) -> Vector:
    """Return the i-th simple root, i in 1..6 (exactly an int)."""
    if type(i) is not int:
        raise TypeError(f"simple root index must be an int, got {i!r}")
    if not 1 <= i <= 6:
        raise ValueError(f"simple root index out of range: {i}")
    return tuple(int(j == i - 1) for j in range(6))  # type: ignore[return-value]


def add(u: Vector, v: Vector) -> Vector:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3], u[4] + v[4], u[5] + v[5])


def neg(v: Vector) -> Vector:
    return (-v[0], -v[1], -v[2], -v[3], -v[4], -v[5])


def inner(u: Vector, v: Vector) -> int:
    """Bilinear form u^T GRAM v."""
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = GRAM[i]
            total += ui * (row[0] * v[0] + row[1] * v[1] + row[2] * v[2]
                           + row[3] * v[3] + row[4] * v[4] + row[5] * v[5])
    return total


@lru_cache(maxsize=None)
def all_roots() -> tuple[Vector, ...]:
    """All 72 roots, lexicographically ordered.

    Exhaustive scan of the integer box spanned by +-HIGHEST_ROOT, filtered by
    norm 2.  roots_by_reflection_closure() recomputes the set independently.
    The scan fixes coordinates in order, each from its lowest value up, so it
    visits every box point in lexicographic order; it carries the partial
    norm v^T GRAM v of the coordinates fixed so far, which a new coordinate x
    at position m raises by x * (GRAM[m][m] * x + 2 * sum_l GRAM[m][l] * v_l).
    """
    roots: list[Vector] = []

    def scan(prefix: tuple[int, ...], norm: int) -> None:
        m = len(prefix)
        row = GRAM[m]
        cross = 2 * sum(g * c for g, c in zip(row, prefix))
        square = row[m]
        values = range(-HIGHEST_ROOT[m], HIGHEST_ROOT[m] + 1)
        if m == 5:
            roots.extend(prefix + (x,) for x in values if norm + x * (square * x + cross) == 2)
        else:
            for x in values:
                scan(prefix + (x,), norm + x * (square * x + cross))

    scan((), 0)
    return tuple(roots)


@lru_cache(maxsize=None)
def root_set() -> frozenset[Vector]:
    return frozenset(all_roots())


def positive_roots() -> tuple[Vector, ...]:
    """The 36 roots with no negative coefficient."""
    return tuple(v for v in all_roots() if min(v) >= 0)


def roots_by_reflection_closure() -> tuple[Vector, ...]:
    """The roots again, closed from the simple roots under the simple
    reflections of the Cartan matrix GRAM: the independent cross-check of the
    box scan in all_roots."""
    # Imported here, so that commands that only read the roots do not compile dimensions.
    from .dimensions import reflection_closure

    return reflection_closure(GRAM)  # type: ignore[return-value]


def diagram_involution(v: Vector) -> Vector:
    """The order-2 diagram symmetry: swaps coefficients 1<->6 and 3<->5."""
    return (v[5], v[1], v[4], v[3], v[2], v[0])


# Row i of COCYCLE_FORM as a bit mask: bit j is set when entry j is odd.
_FORM_ROW_MASKS = tuple(sum((b & 1) << j for j, b in enumerate(row)) for row in COCYCLE_FORM)


@lru_cache(maxsize=1024)
def _parity_masks(v: Vector) -> tuple[int, int]:
    """Bit masks of v^T COCYCLE_FORM mod 2 and of v mod 2: bit j is set when
    entry j is odd.  The first is the sum mod 2, an exclusive or, of the rows
    of the form at the odd entries of v."""
    row = column = 0
    for i, c in enumerate(v):
        if c & 1:
            row ^= _FORM_ROW_MASKS[i]
            column |= 1 << i
    return row, column


def cocycle(u: Vector, v: Vector) -> int:
    """Sign cocycle fixing the Lie structure constants: +1 or -1, by the
    parity of u^T COCYCLE_FORM v, which is the parity of the entries odd in
    both u^T COCYCLE_FORM and v."""
    return -1 if (_parity_masks(u)[0] & _parity_masks(v)[1]).bit_count() & 1 else 1
