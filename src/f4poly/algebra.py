"""The 78-dimensional simply-laced Lie algebra built from the rank-6 lattice,
its diagram involution, and the folded rank-4 subalgebra with its
26-dimensional module inside the odd eigenspace."""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from . import lattice, linalg
from .lattice import Vector

# ('h', i) with i in 1..6 is the i-th simple coroot; ('e', v) is the root vector at v.
Label = Tuple[str, object]
# An element of the algebra, and so also a bracket of two basis elements:
# (index, coefficient) pairs, indices strictly increasing and coefficients
# nonzero; () is zero.
Cell = Tuple[Tuple[int, int], ...]
F4Root = Tuple[int, int, int, int]

DIM = 78


@lru_cache(maxsize=None)
def labels() -> Tuple[Label, ...]:
    """Canonical ordered basis: six coroots, then the 72 root vectors."""
    return tuple(("h", i) for i in range(1, 7)) + tuple(("e", r) for r in lattice.all_roots())


@lru_cache(maxsize=None)
def label_index() -> Mapping[Label, int]:
    """Read-only map from basis label to its position in ``labels()``."""
    return MappingProxyType({lab: i for i, lab in enumerate(labels())})


@lru_cache(maxsize=None)
def structure_table() -> Tuple[Tuple[Cell, ...], ...]:
    """Bracket of basis pairs by index: T[i][j] = [b_i, b_j] as a ``Cell``.

    The table is cached and shared, and every cell is an immutable tuple.
    """
    roots = lattice.all_roots()
    rset = lattice.root_set()
    root_at = {r: 6 + k for k, r in enumerate(roots)}
    table: List[List[Cell]] = [[()] * DIM for _ in range(DIM)]
    for i in range(6):
        alpha = lattice.simple_root(i + 1)
        for k, beta in enumerate(roots):
            pairing = lattice.inner(alpha, beta)
            if pairing:
                table[i][6 + k] = ((6 + k, pairing),)
                table[6 + k][i] = ((6 + k, -pairing),)
    for a_pos, alpha in enumerate(roots):
        ia = 6 + a_pos
        for b_pos, beta in enumerate(roots):
            ib = 6 + b_pos
            total = lattice.add(alpha, beta)
            if total == lattice.ZERO:
                table[ia][ib] = tuple((i, -alpha[i]) for i in range(6) if alpha[i])
            elif total in rset:
                table[ia][ib] = ((root_at[total], lattice.cocycle(alpha, beta)),)
    return tuple(map(tuple, table))


def _cell(acc: Mapping[int, int]) -> Cell:
    """The cell of a map from basis index to coefficient, zeros dropped."""
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


def bracket(left: Cell, right: Cell) -> Cell:
    """Lie bracket of two elements: the sum of c_i d_j T[i][j] over their pairs."""
    table = structure_table()
    acc: Dict[int, int] = {}
    for i, c in left:
        row = table[i]
        for j, d in right:
            for k, w in row[j]:
                acc[k] = acc.get(k, 0) + c * d * w
    return _cell(acc)


@lru_cache(maxsize=None)
def sigma() -> Tuple[int, ...]:
    """The diagram involution as a permutation of basis indices: b_i -> b_sigma[i]."""
    coroots = tuple(lattice.diagram_involution(lattice.simple_root(i)).index(1) for i in range(1, 7))
    index = label_index()
    return coroots + tuple(index[("e", lattice.diagram_involution(r))] for r in lattice.all_roots())


# Failures each sweep reports before it stops.
_AUTOMORPHISM_FAILURE_LIMIT = 5
_JACOBI_FAILURE_LIMIT = 1


def involution_is_automorphism_failures() -> List[Tuple[Label, Label]]:
    """Basis pairs whose bracket the involution fails to preserve, that is
    where T[sigma i][sigma j] is not T[i][j] relabelled k -> sigma k.

    The relabelled pairs are re-sorted: sigma permutes the coroots, which share cells.
    """
    table, perm, labs = structure_table(), sigma(), labels()
    failures: List[Tuple[Label, Label]] = []
    for i in range(DIM):
        row, image_row = table[i], table[perm[i]]
        for j in range(DIM):
            if image_row[perm[j]] != tuple(sorted((perm[k], c) for k, c in row[j])):
                failures.append((labs[i], labs[j]))
                if len(failures) >= _AUTOMORPHISM_FAILURE_LIMIT:
                    return failures
    return failures


def antisymmetry_failures() -> int:
    """Count of basis pairs violating [x,y] = -[y,x], including [x,x] = 0: a
    cell's coefficients are nonzero, so no nonzero [x,x] equals its negation."""
    table = structure_table()
    count = 0
    for i in range(DIM):
        for j in range(i, DIM):
            if table[i][j] != tuple((k, -c) for k, c in table[j][i]):
                count += 1
    return count


@lru_cache(maxsize=None)
def jacobi_failures() -> Tuple[Tuple[int, int, int], ...]:
    """Index triples i<j<k violating the Jacobi identity, in (i, j, k) order.

    By bilinearity the identity holds on all of the algebra iff it holds on
    basis triples, and by antisymmetry (checked separately) it suffices to
    sweep strictly increasing triples: permuting a triple only permutes and
    negates the three summands.

    Each pair i<j sums the three terms of every k>j into one accumulator,
    keyed by k*DIM + target, walking only nonzero cells: [x_i, [x_j, x_k]]
    from row j, -[x_j, [x_i, x_k]] from row i, and [x_k, [x_i, x_j]] from
    the column of each index in T[i][j].  The sweep stays exhaustive: a
    triple no walk reaches has all three terms zero.
    """
    table = structure_table()
    # Nonzero cells by row and by column as sorted (key, ...) tuples, with
    # key k*DIM in row entries and k*DIM + target in column entries, so that
    # bisecting for (first,) finds the first entry with k > j.
    rows = [[(k * DIM, mid, c) for k, cell in enumerate(row) for mid, c in cell] for row in table]
    columns = [
        [(k * DIM + target, w) for k, row in enumerate(table) for target, w in row[mid]]
        for mid in range(DIM)
    ]
    failures: List[Tuple[int, int, int]] = []
    for i in range(DIM):
        row_i, cells_i = table[i], rows[i]
        for j in range(i + 1, DIM):
            row_j, cells_j, first = table[j], rows[j], ((j + 1) * DIM,)
            acc: Dict[int, int] = {}
            for base, mid, c in cells_j[bisect_left(cells_j, first):]:
                for target, w in row_i[mid]:
                    acc[base + target] = acc.get(base + target, 0) + c * w
            for base, mid, c in cells_i[bisect_left(cells_i, first):]:
                for target, w in row_j[mid]:
                    acc[base + target] = acc.get(base + target, 0) - c * w
            for mid, c in row_i[j]:
                column = columns[mid]
                for key, w in column[bisect_left(column, first):]:
                    acc[key] = acc.get(key, 0) + c * w
            if any(acc.values()):
                for k in sorted({key // DIM for key, value in acc.items() if value}):
                    failures.append((i, j, k))
                    if len(failures) >= _JACOBI_FAILURE_LIMIT:
                        return tuple(failures)
    return tuple(failures)


def eigenspace_dimensions() -> Tuple[int, int]:
    """(dim of fixed subalgebra, dim of odd eigenspace) of the involution: 78
    less the ranks of sigma - 1 and sigma + 1, each read from its basis images."""
    perm = sigma()
    minus_rows = [{j: 1, i: -1} for i, j in enumerate(perm) if i != j]
    plus_rows = [{j: 1, i: 1} if i != j else {i: 2} for i, j in enumerate(perm)]
    fixed = DIM - linalg.rank(minus_rows)
    odd = DIM - linalg.rank(plus_rows)
    return fixed, odd


def fold(root: Sequence[int]) -> F4Root:
    """Project a rank-6 root to its rank-4 folded coordinates."""
    return (root[1], root[3], root[2] + root[4], root[0] + root[5])


# Positive roots of the folded algebra in presentation order, which operator
# labels and the transcribed tables follow.
F4_POSITIVE: Tuple[F4Root, ...] = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 0),
    (0, 1, 1, 1), (0, 1, 2, 0), (1, 1, 2, 0), (0, 1, 2, 1),
    (1, 1, 1, 1), (1, 2, 2, 0), (1, 1, 2, 1), (0, 1, 2, 2),
    (1, 2, 2, 1), (1, 1, 2, 2), (1, 2, 2, 2), (1, 2, 3, 1),
    (1, 2, 3, 2), (1, 2, 4, 2), (1, 3, 4, 2), (2, 3, 4, 2),
)

F4_SIMPLE: Tuple[F4Root, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@lru_cache(maxsize=None)
def f4_fiber(root: F4Root) -> Tuple[Vector, ...]:
    """Rank-6 positive roots beta with fold(beta) == root (1 long, 2 short).

    ``fold`` sums the coefficients over each orbit of the diagram involution,
    so fold(beta) == fold(sigma(beta)) and every fiber is a union of
    involution orbits; each of the 24 is a single orbit, a fixed root or a
    root and its distinct image.
    """
    fiber = tuple(beta for beta in lattice.positive_roots() if fold(beta) == root)
    if not fiber:
        raise ValueError(f"{root} is not a positive root of the folded system")
    return fiber


def f4_root_vector(root: Sequence[int], sign: int = 1) -> Cell:
    """Folded generator for +-(positive root): sum of root vectors over the fiber."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    index = label_index()
    fiber = f4_fiber(tuple(root))
    return _cell({index[("e", beta if sign == 1 else lattice.neg(beta))]: 1 for beta in fiber})


def _coroot_cell(coeffs: Sequence[int]) -> Cell:
    """The diagonal element sum c_i h_i: coroot h_i sits at index i - 1."""
    return tuple((i, c) for i, c in enumerate(coeffs) if c)


def f4_cartan(i: int) -> Cell:
    """The i-th diagonal generator of the folded subalgebra (i in 1..4).

    The fiber of a simple folded root consists of simple roots alpha_j, and
    the generator is the sum of their coroots h_j.
    """
    if not 1 <= i <= 4:
        raise ValueError(f"diagonal generator index must be in 1..4, got {i}")
    fiber = f4_fiber(F4_SIMPLE[i - 1])
    return _coroot_cell([sum(column) for column in zip(*fiber)])


# Seed roots for the module basis: x_i = E(seed) - E(flip(seed)) for i = 1..12,
# and x_(27-i) is the same difference at the negated roots.
_V_SEED: Tuple[Vector, ...] = (
    (1, 1, 2, 2, 1, 1),
    (1, 1, 2, 2, 1, 0),
    (1, 1, 1, 2, 1, 0),
    (1, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 0, 0),
    (1, 0, 1, 1, 1, 0),
    (0, 1, 1, 1, 0, 0),
    (1, 0, 1, 1, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (1, 0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
)


@lru_cache(maxsize=None)
def v_basis(i: int) -> Cell:
    """The i-th basis element (1..26) of the 26-dimensional module."""
    if not 1 <= i <= 26:
        raise ValueError(f"module basis index must be in 1..26, got {i}")
    if i == 13:
        return _coroot_cell((1, 0, 0, 0, 0, -1))
    if i == 14:
        return _coroot_cell((0, 0, 1, 0, -1, 0))
    seed = _V_SEED[i - 1] if i <= 12 else lattice.neg(_V_SEED[26 - i])
    index = label_index()
    return _cell({index[("e", seed)]: 1, index[("e", lattice.diagram_involution(seed))]: -1})


@lru_cache(maxsize=None)
def _module_leads() -> Mapping[int, Tuple[int, int]]:
    """Read-only map from the lead index of each v_basis(i) to (i, lead
    coefficient). No two elements share a lead index: h1 leads x13, h3 leads
    x14, and each other element leads with the lower of its two roots."""
    return MappingProxyType({v_basis(i)[0][0]: (i, v_basis(i)[0][1]) for i in range(1, 27)})


def decompose_v(element: Cell) -> Tuple[Tuple[int, int], ...]:
    """Coordinates in the module basis as (index 1..26, coefficient) pairs,
    indices increasing and coefficients nonzero.

    Each coordinate is read from its basis element's lead index; every lead
    coefficient is +-1, so multiplying by it divides by it.  Raises
    ValueError unless the coordinates rebuild the element exactly.
    """
    leads = _module_leads()
    coords = sorted((leads[k][0], c * leads[k][1]) for k, c in element if k in leads)
    acc: Dict[int, int] = {}
    for i, x in coords:
        for k, c in v_basis(i):
            acc[k] = acc.get(k, 0) + x * c
    if _cell(acc) != element:
        raise ValueError("element is not in the span of the module basis")
    return tuple(coords)


def ad_on_v(element: Cell) -> Tuple[Tuple[int, int, int], ...]:
    """Adjoint action on the module basis as the nonzero cells (i, j, c) of
    its 26x26 matrix, 0-based: [element, x_(j+1)] has coefficient c on
    x_(i+1).  Cells run column by column, rows increasing in each.

    Requires the element to be fixed by the involution, so that the action
    preserves the odd eigenspace.
    """
    perm = sigma()
    if tuple(sorted((perm[k], c) for k, c in element)) != element:
        raise ValueError("element is not fixed by the algebra involution")
    return tuple(
        (i - 1, j, c) for j in range(26) for i, c in decompose_v(bracket(element, v_basis(j + 1)))
    )


def f4_generator(label: Tuple) -> Cell:
    """Folded generator by label: ('h', i) or ('e', root4, sign)."""
    if label[0] == "h":
        return f4_cartan(label[1])
    if label[0] == "e":
        return f4_root_vector(label[1], label[2])
    raise ValueError(f"unknown generator label {label!r}")
