"""The 78-dimensional simply-laced Lie algebra built from the rank-6 lattice,
its diagram involution, and the folded rank-4 subalgebra with its
26-dimensional module inside the odd eigenspace."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from . import lattice, linalg
from .lattice import Vector

Coeff = Union[int, Fraction]
# ('h', i) with i in 1..6 is the i-th simple coroot; ('e', v) is the root vector at v.
Label = Tuple[str, object]
F4Root = Tuple[int, int, int, int]

DIM = 78

# Image of simple-root index i under the diagram involution, read off its action
# on the simple roots.
_SIGMA_INDEX = tuple(
    lattice.diagram_involution(lattice.simple_root(i)).index(1) + 1 for i in range(1, 7)
)


@lru_cache(maxsize=None)
def labels() -> Tuple[Label, ...]:
    """Canonical ordered basis: six coroots, then the 72 root vectors."""
    return tuple(("h", i) for i in range(1, 7)) + tuple(("e", r) for r in lattice.all_roots())


@lru_cache(maxsize=None)
def label_index() -> Mapping[Label, int]:
    """Read-only map from basis label to its position in ``labels()``."""
    return MappingProxyType({lab: i for i, lab in enumerate(labels())})


class AlgebraElement:
    """Exact linear combination of basis labels of the 78-dimensional algebra."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Label, Coeff] | None = None) -> None:
        clean: Dict[Label, Coeff] = {}
        if terms:
            index = label_index()
            for lab, coeff in terms.items():
                if lab not in index:
                    raise ValueError(f"unknown basis label {lab!r}")
                if coeff:
                    clean[lab] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, terms: Dict[Label, Coeff]) -> "AlgebraElement":
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls._raw({})

    @classmethod
    def coroot(cls, i: int) -> "AlgebraElement":
        if not 1 <= i <= 6:
            raise ValueError(f"simple coroot index must be in 1..6, got {i}")
        return cls._raw({("h", i): 1})

    @classmethod
    def cartan(cls, coeffs: Sequence[Coeff]) -> "AlgebraElement":
        if len(coeffs) != 6:
            raise ValueError("a diagonal element needs six coefficients")
        return cls({("h", i + 1): c for i, c in enumerate(coeffs)})

    @classmethod
    def root_vector(cls, root: Sequence[int]) -> "AlgebraElement":
        root = tuple(root)
        if root not in lattice.root_set():
            raise ValueError(f"{root} is not a root")
        return cls._raw({("e", root): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self.terms)
        for lab, coeff in other.terms.items():
            new = out.get(lab, 0) + coeff
            if new:
                out[lab] = new
            elif lab in out:
                del out[lab]
        return AlgebraElement._raw(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw({lab: -c for lab, c in self.terms.items()})

    def __rmul__(self, scalar: Coeff) -> "AlgebraElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return AlgebraElement.zero()
        return AlgebraElement._raw({lab: c * scalar for lab, c in self.terms.items()})

    __mul__ = __rmul__

    def coordinates(self) -> List[Coeff]:
        """Dense coordinate vector in the canonical 78-label basis."""
        index = label_index()
        out: List[Coeff] = [0] * DIM
        for lab, coeff in self.terms.items():
            out[index[lab]] = coeff
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        index = label_index()
        pieces = []
        for lab in sorted(self.terms, key=index.__getitem__):
            coeff = self.terms[lab]
            name = f"h{lab[1]}" if lab[0] == "h" else f"E{lab[1]}"
            pieces.append(f"{coeff}*{name}")
        return "AlgebraElement(" + " + ".join(pieces) + ")"


@lru_cache(maxsize=None)
def structure_table() -> Tuple[Tuple[Mapping[int, int], ...], ...]:
    """Bracket of basis pairs as index-keyed sparse rows: T[i][j] = [b_i, b_j].

    The table is cached and shared, so each cell is a read-only mapping.
    """
    labs = labels()
    roots = lattice.all_roots()
    rset = lattice.root_set()
    root_at = {r: 6 + k for k, r in enumerate(roots)}
    table: List[List[Dict[int, int]]] = [[{} for _ in range(DIM)] for _ in range(DIM)]
    for i in range(6):
        alpha = lattice.simple_root(i + 1)
        for k, beta in enumerate(roots):
            pairing = lattice.inner(alpha, beta)
            if pairing:
                table[i][6 + k] = {6 + k: pairing}
                table[6 + k][i] = {6 + k: -pairing}
    for a_pos, alpha in enumerate(roots):
        ia = 6 + a_pos
        for b_pos, beta in enumerate(roots):
            ib = 6 + b_pos
            total = lattice.add(alpha, beta)
            if total == lattice.ZERO:
                table[ia][ib] = {i: -alpha[i] for i in range(6) if alpha[i]}
            elif total in rset:
                table[ia][ib] = {root_at[total]: lattice.cocycle(alpha, beta)}
    empty: Mapping[int, int] = MappingProxyType({})  # shared by the 4068 empty cells
    return tuple(tuple(MappingProxyType(cell) if cell else empty for cell in row) for row in table)


def bracket(left: AlgebraElement, right: AlgebraElement) -> AlgebraElement:
    """Lie bracket of two elements."""
    table = structure_table()
    index = label_index()
    labs = labels()
    acc: Dict[int, Coeff] = {}
    for lab_l, c_l in left.terms.items():
        row = table[index[lab_l]]
        for lab_r, c_r in right.terms.items():
            product = c_l * c_r
            for target, weight in row[index[lab_r]].items():
                new = acc.get(target, 0) + product * weight
                if new:
                    acc[target] = new
                elif target in acc:
                    del acc[target]
    return AlgebraElement._raw({labs[k]: c for k, c in acc.items()})


def _involution_label(lab: Label) -> Label:
    if lab[0] == "h":
        return ("h", _SIGMA_INDEX[lab[1] - 1])
    return ("e", lattice.diagram_involution(lab[1]))


def involution(element: AlgebraElement) -> AlgebraElement:
    """The order-2 algebra automorphism induced by the diagram flip."""
    return AlgebraElement._raw({_involution_label(lab): c for lab, c in element.terms.items()})


# Failures each sweep reports before it stops.
_AUTOMORPHISM_FAILURE_LIMIT = 5
_JACOBI_FAILURE_LIMIT = 1


def involution_is_automorphism_failures() -> List[Tuple[Label, Label]]:
    """Basis pairs where the involution fails to preserve the bracket."""
    labs = labels()
    failures: List[Tuple[Label, Label]] = []
    basis = [AlgebraElement._raw({lab: 1}) for lab in labs]
    images = [involution(b) for b in basis]
    for i in range(DIM):
        for j in range(DIM):
            if involution(bracket(basis[i], basis[j])) != bracket(images[i], images[j]):
                failures.append((labs[i], labs[j]))
                if len(failures) >= _AUTOMORPHISM_FAILURE_LIMIT:
                    return failures
    return failures


def antisymmetry_failures() -> int:
    """Count of basis pairs violating [x,y] = -[y,x] (including [x,x] = 0)."""
    table = structure_table()
    count = 0
    for i in range(DIM):
        for j in range(i, DIM):
            forward = table[i][j]
            backward = table[j][i]
            if i == j:
                if forward:
                    count += 1
            elif forward != {k: -v for k, v in backward.items()}:
                count += 1
    return count


@lru_cache(maxsize=None)
def jacobi_failures() -> Tuple[Tuple[int, int, int], ...]:
    """Index triples i<j<k violating the Jacobi identity.

    By bilinearity the identity holds on all of the algebra iff it holds on
    basis triples, and by antisymmetry (checked separately) it suffices to
    sweep strictly increasing triples: permuting a triple only permutes and
    negates the three summands.
    """
    # Each cell as a tuple of (index, coefficient) pairs: the sweep reads
    # every cell many times, and a tuple iterates faster than a read-only view.
    table = [[tuple(cell.items()) for cell in row] for row in structure_table()]
    failures: List[Tuple[int, int, int]] = []
    for i in range(DIM):
        row_i = table[i]
        for j in range(i + 1, DIM):
            row_j = table[j]
            bracket_ij = row_i[j]
            for k in range(j + 1, DIM):
                acc: Dict[int, int] = {}
                for mid, c in row_j[k]:
                    for target, w in row_i[mid]:
                        acc[target] = acc.get(target, 0) + c * w
                # [x_j, [x_k, x_i]] = -[x_j, [x_i, x_k]]
                for mid, c in row_i[k]:
                    for target, w in row_j[mid]:
                        acc[target] = acc.get(target, 0) - c * w
                row_k = table[k]
                for mid, c in bracket_ij:
                    for target, w in row_k[mid]:
                        acc[target] = acc.get(target, 0) + c * w
                if any(acc.values()):
                    failures.append((i, j, k))
                    if len(failures) >= _JACOBI_FAILURE_LIMIT:
                        return tuple(failures)
    return tuple(failures)


def eigenspace_dimensions() -> Tuple[int, int]:
    """(dim of fixed subalgebra, dim of odd eigenspace) of the involution."""
    labs = labels()
    index = label_index()
    minus_rows: List[Dict[int, int]] = []
    plus_rows: List[Dict[int, int]] = []
    for lab in labs:
        i = index[lab]
        j = index[_involution_label(lab)]
        if i == j:
            minus_rows.append({})
            plus_rows.append({i: 2})
        else:
            minus_rows.append({j: 1, i: -1})
            plus_rows.append({j: 1, i: 1})
    fixed = DIM - linalg.rank(minus_rows)
    odd = DIM - linalg.rank(plus_rows)
    return fixed, odd


def fold(root: Sequence[int]) -> F4Root:
    """Project a rank-6 root to its rank-4 folded coordinates."""
    return (root[1], root[3], root[2] + root[4], root[0] + root[5])


# Positive roots of the folded algebra in presentation order, which operator
# labels and errata records follow.
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


def f4_root_vector(root: Sequence[int], sign: int = 1) -> AlgebraElement:
    """Folded generator for +-(positive root): sum of root vectors over the fiber."""
    root = tuple(root)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    terms: Dict[Label, Coeff] = {}
    for beta in f4_fiber(root):
        vec = beta if sign == 1 else lattice.neg(beta)
        terms[("e", vec)] = 1
    return AlgebraElement._raw(terms)


def f4_cartan(i: int) -> AlgebraElement:
    """The i-th diagonal generator of the folded subalgebra (i in 1..4).

    The fiber of a simple folded root consists of simple roots alpha_j, and
    the generator is the sum of their coroots h_j.
    """
    if not 1 <= i <= 4:
        raise ValueError(f"diagonal generator index must be in 1..4, got {i}")
    fiber = f4_fiber(F4_SIMPLE[i - 1])
    return AlgebraElement.cartan([sum(column) for column in zip(*fiber)])


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
def v_basis(i: int) -> AlgebraElement:
    """The i-th basis element (1..26) of the 26-dimensional module."""
    if not 1 <= i <= 26:
        raise ValueError(f"module basis index must be in 1..26, got {i}")
    if i == 13:
        return AlgebraElement.cartan((1, 0, 0, 0, 0, -1))
    if i == 14:
        return AlgebraElement.cartan((0, 0, 1, 0, -1, 0))
    if i <= 12:
        seed = _V_SEED[i - 1]
        mate = lattice.diagram_involution(seed)
    else:
        seed = lattice.neg(_V_SEED[26 - i])
        mate = lattice.diagram_involution(seed)
    return AlgebraElement._raw({("e", seed): 1, ("e", mate): -1})


@lru_cache(maxsize=None)
def _module_root_index() -> Mapping[Vector, Tuple[int, int]]:
    """Read-only map from each involution-moved root to (module basis index, sign)."""
    table: Dict[Vector, Tuple[int, int]] = {}
    for i in list(range(1, 13)) + list(range(15, 27)):
        for lab, coeff in v_basis(i).terms.items():
            table[lab[1]] = (i, coeff)
    return MappingProxyType(table)


def decompose_v(element: AlgebraElement) -> List[Coeff]:
    """Coordinates (index 1..26; entry 0 unused) in the module basis.

    Raises ValueError if the element lies outside the span of the basis.
    """
    table = _module_root_index()
    coords: List[Coeff] = [0] * 27
    cartan = [0] * 6
    for lab, coeff in element.terms.items():
        if lab[0] == "h":
            cartan[lab[1] - 1] = coeff
        else:
            hit = table.get(lab[1])
            if hit is None:
                raise ValueError(f"root vector at {lab[1]} lies outside the module")
            i, sign = hit
            if not coords[i]:
                coords[i] = coeff * sign
    coords[13] = cartan[0]
    coords[14] = cartan[2]
    recon = AlgebraElement.zero()
    for i in range(1, 27):
        if coords[i]:
            recon = recon + coords[i] * v_basis(i)
    if recon != element:
        raise ValueError("element is not in the span of the module basis")
    return coords


def ad_on_v(element: AlgebraElement) -> List[List[Coeff]]:
    """26x26 matrix of the adjoint action on the module basis.

    Requires the element to be fixed by the involution, so that the action
    preserves the odd eigenspace.
    """
    if involution(element) != element:
        raise ValueError("element is not fixed by the algebra involution")
    columns = []
    for j in range(1, 27):
        columns.append(decompose_v(bracket(element, v_basis(j))))
    return [[columns[j][i + 1] for j in range(26)] for i in range(26)]


def f4_generator(label: Tuple) -> AlgebraElement:
    """Folded generator by label: ('h', i) or ('e', root4, sign)."""
    if label[0] == "h":
        return f4_cartan(label[1])
    if label[0] == "e":
        return f4_root_vector(label[1], label[2])
    raise ValueError(f"unknown generator label {label!r}")
