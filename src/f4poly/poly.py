"""Exact sparse polynomials in 26 variables and the first-order operators,
dual involution, and weight grading used by the folded-algebra realization."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, repeat
from operator import add, itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

NVARS = 26

Exponent = Tuple[int, ...]
Weight = Tuple[int, int, int, int]

ZERO_EXP: Exponent = (0,) * NVARS

# Eigenvalues of the four diagonal generators on each variable x1..x26.
# Cross-checked against the diagonal operators in the representation module.
VARIABLE_WEIGHTS: Tuple[Weight, ...] = (
    (0, 0, 0, 1),
    (0, 0, 1, -1),
    (0, 1, -1, 0),
    (1, -1, 1, 0),
    (1, 0, -1, 1),
    (-1, 0, 1, 0),
    (1, 0, 0, -1),
    (-1, 1, -1, 1),
    (-1, 1, 0, -1),
    (0, -1, 1, 1),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
    (0, 0, 0, 0),
    (0, 0, 0, 0),
    (0, 0, 1, -2),
    (0, 1, -2, 1),
    (0, 1, -1, -1),
    (1, -1, 0, 1),
    (1, -1, 1, -1),
    (-1, 0, 0, 1),
    (1, 0, -1, 0),
    (-1, 0, 1, -1),
    (-1, 1, -1, 0),
    (0, -1, 1, 0),
    (0, 0, -1, 1),
    (0, 0, 0, -1),
)

# Variable pairing of the dual involution: position j maps to _DUAL_POS[j]
# (0-based); the two central variables are fixed but change sign.
_DUAL_POS: Tuple[int, ...] = tuple(j if j in (12, 13) else 25 - j for j in range(NVARS))
_DUAL_SIGN: Tuple[int, ...] = tuple(-1 if j in (12, 13) else 1 for j in range(NVARS))


def _as_coeff(value: int) -> int:
    if type(value) is int:
        return value
    raise TypeError(f"expected an integer, got {type(value).__name__}")


def _as_variable(index: int) -> int:
    """A 1-based variable index: exactly an int (a bool or a float raises
    TypeError) in 1..NVARS."""
    if type(index) is not int:
        raise TypeError(f"variable index must be an int, got {index!r}")
    if not 1 <= index <= NVARS:
        raise ValueError(f"variable index must be in 1..{NVARS}, got {index}")
    return index


def _as_exponent(exp: Exponent) -> Exponent:
    if type(exp) is not tuple or any(type(k) is not int for k in exp):
        raise TypeError(f"exponent must be a tuple of ints, got {exp!r}")
    if len(exp) != NVARS or min(exp) < 0:
        raise ValueError(f"exponent must be {NVARS} nonnegative ints, got {exp!r}")
    return exp


class Polynomial:
    """Sparse polynomial mapping 26-entry exponent tuples to integer coefficients.

    Read-only: ``terms`` is a view of the private dict ``_terms``, which no
    operation changes once the polynomial is built, so a shared polynomial (a
    cached one, or ``zero() + p``, which is ``p``) cannot be changed.  A
    scalar in ``+``, ``-`` and ``*`` must be exactly an int, as a coefficient
    must: a bool raises TypeError."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None) -> None:
        clean: Dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = _as_exponent(exp)
                if _as_coeff(coeff):
                    clean[exp] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, terms: Dict[Exponent, int]) -> "Polynomial":
        """Wrap a dict of checked, nonzero terms that no one else holds."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @property
    def terms(self) -> Mapping[Exponent, int]:
        """Read-only view of the exponent -> coefficient terms."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        value = _as_coeff(value)
        return cls._raw({ZERO_EXP: value}) if value else cls.zero()

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        index = _as_variable(index)
        exp = tuple(1 if j == index - 1 else 0 for j in range(NVARS))
        return cls._raw({exp: 1})

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff: int = 1) -> "Polynomial":
        exp = _as_exponent(tuple(exp))
        coeff = _as_coeff(coeff)
        return cls._raw({exp: coeff}) if coeff else cls.zero()

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree, or -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            if not other:
                return not self._terms
            return self._terms == {ZERO_EXP: other}
        return NotImplemented

    def __add__(self, other: Polynomial | int) -> "Polynomial":
        if type(other) is int:
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = out.get(exp, 0) + coeff
            if new:
                out[exp] = new
            elif exp in out:
                del out[exp]
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Polynomial | int) -> "Polynomial":
        if type(other) is int:
            return self + (-other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: Polynomial | int) -> "Polynomial":
        if type(other) is int:
            if not other:
                return Polynomial.zero()
            return Polynomial._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: Dict[Exponent, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(map(add, e1, e2))
                new = out.get(exp, 0) + c1 * c2
                if new:
                    out[exp] = new
                elif exp in out:
                    del out[exp]
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative powers are not supported")
        result = Polynomial.constant(1)
        for _ in range(power):
            result = result * self
        return result

    def sorted_terms(self) -> List[Tuple[Exponent, int]]:
        """Terms ordered by total degree then lexicographically, both descending."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: List[str] = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for j, k in enumerate(exp):
                if k == 1:
                    factors.append(f"x{j + 1}")
                elif k:
                    factors.append(f"x{j + 1}^{k}")
            body = "*".join(factors)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            if chunks and not piece.startswith("-"):
                chunks.append(f"+ {piece}")
            elif chunks:
                chunks.append(f"- {piece[1:]}")
            else:
                chunks.append(piece)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def from_pairs(pairs: Iterable[Tuple[int, Sequence[int]]]) -> Polynomial:
    """Build a polynomial from (coefficient, variable-index list) products."""
    acc: Dict[Exponent, int] = {}
    for coeff, indices in pairs:
        exp = [0] * NVARS
        for idx in indices:
            exp[_as_variable(idx) - 1] += 1
        key = tuple(exp)
        new = acc.get(key, 0) + _as_coeff(coeff)
        if new:
            acc[key] = new
        elif key in acc:
            del acc[key]
    return Polynomial._raw(acc)


def dual(poly: Polynomial) -> Polynomial:
    """Degree-preserving involution pairing xr with x(27-r) and negating x13, x14."""
    out: Dict[Exponent, int] = {}
    for exp, coeff in poly._terms.items():
        new = [0] * NVARS
        for j, k in enumerate(exp):
            if k:
                new[_DUAL_POS[j]] = k
        if (exp[12] + exp[13]) % 2:
            coeff = -coeff
        out[tuple(new)] = coeff
    return Polynomial._raw(out)


class Derivation:
    """Linear first-order operator: the sum of c * x_(i+1) * d/dx_(j+1) over the
    nonzero cells (i, j) of a 26x26 matrix.

    ``columns`` holds the sparse columns of that matrix, 0-based, as
    ``((j, ((i, c), ...)), ...)`` with j and i increasing and no zero entries.
    Every coefficient is linear in the variables by construction, and the
    storage is nested tuples, so an operator (a cached one included) cannot be
    changed after it is built.
    """

    __slots__ = ("columns",)

    def __init__(self, cells: Iterable[Tuple[int, int, int]] = ()) -> None:
        """Operator with matrix cells (i, j, c), 0-based; repeated cells add up.
        An index that is not exactly an int, a bool included, raises TypeError."""
        acc: Dict[int, Dict[int, int]] = {}
        for i, j, c in cells:
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"matrix cell indices must be ints, got ({i!r}, {j!r})")
            if not (0 <= i < NVARS and 0 <= j < NVARS):
                raise ValueError(f"matrix cell ({i}, {j}) is outside 0..{NVARS - 1}")
            column = acc.setdefault(j, {})
            column[i] = column.get(i, 0) + _as_coeff(c)
        columns = []
        for j in sorted(acc):
            entries = tuple(sorted((i, c) for i, c in acc[j].items() if c))
            if entries:
                columns.append((j, entries))
        object.__setattr__(self, "columns", tuple(columns))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Derivation is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Derivation is immutable")

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[int, int, int]]) -> "Derivation":
        """Build sum of c * x_r * d/dx_s from (r, s, c) triples (1-based)."""
        return cls((_as_variable(r) - 1, _as_variable(s) - 1, c) for r, s, c in terms)

    def apply(self, poly: Polynomial) -> Polynomial:
        """Act on each monomial: x^e -> sum of c * e[j] * x^(e - e_j + e_i)."""
        out: Dict[Exponent, int] = {}
        for exp, coeff in poly._terms.items():
            for j, entries in self.columns:
                k = exp[j]
                if not k:
                    continue
                scale = k * coeff
                lowered = list(exp)
                lowered[j] = k - 1
                for i, c in entries:
                    lowered[i] += 1
                    key = tuple(lowered)
                    lowered[i] -= 1
                    new = out.get(key, 0) + c * scale
                    if new:
                        out[key] = new
                    elif key in out:
                        del out[key]
        return Polynomial._raw(out)

    __call__ = apply

    def commutator(self, other: "Derivation") -> "Derivation":
        """[self, other] = self o other - other o self: the matrix AB - BA."""
        a, b = dict(self.columns), dict(other.columns)
        cells: List[Tuple[int, int, int]] = []
        for sign, left, right in ((1, a, b), (-1, b, a)):
            for j, entries in right.items():
                for m, c in entries:
                    cells.extend((i, j, sign * d * c) for i, d in left.get(m, ()))
        return Derivation(cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        pieces = [f"{c}*x{i + 1}*d{j + 1}" for j, entries in self.columns for i, c in entries]
        return "Derivation(" + (" + ".join(pieces) or "0") + ")"


def dual_op(op: Derivation) -> Derivation:
    """Conjugate a derivation by the dual involution: a signed relabelling of its
    cells, (i, j, c) -> (pair(i), pair(j), sign(i) * sign(j) * c)."""
    return Derivation(
        (_DUAL_POS[i], _DUAL_POS[j], c * _DUAL_SIGN[i] * _DUAL_SIGN[j])
        for j, entries in op.columns
        for i, c in entries
    )


class WeightError(ValueError):
    """Raised when a polynomial mixes monomials of different weights."""

    def __init__(self, first: Weight, second: Weight) -> None:
        super().__init__(f"mixed weights {first} and {second}")
        self.first = first
        self.second = second


def exponent_weight(exp: Sequence[int]) -> Weight:
    """Sum of variable weights with multiplicity for one monomial."""
    totals = [0, 0, 0, 0]
    for j, k in enumerate(exp):
        if k:
            w = VARIABLE_WEIGHTS[j]
            for i in range(4):
                totals[i] += k * w[i]
    return (totals[0], totals[1], totals[2], totals[3])


def weight(poly: Polynomial) -> Weight:
    """Common weight of all monomials; raises WeightError if they disagree."""
    if not poly._terms:
        raise ValueError("the zero polynomial has no well-defined weight")
    result: Weight | None = None
    for exp in poly._terms:
        w = exponent_weight(exp)
        if result is None:
            result = w
        elif w != result:
            raise WeightError(result, w)
    assert result is not None
    return result


# Variables in the tails of monomials_of_degree.  With 10, the tails, all held
# at once, stay small (8,008 up to degree 6), and the heads they are joined to
# number about a tenth of the monomials (74,613 at degree 6).
_TAIL = 10


def _exponent_tuples(nvars: int, degree: int) -> Iterator[Exponent]:
    """Exponent tuples of `nvars` variables and total `degree`, in the order of
    combinations_with_replacement(range(nvars), degree): descending
    lexicographic on exponents."""
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for j in combo:
            exp[j] += 1
        yield tuple(exp)


def _joined_exponents(
    nvars: int, degree: int, tails: Sequence[Sequence[Exponent]]
) -> Iterator[Exponent]:
    """The tuples of _exponent_tuples(nvars, degree), in the same order, but
    past _TAIL variables each joined in C from a head over the first
    nvars - _TAIL variables and a tail over the last _TAIL, tails[r] holding
    the tails of degree r.  The heads carry one more, slack, coordinate, the
    degree r left to the tail, and are walked by this function in turn; each
    is followed by every tail of degree r in order, which is the order of
    the whole tuples."""
    if nvars <= _TAIL:
        return _exponent_tuples(nvars, degree)
    heads = _joined_exponents(nvars - _TAIL + 1, degree, tails)
    return chain.from_iterable(map(head[:-1].__add__, tails[head[-1]]) for head in heads)


def monomials_of_degree(degree: int) -> Iterator[Exponent]:
    """All exponent tuples of the given total degree, in a fixed canonical order:
    that of combinations_with_replacement(range(NVARS), degree), descending
    lexicographic on exponents.

    Each tuple is a head over the first NVARS - _TAIL variables followed by
    a tail over the last _TAIL, and each head, with its slack coordinate, is
    in turn a head over 7 + 1 coordinates and a tail over 10 (see
    _joined_exponents).  Only the 8,008 tails and 1,716 inner heads are
    built in Python at degree 6; the 74,613 heads and the 736,281 tuples are
    joined by tuple addition in C."""
    if degree < 0:
        return iter(())
    tails = [list(_exponent_tuples(_TAIL, r)) for r in range(degree + 1)]
    return _joined_exponents(NVARS, degree, tails)


# Largest |component| of a variable weight, so a degree-d weight has every
# component in -MAX_COMPONENT*d..MAX_COMPONENT*d.
_MAX_COMPONENT = max(abs(c) for w in VARIABLE_WEIGHTS for c in w)


def pack_weight(w: Sequence[int], degree: int) -> int:
    """Weight of a degree-`degree` monomial as one int: balanced base-b digits
    with b = 2 * MAX_COMPONENT * degree + 1, so distinct weights get distinct
    ints and int order is the lexicographic order of the weights."""
    base = 2 * _MAX_COMPONENT * degree + 1
    key = 0
    for c in w:
        key = key * base + c
    return key


def unpack_weight(key: int, degree: int) -> Weight:
    """Inverse of pack_weight at the same degree."""
    half = _MAX_COMPONENT * degree
    base = 2 * half + 1
    digits = []
    for _ in range(4):
        digit = (key + half) % base - half
        digits.append(digit)
        key = (key - digit) // base
    return (digits[3], digits[2], digits[1], digits[0])


def degree_weight_table(degree: int) -> Mapping[Weight, Tuple[Exponent, ...]]:
    """Dominant weight blocks of one degree: the monomials whose weight has no
    negative component, grouped by weight, keys sorted descending.

    The weights of degree-`degree` monomials are the `degree`-fold sums of
    the variable weights, packed as ints (packing is linear): 7,225 at
    degree 6, 39 of them dominant.  They are found first; `half` is their
    largest |key|, and the n-th dominant key, in descending order, gets the
    tag n > 0.

    Dominance is then decided once per head, not per monomial.  The order
    contract: monomials_of_degree joins each monomial from a head over the
    first NVARS - _TAIL variables and a tail over the last _TAIL, the heads
    in the order of combinations_with_replacement over the head variables
    and a slack, whose count r is the tail's degree, each followed by its
    tails in the order of combinations_with_replacement over the tail
    variables.  Walking the packed weights the same way, head by head, the
    n-th tag below belongs to the n-th monomial.  Summing a head of packed
    weights, the slack's step being 2 * half + 1, gives a code, head key +
    r * (2 * half + 1).  A head key is the weight
    of a partial monomial of degree `degree` - r, and x13 is a head variable
    of weight zero, so the partial monomial times x13^r is a degree-`degree`
    monomial of the same weight: |head key| <= half, and the code decodes to
    (head key, r).  Each distinct code gets one row of tags, one per tail
    of degree r, 0 for a weight that is not dominant, and the all-zero rows
    are shared, one per r: 5,166 codes for 74,613 heads at degree 6, 467 of
    them with a nonzero tag.  A row is bytes, an eighth of a tuple's size:
    a tag fits in a byte through degree 12 (249 dominant weights), far
    beyond the degrees the walk can reach.  Chained, the rows give each
    monomial's tag, and filter keeps the nonzero ones, in C, so the Python
    loop sees only the kept monomials: 13,205 of 736,281 at degree 6.

    The enumeration stays whole while bench/run.py's SINGULAR_ANSWERS pins
    poly.monomials_enumerated.  Built afresh on each call, so freed with the
    caller's reference; read-only."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    packed = tuple(pack_weight(w, degree) for w in VARIABLE_WEIGHTS)
    steps = set(packed)
    reached = {0}
    for _ in range(degree):
        reached = {key + step for key in reached for step in steps}
    half = max(map(abs, reached))
    slack = 2 * half + 1
    dominant = sorted((k for k in reached if min(unpack_weight(k, degree)) >= 0), reverse=True)
    tag_of = {key: tag for tag, key in enumerate(dominant, 1)}
    heads = combinations_with_replacement((*packed[:-_TAIL], slack), degree)
    tail_keys = [
        list(map(sum, combinations_with_replacement(packed[-_TAIL:], r))) for r in range(degree + 1)
    ]
    untagged = [bytes(len(keys)) for keys in tail_keys]

    @lru_cache(maxsize=None)
    def tags(code: int) -> bytes:
        r, head = divmod(code + half, slack)
        found = bytes(map(tag_of.get, map((head - half).__add__, tail_keys[r]), repeat(0)))
        return found if any(found) else untagged[r]

    kept = filter(
        itemgetter(1),
        zip(
            monomials_of_degree(degree),
            chain.from_iterable(map(tags, map(sum, heads))),
            strict=True,
        ),
    )
    blocks: List[List[Exponent]] = [[] for _ in dominant]
    for exp, tag in kept:
        blocks[tag - 1].append(exp)
    return MappingProxyType(
        {unpack_weight(key, degree): tuple(block) for key, block in zip(dominant, blocks)}
    )


def poly_to_json(poly: Polynomial) -> List[Dict[str, object]]:
    """Serialize to a list of {exp, num, den} records in canonical term order;
    every coefficient is an integer, so den is always "1"."""
    return [{"exp": list(exp), "num": str(coeff), "den": "1"} for exp, coeff in poly.sorted_terms()]
