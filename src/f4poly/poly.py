"""Exact sparse polynomials in 26 variables and the first-order operators,
dual involution, and weight grading used by the folded-algebra realization."""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, compress, tee
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
    cached one, or ``zero() + p``, which is ``p``) cannot be changed."""

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
        if not 1 <= index <= NVARS:
            raise ValueError(f"variable index must be in 1..{NVARS}, got {index}")
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
        if isinstance(other, int):
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
        if isinstance(other, int):
            return self + (-other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: Polynomial | int) -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return Polynomial.zero()
            return Polynomial._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: Dict[Exponent, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
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
            if not 1 <= idx <= NVARS:
                raise ValueError(f"variable index must be in 1..{NVARS}, got {idx}")
            exp[idx - 1] += 1
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
        """Operator with matrix cells (i, j, c), 0-based; repeated cells add up."""
        acc: Dict[int, Dict[int, int]] = {}
        for i, j, c in cells:
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
        return cls((r - 1, s - 1, c) for r, s, c in terms)

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


def monomials_of_degree(degree: int) -> Iterator[Exponent]:
    """All exponent tuples of the given total degree, in a fixed canonical order:
    that of combinations_with_replacement(range(NVARS), degree), descending
    lexicographic on exponents.

    Each tuple is a head over the first NVARS - _TAIL variables followed by a
    tail over the last _TAIL.  The heads carry one more, slack, coordinate,
    the degree left to the tail; walked in descending lexicographic order,
    each is followed by all tails of that degree in the same order, which is
    the order of the whole tuples.  Only heads and tails are built in Python;
    the 736,281 tuples of degree 6 are joined by tuple addition in C."""
    if degree < 0:
        return iter(())
    tails = [list(_exponent_tuples(_TAIL, r)) for r in range(degree + 1)]
    heads = _exponent_tuples(NVARS - _TAIL + 1, degree)
    return chain.from_iterable(map(head[:-1].__add__, tails[head[-1]]) for head in heads)


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
    degree 6, 39 of them dominant.  The dominant ones are found first.
    monomials_of_degree walks the index multisets of
    combinations_with_replacement(range(NVARS), degree), so the same walk
    over the packed variable weights yields, in the same order, each
    monomial's packed weight.  compress drops every monomial whose weight is
    not dominant, in C, and the Python loop sees only the kept ones: 13,205
    of 736,281 at degree 6.  The enumeration stays whole while
    bench/run.py's SINGULAR_ANSWERS pins poly.monomials_enumerated.  Built
    afresh on each call, so freed with the caller's reference; read-only."""
    packed = tuple(pack_weight(w, degree) for w in VARIABLE_WEIGHTS)
    steps = set(packed)
    reached = {0}
    for _ in range(degree):
        reached = {key + step for key in reached for step in steps}
    dominant = {key for key in reached if min(unpack_weight(key, degree)) >= 0}
    blocks: Dict[int, List[Exponent]] = {key: [] for key in sorted(dominant, reverse=True)}
    keys, probe = tee(map(sum, combinations_with_replacement(packed, degree)))
    kept = compress(
        zip(monomials_of_degree(degree), keys, strict=True), map(dominant.__contains__, probe)
    )
    for exp, key in kept:
        blocks[key].append(exp)
    return MappingProxyType({unpack_weight(k, degree): tuple(block) for k, block in blocks.items()})


def poly_to_json(poly: Polynomial) -> List[Dict[str, object]]:
    """Serialize to a list of {exp, num, den} records in canonical term order;
    every coefficient is an integer, so den is always "1"."""
    return [{"exp": list(exp), "num": str(coeff), "den": "1"} for exp, coeff in poly.sorted_terms()]
