"""The 26-variable differential-operator realization: transcribed operator
tables validated against the algebra oracle, quadratic/cubic invariants,
the family of quadratic singular vectors, degree-wise singular-vector
classification, and the invariant Laplacian."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import algebra, linalg, poly
from .algebra import F4Root
from .dimensions import generator_exponents, highest_weight, module_exponents
from .poly import Derivation, Polynomial

# ('h', i) with i in 1..4, or ('e', positive root 4-tuple, +1/-1).
OperatorLabel = Tuple

X = Polynomial.variable

# --------------------------------------------------------------------------
# Transcribed operator tables: triples (r, s, c) meaning c * x_r * d/dx_s,
# one tuple per positive root, in presentation order.
# --------------------------------------------------------------------------

RAISING_TERMS: Dict[F4Root, Tuple[Tuple[int, int, int], ...]] = {
    (1, 0, 0, 0): ((4, 6, 1), (5, 8, 1), (7, 9, 1), (18, 20, -1), (19, 22, -1), (21, 23, -1)),
    (0, 1, 0, 0): ((3, 4, 1), (8, 10, 1), (9, 11, 1), (16, 18, -1), (17, 19, -1), (23, 24, -1)),
    (0, 0, 1, 0): (
        (2, 3, -1), (4, 5, -1), (6, 8, -1), (10, 12, 1), (11, 13, 1), (11, 14, -2),
        (14, 16, -1), (15, 17, -1), (19, 21, 1), (22, 23, 1), (24, 25, 1),
    ),
    (0, 0, 0, 1): (
        (1, 2, -1), (5, 7, -1), (8, 9, -1), (10, 11, -1), (12, 14, 1), (12, 13, -2),
        (13, 15, -1), (16, 17, 1), (18, 19, 1), (20, 22, 1), (25, 26, 1),
    ),
    (1, 1, 0, 0): ((3, 6, -1), (5, 10, 1), (7, 11, 1), (16, 20, -1), (17, 22, -1), (21, 24, 1)),
    (0, 1, 1, 0): (
        (2, 4, 1), (3, 5, 1), (6, 10, 1), (8, 12, 1), (9, 13, 1), (9, 14, -2),
        (14, 18, -1), (15, 19, -1), (17, 21, -1), (22, 24, -1), (23, 25, -1),
    ),
    (0, 0, 1, 1): (
        (1, 3, -1), (4, 7, 1), (6, 9, 1), (10, 13, -1), (10, 14, -1), (11, 15, -1),
        (12, 16, 1), (13, 17, -1), (14, 17, -1), (18, 21, -1), (20, 23, -1), (24, 26, 1),
    ),
    (1, 1, 1, 0): (
        (2, 6, -1), (3, 8, 1), (4, 10, 1), (5, 12, 1), (7, 13, 1), (7, 14, -2),
        (14, 20, -1), (15, 22, -1), (17, 23, -1), (19, 24, -1), (21, 25, 1),
    ),
    (0, 1, 1, 1): (
        (1, 4, 1), (3, 7, 1), (6, 11, -1), (8, 13, -1), (8, 14, -1), (9, 15, -1),
        (12, 18, 1), (13, 19, -1), (14, 19, -1), (16, 21, 1), (20, 24, -1), (23, 26, -1),
    ),
    (0, 1, 2, 0): ((2, 5, -1), (6, 12, 1), (9, 16, 1), (11, 18, -1), (15, 21, -1), (22, 25, 1)),
    (1, 1, 2, 0): ((2, 8, 1), (4, 12, 1), (7, 16, 1), (11, 20, -1), (15, 23, -1), (19, 25, -1)),
    (0, 1, 2, 1): (
        (1, 5, -1), (2, 7, 1), (6, 14, 1), (6, 13, -2), (8, 16, 1), (9, 17, 1),
        (10, 18, -1), (11, 19, -1), (13, 21, -1), (20, 25, -1), (22, 26, 1),
    ),
    (1, 1, 1, 1): (
        (1, 6, -1), (3, 9, -1), (4, 11, -1), (5, 13, -1), (5, 14, -1), (7, 15, -1),
        (12, 20, 1), (13, 22, -1), (14, 22, -1), (16, 23, 1), (18, 24, 1), (21, 26, 1),
    ),
    (1, 2, 2, 0): ((2, 10, -1), (3, 12, 1), (7, 18, 1), (9, 20, -1), (15, 24, -1), (17, 25, 1)),
    (1, 1, 2, 1): (
        (1, 8, 1), (2, 9, -1), (4, 14, 1), (4, 13, -2), (5, 16, 1), (7, 17, 1),
        (10, 20, -1), (11, 22, -1), (13, 23, -1), (18, 25, 1), (19, 26, -1),
    ),
    (0, 1, 2, 2): ((1, 7, 1), (6, 15, 1), (8, 17, 1), (10, 19, -1), (12, 21, -1), (20, 26, -1)),
    (1, 2, 2, 1): (
        (1, 10, -1), (2, 11, 1), (3, 14, 1), (3, 13, -2), (5, 18, 1), (7, 19, 1),
        (8, 20, -1), (9, 22, -1), (13, 24, -1), (16, 25, -1), (17, 26, 1),
    ),
    (1, 1, 2, 2): ((1, 9, -1), (4, 15, 1), (5, 17, 1), (10, 22, -1), (12, 23, -1), (18, 26, 1)),
    (1, 2, 2, 2): ((1, 11, 1), (3, 15, 1), (5, 19, 1), (8, 22, -1), (12, 24, -1), (16, 26, -1)),
    (1, 2, 3, 1): (
        (1, 12, -1), (2, 14, -1), (2, 13, -1), (3, 16, -1), (4, 18, 1), (6, 20, -1),
        (7, 21, 1), (9, 23, -1), (11, 24, 1), (13, 25, -1), (14, 25, -1), (15, 26, 1),
    ),
    (1, 2, 3, 2): (
        (1, 13, 1), (1, 14, -2), (2, 15, 1), (3, 17, -1), (4, 19, 1), (5, 21, 1),
        (6, 22, -1), (8, 23, -1), (10, 24, 1), (12, 25, -1), (14, 26, -1),
    ),
    (1, 2, 4, 2): ((1, 16, 1), (2, 17, -1), (4, 21, 1), (6, 23, -1), (10, 25, 1), (11, 26, -1)),
    (1, 3, 4, 2): ((1, 18, -1), (2, 19, 1), (3, 21, -1), (6, 24, 1), (8, 25, -1), (9, 26, 1)),
    (2, 3, 4, 2): ((1, 20, 1), (2, 22, -1), (3, 23, 1), (4, 24, -1), (5, 25, 1), (7, 26, -1)),
}

# Diagonal operators as (variable, eigenvalue) pairs, one tuple per generator.
CARTAN_TERMS: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    (
        (4, 1), (5, 1), (6, -1), (7, 1), (8, -1), (9, -1),
        (18, 1), (19, 1), (20, -1), (21, 1), (22, -1), (23, -1),
    ),
    (
        (3, 1), (4, -1), (8, 1), (9, 1), (10, -1), (11, -1),
        (16, 1), (17, 1), (18, -1), (19, -1), (23, 1), (24, -1),
    ),
    (
        (2, 1), (3, -1), (4, 1), (5, -1), (6, 1), (8, -1), (10, 1), (11, 2), (12, -1),
        (15, 1), (16, -2), (17, -1), (19, 1), (21, -1), (22, 1), (23, -1), (24, 1), (25, -1),
    ),
    (
        (1, 1), (2, -1), (5, 1), (7, -1), (8, 1), (9, -1), (10, 1), (11, -1), (12, 2),
        (15, -2), (16, 1), (17, -1), (18, 1), (19, -1), (20, 1), (22, -1), (25, 1), (26, -1),
    ),
)

# Printed lowering operators for the four simple roots (an independent
# cross-check of the dual-involution rule for negative-root operators).
LOWERING_SIMPLE_TERMS: Tuple[Tuple[Tuple[int, int, int], ...], ...] = (
    ((6, 4, -1), (8, 5, -1), (9, 7, -1), (20, 18, 1), (22, 19, 1), (23, 21, 1)),
    ((4, 3, -1), (10, 8, -1), (11, 9, -1), (18, 16, 1), (19, 17, 1), (24, 23, 1)),
    (
        (3, 2, 1), (5, 4, 1), (8, 6, 1), (12, 10, -1), (16, 14, 2), (16, 13, -1),
        (14, 11, 1), (17, 15, 1), (21, 19, -1), (23, 22, -1), (25, 24, -1),
    ),
    (
        (2, 1, 1), (7, 5, 1), (9, 8, 1), (11, 10, 1), (15, 13, 2), (15, 14, -1),
        (13, 12, 1), (17, 16, -1), (19, 18, -1), (22, 20, -1), (26, 25, -1),
    ),
)


def operator_labels() -> List[OperatorLabel]:
    """All 52 generator labels: raising, then lowering, then diagonal."""
    labels: List[OperatorLabel] = []
    labels.extend(("e", root, 1) for root in algebra.F4_POSITIVE)
    labels.extend(("e", root, -1) for root in algebra.F4_POSITIVE)
    labels.extend(("h", i) for i in range(1, 5))
    return labels


def label_string(label: OperatorLabel) -> str:
    if label[0] == "h":
        return f"h{label[1]}"
    sign = "+" if label[2] == 1 else "-"
    return "E" + sign + "(" + ",".join(str(k) for k in label[1]) + ")"


def transcribed_operator(label: OperatorLabel) -> Derivation:
    """Operator exactly as printed; negative-root ones via the dual involution.

    Kept as an independent cross-check of ``oracle_operator``: downstream code
    never uses it, and ``validate_table`` reports where the two differ.
    """
    if label[0] == "h":
        i = label[1]
        if not 1 <= i <= 4:
            raise ValueError(f"diagonal operator index must be in 1..4, got {i}")
        return Derivation.from_terms((r, r, c) for r, c in CARTAN_TERMS[i - 1])
    if label[0] == "e":
        root, sign = tuple(label[1]), label[2]
        if root not in RAISING_TERMS:
            raise ValueError(f"{root} is not a positive root of the folded system")
        if sign == 1:
            return Derivation.from_terms(RAISING_TERMS[root])
        if sign == -1:
            return poly.dual_op(Derivation.from_terms(RAISING_TERMS[root]))
    raise ValueError(f"unknown operator label {label!r}")


@lru_cache(maxsize=None)
def oracle_operator(label: OperatorLabel) -> Derivation:
    """Operator derived from the algebra construction via the adjoint action."""
    return Derivation(algebra.ad_on_v(algebra.f4_generator(label)))


# The construction-derived operators are authoritative downstream.
operator = oracle_operator


class TableErratum(NamedTuple):
    """A cell where the printed operator table differs from the oracle; row
    and col are the 1-based variables of its c * x_row * d/dx_col term."""

    label: str
    row: int
    col: int
    transcribed: str
    oracle: str


@lru_cache(maxsize=None)
def validate_table() -> Tuple[TableErratum, ...]:
    """Cells where the transcribed operators differ from the oracle, in
    operator order, then by row and column.

    Kept as an independent cross-check: the printed table is compared cell by
    cell with the operators derived from the construction.  The records are
    cached and shared, and each is an immutable tuple.
    """
    records: List[TableErratum] = []
    for label in operator_labels():
        transcribed, oracle = (
            {(i, j): c for j, entries in op.columns for i, c in entries}
            for op in (transcribed_operator(label), oracle_operator(label))
        )
        name = label_string(label)
        for i, j in sorted(transcribed.keys() | oracle.keys()):
            a, b = transcribed.get((i, j), 0), oracle.get((i, j), 0)
            if a != b:
                records.append(TableErratum(name, i + 1, j + 1, str(a), str(b)))
    return tuple(records)


def simple_raising() -> List[Derivation]:
    return [operator(("e", root, 1)) for root in algebra.F4_SIMPLE]


def root_operators() -> List[Derivation]:
    return [operator(("e", root, sign)) for root in algebra.F4_POSITIVE for sign in (1, -1)]


# --------------------------------------------------------------------------
# Invariants and the quadratic singular family.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eta1() -> Polynomial:
    """The quadratic invariant; cached and shared."""
    total = Polynomial.zero()
    for r in range(1, 13):
        total = total + 3 * X(r) * X(27 - r)
    return total - X(13) ** 2 - X(13) * X(14) - X(14) ** 2


# Printed quadratic expansions, as (coefficient, variable-index pair) terms.
_PRINTED_ZETA: Dict[int, Tuple[Tuple[int, Tuple[int, int]], ...]] = {
    1: ((2, (1, 13)), (1, (1, 14)), (-3, (2, 12)), (-3, (3, 10)), (3, (4, 8)), (-3, (5, 6))),
    2: ((-1, (2, 13)), (1, (2, 14)), (3, (1, 15)), (-3, (3, 11)), (3, (4, 9)), (-3, (6, 7))),
    3: ((-1, (3, 13)), (-2, (3, 14)), (3, (1, 17)), (3, (2, 16)), (3, (5, 9)), (-3, (7, 8))),
    4: ((-1, (4, 13)), (-2, (4, 14)), (-3, (1, 19)), (-3, (2, 18)), (3, (5, 11)), (-3, (7, 10))),
    5: ((-1, (5, 13)), (1, (5, 14)), (3, (1, 21)), (-3, (3, 18)), (-3, (4, 16)), (3, (7, 12))),
    6: ((-1, (6, 13)), (-2, (6, 14)), (3, (1, 22)), (3, (2, 20)), (3, (8, 11)), (-3, (9, 10))),
    7: ((2, (7, 13)), (1, (7, 14)), (3, (2, 21)), (3, (3, 19)), (3, (4, 17)), (-3, (5, 15))),
    8: ((-1, (8, 13)), (1, (8, 14)), (-3, (1, 23)), (3, (3, 20)), (-3, (6, 16)), (3, (9, 12))),
    9: ((2, (9, 13)), (1, (9, 14)), (-3, (2, 23)), (-3, (3, 22)), (3, (6, 17)), (-3, (8, 15))),
    10: ((-1, (10, 13)), (1, (10, 14)), (3, (1, 24)), (3, (4, 20)), (3, (6, 18)), (3, (11, 12))),
    11: ((2, (11, 13)), (1, (11, 14)), (3, (2, 24)), (-3, (4, 22)), (-3, (6, 19)), (-3, (10, 15))),
    12: ((-1, (12, 13)), (-2, (12, 14)), (3, (1, 25)), (-3, (5, 20)), (-3, (8, 18)), (-3, (10, 16))),
    13: (
        (-1, (13, 13)), (-2, (13, 14)), (-3, (1, 26)), (3, (2, 25)), (3, (5, 22)),
        (-3, (7, 20)), (3, (8, 19)), (-3, (9, 18)), (3, (10, 17)), (-3, (11, 16)),
    ),
    14: (
        (2, (13, 14)), (1, (14, 14)), (-3, (2, 25)), (3, (3, 24)), (3, (4, 23)),
        (-3, (5, 22)), (3, (6, 21)), (-3, (8, 19)), (-3, (10, 17)), (3, (12, 15)),
    ),
}

# Lowering recursion: index r -> (simple generator index, source index, scalar).
_ZETA_RULES: Dict[int, Tuple[int, int, int]] = {
    2: (4, 1, 1),
    3: (3, 2, 1),
    4: (2, 3, -1),
    5: (3, 4, 1),
    6: (1, 4, -1),
    7: (4, 5, 1),
    8: (1, 5, -1),
    9: (1, 7, -1),
    10: (2, 8, -1),
    11: (2, 9, -1),
    12: (3, 10, -1),
    13: (4, 12, 1),
    14: (3, 11, 1),
}


def zeta_printed(r: int) -> Polynomial:
    """Printed expansion of the r-th quadratic copy (r in 1..14)."""
    if r not in _PRINTED_ZETA:
        raise ValueError(f"printed expansion exists only for 1..14, got {r}")
    return poly.from_pairs(_PRINTED_ZETA[r])


@lru_cache(maxsize=None)
def zeta(r: int) -> Polynomial:
    """The r-th member (1..26) of the quadratic copy of the module basis.

    The polynomial is cached and shared.
    """
    if not 1 <= r <= 26:
        raise ValueError(f"index must be in 1..26, got {r}")
    if r == 1:
        f = zeta_printed(1)
    elif r <= 14:
        gen_index, source, scalar = _ZETA_RULES[r]
        lower = operator(("e", algebra.F4_SIMPLE[gen_index - 1], -1))
        f = scalar * lower(zeta(source))
    else:
        # The mirror rule needs a global minus sign on the lower half: only
        # then does x_i -> zeta(i) intertwine every operator (the bare mirror
        # breaks the copy at indices 13..16 and destroys invariance of the
        # cubic form).
        f = -poly.dual(zeta(27 - r))
    return f


@lru_cache(maxsize=None)
def theta() -> Polynomial:
    """The cubic singular vector (x1*zeta(2) - x2*zeta(1)) / 3; cached and shared."""
    combined = X(1) * zeta(2) - X(2) * zeta(1)
    out = {}
    for exp, coeff in combined.terms.items():
        out[exp], remainder = divmod(coeff, 3)
        if remainder:
            raise ArithmeticError("cubic singular vector is not integral")
    return Polynomial._raw(out)


def theta_printed() -> Polynomial:
    """Printed expansion of the cubic singular vector."""
    return poly.from_pairs(
        (
            (-1, (1, 2, 13)), (1, (1, 1, 15)), (-1, (1, 3, 11)), (1, (1, 4, 9)), (-1, (1, 6, 7)),
            (1, (2, 2, 12)), (1, (2, 3, 10)), (-1, (2, 4, 8)), (1, (2, 5, 6)),
        )
    )


@lru_cache(maxsize=None)
def eta2() -> Polynomial:
    """The cubic invariant from the invariant pairing; cached and shared."""
    total = Polynomial.zero()
    for r in range(1, 13):
        total = total + 3 * (zeta(r) * X(27 - r) + X(r) * zeta(27 - r))
    total = total - 2 * X(13) * zeta(13) - X(13) * zeta(14) - X(14) * zeta(13) - 2 * X(14) * zeta(14)
    return total


def _one_plus_dual(f: Polynomial) -> Polynomial:
    return f + poly.dual(f)


def _eta2_bracket_13() -> Polynomial:
    return poly.from_pairs(
        (
            (1, (3, 24)), (1, (4, 23)), (1, (5, 22)), (1, (6, 21)), (-2, (7, 20)),
            (1, (8, 19)), (-2, (9, 18)), (1, (10, 17)), (-2, (11, 16)), (1, (12, 15)),
        )
    )


def _eta2_bracket_14() -> Polynomial:
    return poly.from_pairs(
        (
            (2, (3, 24)), (2, (4, 23)), (-1, (5, 22)), (2, (6, 21)), (-1, (7, 20)),
            (-1, (8, 19)), (-1, (9, 18)), (-1, (10, 17)), (-1, (11, 16)), (2, (12, 15)),
        )
    )


# Nine printed cubic terms that both the printed expansion of the cubic
# invariant and the long elimination of x25/x26 carry.
_ETA2_PRINTED_SHARED: Tuple[Tuple[int, Tuple[int, int, int]], ...] = (
    (1, (7, 8, 24)), (-1, (5, 9, 24)),
    (1, (10, 4, 23)), (1, (10, 9, 21)),
    (-1, (11, 5, 23)), (-1, (11, 8, 21)), (-1, (11, 12, 17)),
    (-1, (12, 7, 22)), (-1, (12, 9, 19)),
)


def eta2_printed() -> Polynomial:
    """Printed expansion of the cubic invariant."""
    head = poly.from_pairs(
        (
            (1, (2, 12, 26)), (1, (3, 10, 26)), (-1, (4, 8, 26)), (1, (5, 6, 26)),
            (1, (3, 11, 25)), (-1, (4, 9, 25)), (1, (6, 7, 25)),
        )
        + _ETA2_PRINTED_SHARED
    )
    cubes = poly.from_pairs(
        ((2, (13, 13, 13)), (3, (13, 13, 14)), (-3, (13, 14, 14)), (-2, (14, 14, 14)))
    )
    tail = poly.from_pairs(((6, (1, 13, 26)), (3, (1, 14, 26)), (3, (2, 13, 25)), (6, (2, 14, 25))))
    return (
        9 * _one_plus_dual(head)
        + cubes
        + tail
        - 3 * X(13) * _eta2_bracket_13()
        - 3 * X(14) * _eta2_bracket_14()
    )


def module_copy_equivariance_failures() -> List[Tuple[str, int]]:
    """(operator, index) pairs where the quadratic copy fails to intertwine."""
    failures: List[Tuple[str, int]] = []
    zetas = [zeta(r) for r in range(1, 27)]
    for root in algebra.F4_SIMPLE:
        for sign in (1, -1):
            label = ("e", root, sign)
            op = operator(label)
            columns = dict(op.columns)
            for s in range(26):
                expected = Polynomial.zero()
                for r, c in columns.get(s, ()):
                    expected = expected + c * zetas[r]
                if op(zetas[s]) != expected:
                    failures.append((label_string(label), s + 1))
    return failures


# --------------------------------------------------------------------------
# Elimination identities.
# --------------------------------------------------------------------------


class IdentityCheck(NamedTuple):
    name: str
    holds: bool
    correction: str
    holds_with_correction: bool
    diff: Polynomial


def verify_elimination_identities() -> List[IdentityCheck]:
    """Check each printed elimination identity lhs = head + rest exactly, with
    the head constructed and the rest as printed.

    Two of the printed identities carry machine-confirmed sign slips; their
    checks also describe the correction and report whether the corrected
    variant holds (``corrected`` is its lhs - (head + rest)).  Each check
    keeps the exact verbatim difference.
    """
    pairs = poly.from_pairs
    results: List[IdentityCheck] = []

    def check(name: str, lhs: Polynomial, head: Polynomial, rest: Polynomial,
              correction: str = "", corrected: Optional[Polynomial] = None) -> None:
        diff = lhs - (head + rest)
        fixed = corrected is not None and corrected.is_zero()
        results.append(IdentityCheck(name, diff.is_zero(), correction, fixed, diff))

    check(
        "x1*x14",
        X(1) * X(14),
        zeta(1),
        pairs(((-2, (1, 13)), (3, (2, 12)), (3, (3, 10)), (-3, (4, 8)), (3, (5, 6)))),
    )
    check(
        "3*x1*x15",
        3 * X(1) * X(15),
        zeta(2),
        pairs(((1, (2, 13)), (-1, (2, 14)), (3, (3, 11)), (-3, (4, 9)), (3, (6, 7)))),
    )
    check(
        "3*x1*x17",
        3 * X(1) * X(17),
        zeta(3),
        pairs(((1, (3, 13)), (2, (3, 14)), (-3, (2, 16)), (-3, (5, 9)), (3, (7, 8)))),
    )
    check(
        "3*x1*x19",
        3 * X(1) * X(19),
        -zeta(4),
        pairs(((3, (5, 11)), (-1, (4, 13)), (-2, (4, 14)), (-3, (2, 18)), (-3, (7, 10)))),
    )
    check(
        "3*x1*x21",
        3 * X(1) * X(21),
        zeta(5),
        pairs(((1, (5, 13)), (-1, (5, 14)), (3, (3, 18)), (3, (4, 16)), (-3, (7, 12)))),
    )
    check(
        "3*x1*x22",
        3 * X(1) * X(22),
        zeta(6),
        pairs(((1, (6, 13)), (2, (6, 14)), (-3, (2, 20)), (-3, (8, 11)), (3, (9, 10)))),
    )
    lhs7 = 3 * X(1) * X(23)
    head7 = zeta(8)
    rest7 = pairs(((1, (8, 13)), (-1, (8, 14)), (-3, (3, 20)), (3, (6, 16)), (-3, (9, 12))))
    check(
        "3*x1*x23", lhs7, head7, rest7,
        "printed right-hand side equals minus the left-hand side (one side sign slip)",
        -lhs7 - (head7 + rest7),
    )
    check(
        "3*x1*x24",
        3 * X(1) * X(24),
        zeta(10),
        pairs(((1, (10, 13)), (-1, (10, 14)), (-3, (4, 20)), (-3, (6, 18)), (-3, (11, 12)))),
    )
    rest9 = Polynomial.zero()
    for r in range(3, 13):
        rest9 = rest9 - 3 * X(r) * X(27 - r)
    rest9 = rest9 + X(13) ** 2 + X(13) * X(14) + X(14) ** 2
    check("3*x2*x25 + 3*x1*x26", 3 * X(2) * X(25) + 3 * X(1) * X(26), eta1(), rest9)

    lhs10 = (
        3 * (3 * pairs(((1, (1, 15)), (1, (3, 11)), (-1, (4, 9)), (1, (6, 7)))) + X(2) * (X(13) + 2 * X(14))) * X(25)
        + 3 * (3 * pairs(((1, (2, 12)), (1, (3, 10)), (-1, (4, 8)), (1, (5, 6)))) + X(1) * (2 * X(13) + X(14))) * X(26)
    )
    inner10 = pairs(_ETA2_PRINTED_SHARED)
    rest10 = (
        -9 * X(1) * pairs(((1, (17, 24)), (-1, (19, 23)), (1, (21, 22))))
        - 9 * X(2) * pairs(((1, (16, 24)), (-1, (18, 23)), (1, (20, 21))))
        - 3 * X(13) ** 2 * X(14)
        - 9 * _one_plus_dual(inner10)
        - 2 * X(13) ** 3
        + 3 * X(13) * X(14) ** 2
        + 2 * X(14) ** 3
        + 3 * X(13) * _eta2_bracket_13()
        - 3 * X(14) * _eta2_bracket_14()
    )
    # The printed identity was derived by substituting the printed expansion
    # of the cubic form (whose own deviation from the invariant is logged
    # separately), so that expansion is the head it must be read against.
    head10 = eta2_printed()
    check(
        "long elimination of x25/x26", lhs10, head10, rest10,
        "sign of the 3*x14*[...] bracket term (one printed sign slip)",
        lhs10 - (head10 + rest10 + 6 * X(14) * _eta2_bracket_14()),
    )
    return results


def formula_errata() -> List[Dict[str, object]]:
    """Machine-verified differences between printed formulas and construction."""
    records: List[Dict[str, object]] = []
    for r in range(1, 15):
        diff = zeta(r) - zeta_printed(r)
        if not diff.is_zero():
            records.append(
                {"label": f"quadratic copy {r}", "diff": poly.poly_to_json(diff)}
            )
    for r in range(15, 27):
        mirrored = poly.dual(zeta(27 - r))
        diff = zeta(r) - mirrored
        if not diff.is_zero():
            records.append(
                {
                    "label": f"quadratic copy {r} mirror rule",
                    "diff": poly.poly_to_json(diff),
                    "fixed_by_sign_flip": zeta(r) == -mirrored,
                }
            )
    theta_diff = theta() - theta_printed()
    if not theta_diff.is_zero():
        records.append({"label": "cubic singular vector", "diff": poly.poly_to_json(theta_diff)})
    eta2_diff = eta2() - eta2_printed()
    if not eta2_diff.is_zero():
        records.append({"label": "cubic invariant expansion", "diff": poly.poly_to_json(eta2_diff)})
    if laplacian() != laplacian_printed():
        printed = {f"({a},{b})": str(c) for a, b, c in laplacian_printed()}
        derived = {f"({a},{b})": str(c) for a, b, c in laplacian()}
        records.append(
            {
                "label": "invariant second-order operator",
                "printed": {k: v for k, v in printed.items() if derived.get(k) != v},
                "derived": {k: v for k, v in derived.items() if printed.get(k) != v},
            }
        )
    for check in verify_elimination_identities():
        if not check.holds:
            records.append(
                {
                    "label": f"elimination identity for {check.name}",
                    "diff": poly.poly_to_json(check.diff),
                    "correction": check.correction,
                    "holds_with_correction": check.holds_with_correction,
                }
            )
    return records


# --------------------------------------------------------------------------
# Singular vectors by degree.
# --------------------------------------------------------------------------


class SingularEntry(NamedTuple):
    weight: Tuple[int, int, int, int]
    dim: int
    basis: Tuple[Polynomial, ...]


class SingularReport(NamedTuple):
    degree: int
    predicted: int
    entries: Tuple[SingularEntry, ...]

    @property
    def total(self) -> int:
        return sum(entry.dim for entry in self.entries)


def predicted_weight(exponents: Sequence[int]) -> Tuple[int, int, int, int]:
    return (0, 0, *highest_weight(exponents))


def generator_product(exponents: Sequence[int]) -> Polynomial:
    """x1^m1 * zeta(1)^m2 * theta()^m3 * eta1()^m4 * eta2()^m5."""
    m1, m2, m3, m4, m5 = exponents
    return X(1) ** m1 * zeta(1) ** m2 * theta() ** m3 * eta1() ** m4 * eta2() ** m5


# A monomial x^e as (code, support): the code is the sum of e[v] * base**v, the
# support the pairs (v, e[v]) with e[v] > 0, v increasing.
Coded = Tuple[int, Tuple[Tuple[int, int], ...]]


def _coded(monomials: Sequence[poly.Exponent], base: int) -> List[Coded]:
    powers = [base**v for v in range(poly.NVARS)]
    # Every support shares these pair tuples: the last weight block of degree 6
    # alone would otherwise build 17,676 of them, about 1 MB.
    pairs = [[(v, k) for k in range(base)] for v in range(poly.NVARS)]
    coded = []
    for exp in monomials:
        support = tuple(pairs[v][k] for v, k in enumerate(exp) if k)
        coded.append((sum(k * powers[v] for v, k in support), support))
    return coded


# Per variable j, the (shift, c) pairs of an operator's cells in column j.
ShiftTable = Tuple[Tuple[Tuple[int, int], ...], ...]


def _shift_table(op: Derivation, base: int) -> ShiftTable:
    """op's cells by column, for monomials coded as the sum of e[v] * base**v:
    entry j holds (base**i - base**j, c) for each cell (i, j, c), i increasing.
    The cell sends x^e to c * e[j] times the monomial whose code is the code
    of x^e plus that shift."""
    table: List[Tuple[Tuple[int, int], ...]] = [()] * poly.NVARS
    for j, entries in op.columns:
        table[j] = tuple((base**i - base**j, c) for i, c in entries)
    return tuple(table)


def _block_rows(coded: Sequence[Coded], tables: Sequence[ShiftTable]) -> List[Dict[int, int]]:
    """The rows of one weight block: row (operator index, target code) holds, at
    column j, the coefficient of the target in the image of monomial j.  Rows
    appear in the order Derivation.apply writes the images, monomial by
    monomial, then operator by operator.  A raising operator has no diagonal
    cell (it shifts weight by a root), so distinct cells give distinct targets."""
    rows: Dict[Tuple[int, int], Dict[int, int]] = {}
    for j, (code, support) in enumerate(coded):
        for oi, table in enumerate(tables):
            for v, k in support:
                for shift, c in table[v]:
                    rows.setdefault((oi, code + shift), {})[j] = c * k
    return list(rows.values())


def singular_vectors(degree: int) -> SingularReport:
    """Joint kernel of the simple raising operators, split by dominant weight.

    Simple operators suffice because every positive-root operator is an
    iterated commutator of them.  Kept as an independent cross-check of that
    argument: each kernel vector is applied to the 20 other raising operators,
    which the elimination never saw.

    Both steps act on monomial codes: x^e is coded as the sum of
    e[v] * (degree+1)**v.  Every entry of a degree-`degree` exponent is at
    most `degree`, so these are base-(degree+1) digits and distinct monomials
    get distinct codes; an operator cell (i, j, c) sends the code n of x^e to
    n + (degree+1)**i - (degree+1)**j with coefficient c * e[j] (the shift
    tables of _shift_table).  Only the returned basis is built as
    polynomials.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    base = degree + 1
    simples = [_shift_table(op, base) for op in simple_raising()]
    raisers = [
        _shift_table(operator(("e", root, 1)), base)
        for root in algebra.F4_POSITIVE
        if root not in algebra.F4_SIMPLE
    ]
    entries: List[SingularEntry] = []
    for w, monomials in poly.degree_weight_table(degree).items():
        coded = _coded(monomials, base)
        kernel = linalg.nullspace(_block_rows(coded, simples), len(monomials))
        for vec in kernel:
            terms = [(coded[j], a) for j, a in enumerate(vec) if a]
            for table in raisers:
                image: Dict[int, int] = {}
                for (code, support), a in terms:
                    for v, k in support:
                        for shift, c in table[v]:
                            target = code + shift
                            image[target] = image.get(target, 0) + a * c * k
                if any(image.values()):
                    raise ArithmeticError(
                        "simple-operator kernel vector not annihilated by all raising operators"
                    )
        if kernel:
            # The monomials come from the table and nullspace returns ints.
            basis = tuple(
                Polynomial._raw({monomials[j]: c for j, c in enumerate(vec) if c}) for vec in kernel
            )
            entries.append(SingularEntry(w, len(basis), basis))
    return SingularReport(degree, len(generator_exponents(degree)), tuple(entries))


def _poly_rows(polys: Sequence[Polynomial]) -> List[Dict[int, int]]:
    """Coordinate rows of polynomials over their union of monomials."""
    cols: Dict[Tuple[int, ...], int] = {}
    for f in polys:
        for exp in sorted(f.terms, reverse=True):
            if exp not in cols:
                cols[exp] = len(cols)
    return [{cols[exp]: c for exp, c in f.terms.items()} for f in polys]


def polys_rank(polys: Sequence[Polynomial]) -> int:
    return linalg.rank(_poly_rows(polys))


def products_span_kernels(report: SingularReport) -> bool:
    """Do the generator products of this degree span each kernel entry exactly?"""
    by_weight: Dict[Tuple[int, int, int, int], List[Polynomial]] = {}
    for exps in generator_exponents(report.degree):
        by_weight.setdefault(predicted_weight(exps), []).append(generator_product(exps))
    weights_seen = {entry.weight for entry in report.entries}
    if set(by_weight) != weights_seen:
        return False
    for entry in report.entries:
        products = by_weight[entry.weight]
        if len(products) != entry.dim:
            return False
        if polys_rank(products) != entry.dim:
            return False
        if polys_rank(list(products) + list(entry.basis)) != entry.dim:
            return False
    return True


# --------------------------------------------------------------------------
# The invariant Laplacian and harmonic lower bounds.
# --------------------------------------------------------------------------


# The twelve mirror-pair terms, 3*d_r*d_(27-r), that the Laplacian and its
# printed form share.
_LAPLACIAN_PAIRED: Tuple[Tuple[int, int, int], ...] = tuple((r, 27 - r, 3) for r in range(1, 13))


def laplacian() -> Tuple[Tuple[int, int, int], ...]:
    """Second-order invariant operator as (var, var, coefficient) triples.

    The symbol is dual to the quadratic invariant: the paired block inverts
    to mirror-pair products, and the zero-weight block is the inverse of
    [[-1,-1/2],[-1/2,-1]], giving coefficients (-3, +3, -3) at this
    normalization.  The space of quadratic symbols commuting with all 52
    operators is one-dimensional, pinning this operator up to scale.
    """
    return _LAPLACIAN_PAIRED + ((13, 13, -3), (13, 14, 3), (14, 14, -3))


def laplacian_printed() -> Tuple[Tuple[int, int, int], ...]:
    """Printed form of the second-order operator (zero-weight block differs)."""
    return _LAPLACIAN_PAIRED + ((13, 13, -1), (13, 14, -1), (14, 14, -1))


# The Laplacian's terms as 0-based cells (a, b, c), meaning c * d_a * d_b.
_LAPLACIAN_CELLS: Tuple[Tuple[int, int, int], ...] = tuple(
    (a - 1, b - 1, c) for a, b, c in laplacian()
)


def apply_laplacian(f: Polynomial) -> Polynomial:
    """Act on each monomial x^e term by term: a cross term c*d_a*d_b (a != b)
    maps it to c*e[a]*e[b]*x^(e - e_a - e_b), a square term c*d_a^2 to
    c*e[a]*(e[a]-1)*x^(e - 2*e_a); terms that cancel are dropped."""
    out: Dict[poly.Exponent, int] = {}
    for exp, coeff in f._terms.items():
        for a, b, c in _LAPLACIAN_CELLS:
            ka = exp[a]
            kb = exp[b] - (a == b)
            if ka <= 0 or kb <= 0:
                continue
            lowered = list(exp)
            lowered[a] -= 1
            lowered[b] -= 1
            key = tuple(lowered)
            new = out.get(key, 0) + c * ka * kb * coeff
            if new:
                out[key] = new
            elif key in out:
                del out[key]
    return Polynomial._raw(out)


def laplacian_commutator_symbol(op: Derivation) -> Dict[Tuple[int, int], int]:
    """Exact symbol of [Laplacian, op]; {} iff they commute.

    A cell k*x_r*d_s of op and a Laplacian term c*d_a*d_b contribute
    c*k*d_b*d_s when a == r and c*k*d_a*d_s when b == r, collected on
    unordered derivative pairs.
    """
    acc: Dict[Tuple[int, int], int] = {}

    def add(u: int, v: int, c: int) -> None:
        key = (u, v) if u <= v else (v, u)
        new = acc.get(key, 0) + c
        if new:
            acc[key] = new
        elif key in acc:
            del acc[key]

    for j, entries in op.columns:
        for i, coeff in entries:
            for a, b, c in _LAPLACIAN_CELLS:
                if a == i:
                    add(b + 1, j + 1, c * coeff)
                if b == i:
                    add(a + 1, j + 1, c * coeff)
    return acc


def laplacian_commutes_on_degree(degree: int) -> bool:
    """Basis check: [Laplacian, op] kills every monomial of this degree.

    Kept as the basis-level cross-check of ``laplacian_commutator_symbol``,
    which decides the same question from the operators' symbols.  The
    Laplacian is applied once per basis monomial and tabulated; op(x^e) is a
    combination of basis monomials, so its Laplacian is that combination of
    theirs.  Each operator is still applied twice per monomial, to x^e and to
    its Laplacian, so op(Laplacian(x^e)) is found directly, not from the table.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    monomials = [Polynomial._raw({e: 1}) for e in poly.monomials_of_degree(degree)]
    laps = ((e, apply_laplacian(m)) for m in monomials for e in m._terms)
    lap_of = {e: lap for e, lap in laps if lap}
    zero = Polynomial.zero()
    for label in operator_labels():
        op = operator(label)
        for mono in monomials:
            (exp,) = mono._terms
            diff = dict(op(lap_of.get(exp, zero))._terms)
            for term, c in op(mono)._terms.items():
                for key, d in lap_of.get(term, zero)._terms.items():
                    diff[key] = diff.get(key, 0) - c * d
            if any(diff.values()):
                return False
    return True


def harmonic_witnesses(degree: int) -> Iterator[Tuple[Tuple[int, ...], Polynomial]]:
    """Products predicted harmonic at this degree, as (exponents, polynomial):
    x1^m1 * zeta(1)^m2 * theta()^m3 with m2 <= 1, each built when reached."""
    if degree < 2:
        raise ValueError("witness construction needs degree >= 2")
    return (
        (exps, generator_product(exps))
        for exps in ((*m, 0, 0) for m in module_exponents(degree) if m[1] <= 1)
    )


def harmonic_summand_bound(degree: int) -> Tuple[int, int]:
    """(lower bound on harmonic summands, count of verified harmonic witnesses)."""
    if degree < 2:
        raise ValueError("the bound is stated for degree >= 2")
    bound = degree // 3 + (degree - 2) // 3 + 2
    witnesses = 0
    weights_seen = set()
    for exps, product in harmonic_witnesses(degree):
        if apply_laplacian(product).is_zero():
            witnesses += 1
            weights_seen.add(predicted_weight(exps))
    if len(weights_seen) != witnesses:
        raise ArithmeticError("harmonic witnesses must have pairwise distinct weights")
    return bound, witnesses
