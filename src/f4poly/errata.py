"""The paper as printed: its operator tables and formulas, transcribed and
checked against the construction.

``validate_table`` compares the transcribed operator tables with the oracle
operators cell by cell, and ``formula_errata`` the printed formulas with the
objects ``representation`` builds; every difference is reported, not patched.
zeta(1)'s printed expansion and the Laplacian's paired block, which the
construction takes as given, are defined in ``representation`` and referred
to here.  The construction is called through ``representation``'s module
attributes, as ``checks`` does, so a wrapped or patched attribute sees every
call; ``representation`` never imports this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import poly, representation
from .algebra import F4Root
from .poly import Derivation, Polynomial

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


def transcribed_operator(label: representation.OperatorLabel) -> Derivation:
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
    for label in representation.operator_labels():
        transcribed, oracle = (
            {(i, j): c for j, entries in op.columns for i, c in entries}
            for op in (transcribed_operator(label), representation.oracle_operator(label))
        )
        name = representation.label_string(label)
        for i, j in sorted(transcribed.keys() | oracle.keys()):
            a, b = transcribed.get((i, j), 0), oracle.get((i, j), 0)
            if a != b:
                records.append(TableErratum(name, i + 1, j + 1, str(a), str(b)))
    return tuple(records)


# --------------------------------------------------------------------------
# Printed formulas.
# --------------------------------------------------------------------------


# Printed quadratic expansions, as (coefficient, variable-index pair) terms;
# the first is the seed the construction reads.
_PRINTED_ZETA: Dict[int, Tuple[Tuple[int, Tuple[int, int]], ...]] = {
    1: representation.ZETA1_TERMS,
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


def zeta_printed(r: int) -> Polynomial:
    """Printed expansion of the r-th quadratic copy (r in 1..14)."""
    if r not in _PRINTED_ZETA:
        raise ValueError(f"printed expansion exists only for 1..14, got {r}")
    return poly.from_pairs(_PRINTED_ZETA[r])


def theta_printed() -> Polynomial:
    """Printed expansion of the cubic singular vector."""
    return poly.from_pairs(
        (
            (-1, (1, 2, 13)), (1, (1, 1, 15)), (-1, (1, 3, 11)), (1, (1, 4, 9)), (-1, (1, 6, 7)),
            (1, (2, 2, 12)), (1, (2, 3, 10)), (-1, (2, 4, 8)), (1, (2, 5, 6)),
        )
    )


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


def laplacian_printed() -> Tuple[Tuple[int, int, int], ...]:
    """Printed form of the second-order operator (zero-weight block differs)."""
    return representation.LAPLACIAN_PAIRED + ((13, 13, -1), (13, 14, -1), (14, 14, -1))


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
        representation.zeta(1),
        pairs(((-2, (1, 13)), (3, (2, 12)), (3, (3, 10)), (-3, (4, 8)), (3, (5, 6)))),
    )
    check(
        "3*x1*x15",
        3 * X(1) * X(15),
        representation.zeta(2),
        pairs(((1, (2, 13)), (-1, (2, 14)), (3, (3, 11)), (-3, (4, 9)), (3, (6, 7)))),
    )
    check(
        "3*x1*x17",
        3 * X(1) * X(17),
        representation.zeta(3),
        pairs(((1, (3, 13)), (2, (3, 14)), (-3, (2, 16)), (-3, (5, 9)), (3, (7, 8)))),
    )
    check(
        "3*x1*x19",
        3 * X(1) * X(19),
        -representation.zeta(4),
        pairs(((3, (5, 11)), (-1, (4, 13)), (-2, (4, 14)), (-3, (2, 18)), (-3, (7, 10)))),
    )
    check(
        "3*x1*x21",
        3 * X(1) * X(21),
        representation.zeta(5),
        pairs(((1, (5, 13)), (-1, (5, 14)), (3, (3, 18)), (3, (4, 16)), (-3, (7, 12)))),
    )
    check(
        "3*x1*x22",
        3 * X(1) * X(22),
        representation.zeta(6),
        pairs(((1, (6, 13)), (2, (6, 14)), (-3, (2, 20)), (-3, (8, 11)), (3, (9, 10)))),
    )
    lhs7 = 3 * X(1) * X(23)
    head7 = representation.zeta(8)
    rest7 = pairs(((1, (8, 13)), (-1, (8, 14)), (-3, (3, 20)), (3, (6, 16)), (-3, (9, 12))))
    check(
        "3*x1*x23", lhs7, head7, rest7,
        "printed right-hand side equals minus the left-hand side (one side sign slip)",
        -lhs7 - (head7 + rest7),
    )
    check(
        "3*x1*x24",
        3 * X(1) * X(24),
        representation.zeta(10),
        pairs(((1, (10, 13)), (-1, (10, 14)), (-3, (4, 20)), (-3, (6, 18)), (-3, (11, 12)))),
    )
    rest9 = Polynomial.zero()
    for r in range(3, 13):
        rest9 = rest9 - 3 * X(r) * X(27 - r)
    rest9 = rest9 + X(13) ** 2 + X(13) * X(14) + X(14) ** 2
    check("3*x2*x25 + 3*x1*x26", 3 * X(2) * X(25) + 3 * X(1) * X(26), representation.eta1(), rest9)

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
        diff = representation.zeta(r) - zeta_printed(r)
        if not diff.is_zero():
            records.append(
                {"label": f"quadratic copy {r}", "diff": poly.poly_to_json(diff)}
            )
    for r in range(15, 27):
        mirrored = poly.dual(representation.zeta(27 - r))
        diff = representation.zeta(r) - mirrored
        if not diff.is_zero():
            records.append(
                {
                    "label": f"quadratic copy {r} mirror rule",
                    "diff": poly.poly_to_json(diff),
                    "fixed_by_sign_flip": representation.zeta(r) == -mirrored,
                }
            )
    theta_diff = representation.theta() - theta_printed()
    if not theta_diff.is_zero():
        records.append({"label": "cubic singular vector", "diff": poly.poly_to_json(theta_diff)})
    eta2_diff = representation.eta2() - eta2_printed()
    if not eta2_diff.is_zero():
        records.append({"label": "cubic invariant expansion", "diff": poly.poly_to_json(eta2_diff)})
    if representation.laplacian() != laplacian_printed():
        printed = {f"({a},{b})": str(c) for a, b, c in laplacian_printed()}
        derived = {f"({a},{b})": str(c) for a, b, c in representation.laplacian()}
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
