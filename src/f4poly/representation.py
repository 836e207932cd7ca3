"""The 26-variable realization, built from the algebra construction: the 52
oracle operators, the invariants eta1 and eta2, the quadratic copy zeta and
the cubic singular vector theta, the singular vectors of each degree, and the
invariant Laplacian with its harmonic witnesses.

Of the paper as printed, the construction takes two pieces as given, defined
here: zeta(1)'s expansion (``ZETA1_TERMS``) and the Laplacian's paired block
(``LAPLACIAN_PAIRED``).  zeta(2..26) close from zeta(1) under the simple
lowering operators, and eta2 is eta1's polar form at (zeta(x), x).  The
printed tables and formulas checked against the construction are kept apart,
in a module that imports this one; nothing here reads them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import algebra, linalg, poly
from .dimensions import generator_exponents, highest_weight, module_exponents
from .poly import Derivation, Polynomial

# ('h', i) with i in 1..4, or ('e', positive root 4-tuple, +1/-1).
OperatorLabel = Tuple

X = Polynomial.variable


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


@lru_cache(maxsize=None)
def oracle_operator(label: OperatorLabel) -> Derivation:
    """Operator derived from the algebra construction via the adjoint action."""
    return Derivation(algebra.ad_on_v(algebra.f4_generator(label)))


# The construction-derived operators are authoritative downstream.
operator = oracle_operator


def simple_raising() -> List[Derivation]:
    return [operator(("e", root, 1)) for root in algebra.F4_SIMPLE]


def root_operators() -> List[Derivation]:
    return [operator(("e", root, sign)) for root in algebra.F4_POSITIVE for sign in (1, -1)]


# --------------------------------------------------------------------------
# Invariants and the quadratic singular family.
# --------------------------------------------------------------------------


# eta1 as (i, j, c) terms, c * x_i * x_j: the invariant pairing, which eta2
# polarizes against the quadratic copy.
_ETA1_TERMS = (*((r, 27 - r, 3) for r in range(1, 13)), (13, 13, -1), (13, 14, -1), (14, 14, -1))


@lru_cache(maxsize=None)
def eta1() -> Polynomial:
    """The quadratic invariant; cached and shared."""
    return poly.from_pairs((c, (i, j)) for i, j, c in _ETA1_TERMS)


# zeta(1) as printed, as (coefficient, variable-index pair) terms: the seed of
# the quadratic copy, and the one printed formula the construction takes as given.
ZETA1_TERMS: Tuple[Tuple[int, Tuple[int, int]], ...] = (
    (2, (1, 13)), (1, (1, 14)), (-3, (2, 12)), (-3, (3, 10)), (3, (4, 8)), (-3, (5, 6)),
)


@lru_cache(maxsize=None)
def _quadratic_copy() -> Tuple[Polynomial, ...]:
    """zeta(1..26), closed from zeta(1) under the simple lowering operators:
    x_i -> zeta(i) intertwines every operator (``verify`` checks the eight
    simple ones), so where column s of one holds exactly one cell (r, k) with
    k = +-1, zeta(r) = k * op(zeta(s))."""
    lowering = [operator(("e", root, -1)) for root in algebra.F4_SIMPLE]
    columns = [dict(op.columns) for op in lowering]
    copy = {0: poly.from_pairs(ZETA1_TERMS)}
    reached = [0]
    for s in reached:
        for op, column in zip(lowering, columns):
            cells = column.get(s, ())
            if len(cells) == 1 and cells[0][0] not in copy and cells[0][1] in (1, -1):
                ((r, k),) = cells
                copy[r] = k * op(copy[s])
                reached.append(r)
    if len(copy) != poly.NVARS:
        raise ArithmeticError(f"the lowering operators reach {len(copy)} of {poly.NVARS} members")
    return tuple(copy[r] for r in range(poly.NVARS))


def zeta(r: int) -> Polynomial:
    """The r-th member (1..26, exactly an int) of the quadratic copy of the
    module basis; cached and shared."""
    return _quadratic_copy()[poly._as_variable(r) - 1]


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


@lru_cache(maxsize=None)
def eta2() -> Polynomial:
    """The cubic invariant, eta1's polar form at (zeta(x), x); cached and shared."""
    total = Polynomial.zero()
    for i, j, c in _ETA1_TERMS:
        total = total + c * (zeta(i) * X(j) + X(i) * zeta(j))
    return total


def module_copy_equivariance_failures() -> List[Tuple[str, int]]:
    """(operator, index) pairs where the quadratic copy fails to intertwine."""
    failures: List[Tuple[str, int]] = []
    zetas = _quadratic_copy()
    for label in (("e", root, sign) for root in algebra.F4_SIMPLE for sign in (1, -1)):
        op = operator(label)
        columns = dict(op.columns)
        for s in range(26):
            expected = sum((c * zetas[r] for r, c in columns.get(s, ())), Polynomial.zero())
            if op(zetas[s]) != expected:
                failures.append((label_string(label), s + 1))
    return failures


# --------------------------------------------------------------------------
# Singular vectors by degree.
# --------------------------------------------------------------------------


class SingularEntry(NamedTuple):
    weight: Tuple[int, int, int, int]
    dim: int
    basis: Tuple[Polynomial, ...]


class SingularReport(NamedTuple):
    """One degree's singular vectors; entries come in degree_weight_table's descending order."""

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


# The twelve mirror-pair terms, 3*d_r*d_(27-r), of the Laplacian, which its
# printed form shares.
LAPLACIAN_PAIRED: Tuple[Tuple[int, int, int], ...] = tuple((r, 27 - r, 3) for r in range(1, 13))


def laplacian() -> Tuple[Tuple[int, int, int], ...]:
    """Second-order invariant operator as (var, var, coefficient) triples.

    The symbol is dual to the quadratic invariant: the paired block inverts
    to mirror-pair products, and the zero-weight block is the inverse of
    [[-1,-1/2],[-1/2,-1]], giving coefficients (-3, +3, -3) at this
    normalization.  The space of quadratic symbols commuting with all 52
    operators is one-dimensional, pinning this operator up to scale.
    """
    return LAPLACIAN_PAIRED + ((13, 13, -3), (13, 14, 3), (14, 14, -3))


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
