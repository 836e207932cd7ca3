"""Helpers shared by the tests: the plain partial derivative, against which
``Derivation.apply`` and ``representation.apply_laplacian`` are checked, the
row assembly by ``Derivation.apply`` that ``representation.singular_vectors``
is checked against, the plain monomial enumeration and the per-monomial
weight walk that ``poly.monomials_of_degree`` and
``poly.degree_weight_table`` are checked against, the plain box scan and the
triple-by-triple Jacobi sweep that ``lattice.all_roots`` and
``algebra.jacobi_failures`` are checked against, the dense operator matrix
that products of operators are checked with, small functions only the tests
use, and pools of small integers for hypothesis to sample."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, compress, product, tee

from f4poly import algebra, dimensions, lattice, linalg, poly, representation
from f4poly.poly import NVARS, Polynomial


def partial(f, index):
    """Partial derivative of f with respect to variable `index` (1-based)."""
    j = index - 1
    out = {}
    for exp, coeff in f.terms.items():
        k = exp[j]
        if k:
            out[exp[:j] + (k - 1,) + exp[j + 1 :]] = k * coeff
    return Polynomial(out)


def plain_monomials(d):
    """The exponent tuples of degree d, one per index multiset of
    combinations_with_replacement(range(NVARS), d), in that order."""
    for combo in combinations_with_replacement(range(NVARS), d):
        exp = [0] * NVARS
        for j in combo:
            exp[j] += 1
        yield tuple(exp)


def reference_weight_table(d):
    """The dominant weight blocks of degree d as ``poly.degree_weight_table``
    built them before it decided dominance per head: one walk of
    combinations_with_replacement over the packed variable weights, teed,
    each monomial's key probed in the dominant set and the kept ones picked
    by compress."""
    packed = tuple(poly.pack_weight(w, d) for w in poly.VARIABLE_WEIGHTS)
    steps = set(packed)
    reached = {0}
    for _ in range(d):
        reached = {key + step for key in reached for step in steps}
    dominant = {key for key in reached if min(poly.unpack_weight(key, d)) >= 0}
    blocks = {key: [] for key in sorted(dominant, reverse=True)}
    keys, probe = tee(map(sum, combinations_with_replacement(packed, d)))
    kept = compress(zip(plain_monomials(d), keys, strict=True), map(dominant.__contains__, probe))
    for exp, key in kept:
        blocks[key].append(exp)
    return {poly.unpack_weight(k, d): tuple(block) for k, block in blocks.items()}


def plain_roots():
    """The roots by the plain scan of the box spanned by +-HIGHEST_ROOT, one
    ``inner`` call per point, sorted."""
    box = [range(-b, b + 1) for b in lattice.HIGHEST_ROOT]
    return tuple(sorted(v for v in product(*box) if lattice.inner(v, v) == 2))


def reference_jacobi_failures(table, limit):
    """The first ``limit`` index triples i<j<k, in (i, j, k) order, whose
    three Jacobi terms, read from the structure table cell by cell, do not
    sum to zero."""
    failures = []
    for i in range(algebra.DIM):
        row_i = table[i]
        for j in range(i + 1, algebra.DIM):
            row_j = table[j]
            bracket_ij = row_i[j]
            for k in range(j + 1, algebra.DIM):
                acc = {}
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
                    if len(failures) >= limit:
                        return tuple(failures)
    return tuple(failures)


def exact_values(bound):
    """Every int in -bound..bound: the coefficients, which are integers, that
    hypothesis samples from a fixed pool."""
    return tuple(range(-bound, bound + 1))


def is_homogeneous(f):
    return len({sum(e) for e in f.terms}) <= 1


def poly_from_json(data):
    """Inverse of ``poly.poly_to_json``."""
    terms = {}
    for record in data:
        exp = tuple(int(k) for k in record["exp"])
        if record["den"] != "1":
            raise ValueError(f"coefficient is not an integer: {record}")
        coeff = int(record["num"])
        if coeff:
            terms[exp] = terms.get(exp, 0) + coeff
    return Polynomial(terms)


def rank_of_vectors(vectors):
    """Rank of a list of dense coefficient sequences."""
    return linalg.rank([{i: c for i, c in enumerate(vec) if c} for vec in vectors])


def reference_block_rows(monomials):
    """The rows of one weight block as ``singular_vectors`` assembled them
    before monomial codes: each simple raising operator applied to each
    monomial by ``Derivation.apply``, row (operator index, target exponent)
    holding the image coefficient at the monomial's column."""
    rows = {}
    for j, exp in enumerate(monomials):
        mono = Polynomial.monomial(exp)
        for oi, op in enumerate(representation.simple_raising()):
            for target, coeff in op(mono).terms.items():
                rows.setdefault((oi, target), {})[j] = coeff
    return list(rows.values())


def long_and_short_counts():
    """Long (norm 4) and short (norm 2) positive F4 roots."""
    norms = [dimensions.norm(r) for r in dimensions.positive_roots()]
    return norms.count(4), norms.count(2)


def printed_constant_ratio():
    """Value the closed form takes at (0,0) with the printed constant."""
    return Fraction(dimensions.closed_form_numerator(0, 0), dimensions.PRINTED_CONSTANT)


def branching_matches_monomial_count(degree):
    return dimensions.branching_sum(degree) == math.comb(degree + 25, 25)


def invariant_positive_roots():
    """Positive E6 roots fixed by the diagram involution."""
    return [r for r in lattice.positive_roots() if lattice.diagram_involution(r) == r]


def moved_positive_orbits():
    """Unordered 2-orbits of the involution on positive roots, as sorted pairs."""
    seen = set()
    orbits = []
    for r in lattice.positive_roots():
        image = lattice.diagram_involution(r)
        if image != r and r not in seen:
            seen.update((r, image))
            orbits.append((min(r, image), max(r, image)))
    return orbits


def root_vector(root):
    """The basis element of the 78-dimensional algebra at a rank-6 root, as a cell."""
    root = tuple(root)
    if root not in lattice.root_set():
        raise ValueError(f"{root} is not a root")
    return ((algebra.label_index()[("e", root)], 1),)


def combine(*terms):
    """The cell of sum c * cell over the (c, cell) pairs given."""
    acc = {}
    for c, cell in terms:
        for k, d in cell:
            acc[k] = acc.get(k, 0) + c * d
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


def relabel(cell):
    """Image of a cell under the diagram involution: index k -> sigma[k]."""
    perm = algebra.sigma()
    return tuple(sorted((perm[k], c) for k, c in cell))


def dense(cell):
    """Coordinate vector of a cell in the canonical 78-element basis."""
    out = [0] * algebra.DIM
    for k, c in cell:
        out[k] = c
    return out


def operator_cells(op):
    """The (i, j, c) cells of a Derivation, column by column."""
    return tuple((i, j, c) for j, entries in op.columns for i, c in entries)


def dense_matrix(cells):
    """The 26x26 matrix m[i][j] = c of operator cells (i, j, c), 0-based; the
    tests' reference for products of operators."""
    out = [[0] * NVARS for _ in range(NVARS)]
    for i, j, c in cells:
        out[i][j] = c
    return out


def predicted_weight_counts(degree):
    """Number of generator products at each predicted weight of this degree."""
    exponents = dimensions.generator_exponents(degree)
    return dict(Counter(map(representation.predicted_weight, exponents)))
