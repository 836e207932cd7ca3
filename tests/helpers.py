"""Helpers shared by the tests: the plain partial derivative, against which
``Derivation.apply`` and ``representation.apply_laplacian`` are checked, the
row assembly by ``Derivation.apply`` that ``representation.singular_vectors``
is checked against, the plain monomial enumeration that
``poly.monomials_of_degree`` is checked against, small functions only the
tests use, and pools of small exact values for hypothesis to sample."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from f4poly import dimensions, lattice, linalg, representation
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


def exact_values(int_bound, fraction_bound, max_denominator):
    """Every int in -int_bound..int_bound and every Fraction in
    -fraction_bound..fraction_bound with denominator at most max_denominator.

    Sampling from this fixed pool gives the same values as a union of
    st.integers and st.fractions, and hypothesis draws it several times
    faster."""
    fractions = {
        Fraction(p, q)
        for q in range(1, max_denominator + 1)
        for p in range(-fraction_bound * q, fraction_bound * q + 1)
    }
    return tuple(range(-int_bound, int_bound + 1)) + tuple(sorted(fractions))


def is_homogeneous(f):
    return len({sum(e) for e in f.terms}) <= 1


def poly_from_json(data):
    """Inverse of ``poly.poly_to_json``."""
    terms = {}
    for record in data:
        exp = tuple(int(k) for k in record["exp"])
        coeff = Fraction(int(str(record["num"])), int(str(record["den"])))
        if coeff.denominator == 1:
            coeff = coeff.numerator
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
    """Long (norm 2) and short (norm 1) positive F4 roots."""
    norms = [dimensions.norm(r) for r in dimensions.positive_roots()]
    return norms.count(2), norms.count(1)


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
