"""Helpers shared by the tests: the plain partial derivative, against which
``Derivation.apply`` and ``representation.apply_laplacian`` are checked, and
pools of small exact values for hypothesis to sample."""

from fractions import Fraction

from f4poly.poly import Polynomial


def partial(f, index):
    """Partial derivative of f with respect to variable `index` (1-based)."""
    j = index - 1
    out = {}
    for exp, coeff in f.terms.items():
        k = exp[j]
        if k:
            out[exp[:j] + (k - 1,) + exp[j + 1 :]] = k * coeff
    return Polynomial(out)


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
