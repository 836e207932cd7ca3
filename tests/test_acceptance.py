"""Acceptance suite: one pass/fail line per headline criterion, with budgets.

Criteria 1-5 rest on the named checks of ``f4poly.checks``, whose suites
``tests/test_checks.py`` runs; here they add only what no named check covers.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from f4poly import checks, cli, dimensions, lattice, poly, representation
from helpers import branching_matches_monomial_count, printed_constant_ratio


def _report(name: str, ok: bool) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _failed_checks(suite: str) -> list:
    """Names of the failed checks when the named suite runs under the CLI's default seed."""
    run = dict(checks.SUITES)[suite]
    return [name for name, ok in run(random.Random(cli.DEFAULT_SEED)) if not ok]


def test_criterion_01_roots_and_cocycle():
    start = time.perf_counter()
    ok = _failed_checks("lattice") == []
    # cocycle additivity in the first slot, on pairs whose sum is a root or zero
    roots = lattice.all_roots()
    for u in roots:
        for v in roots:
            total = lattice.add(u, v)
            if total in lattice.root_set() or total == lattice.ZERO:
                expected = lattice.cocycle(u, u) * lattice.cocycle(v, u)
                ok = ok and lattice.cocycle(total, u) == expected
    elapsed = time.perf_counter() - start
    assert _report("criterion 1: 72 roots and cocycle relations on all pairs", ok)
    assert _report("criterion 1 runtime under 5 s", elapsed < 5.0)


def test_criterion_02_algebra_jacobi_and_eigenspaces():
    start = time.perf_counter()
    ok = _failed_checks("algebra") == []
    elapsed = time.perf_counter() - start
    assert _report("criterion 2: Jacobi identity and eigenspace dimensions 52/26", ok)
    assert _report("criterion 2 runtime under 2 min", elapsed < 120.0)


def test_criterion_03_operator_oracle_and_errata():
    # the errata cells and simple-pair commutators are named checks of the rep
    # suite; downstream code must use the construction-derived operators
    ok = representation.operator is representation.oracle_operator
    assert _report(
        "criterion 3: 52 operators match the oracle up to the published errata list", ok
    )


def test_criterion_04_invariants_and_elimination():
    # annihilation and the logged expansion diff are named invariants checks;
    # an identity that holds only with its correction must be logged
    logged = {record["label"] for record in representation.formula_errata()}
    ok = all(
        check.holds or f"elimination identity for {check.name}" in logged
        for check in representation.verify_elimination_identities()
    )
    assert _report(
        "criterion 4: both invariants annihilated; expansion and eliminations verified", ok
    )


def test_criterion_05_quadratic_module_copy():
    # the chain's printed form and the intertwining are named invariants checks;
    # each broken mirror rule must be logged
    logged = {record["label"] for record in representation.formula_errata()}
    ok = all(
        f"quadratic copy {r} mirror rule" in logged
        for r in range(15, 27)
        if representation.zeta(r) != poly.dual(representation.zeta(27 - r))
    )
    assert _report(
        "criterion 5: quadratic chain reproduces and the module copy intertwines", ok
    )


def test_criterion_06_singular_vectors_through_degree_4():
    start = time.perf_counter()
    ok = True
    for degree, expected in zip(range(5), (1, 1, 3, 5, 8)):
        report = representation.singular_vectors(degree)
        ok = ok and report.total == expected == report.predicted
        counts = representation.predicted_weight_counts(degree)
        ok = ok and {entry.weight: entry.dim for entry in report.entries} == counts
        ok = ok and representation.products_span_kernels(report)
    elapsed = time.perf_counter() - start
    assert _report("criterion 6: singular dimensions 1,1,3,5,8 with matching weights", ok)
    assert _report("criterion 6 runtime under 10 min", elapsed < 600.0)


def test_criterion_07_dimension_formula_and_constant():
    ok = dimensions.weyl_dim(0, 0) == 1
    ok = ok and dimensions.weyl_dim(0, 1) == 26
    ok = ok and dimensions.weyl_dim(1, 0) == 273
    ok = ok and dimensions.CORRECTED_CONSTANT == 12_070_840_320_000
    for k in range(6):
        for l in range(6):
            ok = ok and dimensions.closed_form_dim(k, l) == dimensions.weyl_dim(k, l)
    ratio = printed_constant_ratio()
    ok = ok and dimensions.PRINTED_CONSTANT == 39_504_568_320_000
    ok = ok and ratio == Fraction(11, 36) and ratio.denominator != 1
    assert _report(
        "criterion 7: dimension formula verified; published constant shown inconsistent", ok
    )


def test_criterion_08_identity_about_twenty_four():
    start = time.perf_counter()
    report = dimensions.verify_identity_24(30)
    ok = report.passed and report.first_mismatch is None
    ok = ok and report.computed == tuple([1, 2, 2, 1] + [0] * 27)
    family = dimensions.verify_identity_26(30)
    ok = ok and family.binomial_route and family.convolution_route and family.product_route
    elapsed = time.perf_counter() - start
    assert _report("criterion 8: degree-24 product identity holds through order 30", ok)
    assert _report("criterion 8 runtime under 10 s", elapsed < 10.0)


def test_criterion_09_branching_counts():
    ok = all(branching_matches_monomial_count(k) for k in range(9))
    ok = ok and dimensions.branching_sum(8) == math.comb(33, 25)
    assert _report("criterion 9: branching totals match monomial counts to degree 8", ok)


def test_criterion_10_laplacian_and_harmonics():
    # attaining the harmonic bounds is a named invariants check
    ok = representation.laplacian_commutes_on_degree(3)
    for degree in range(6):
        for k2 in range(degree // 3 + 1):
            product = representation.generator_product((degree - 3 * k2, 0, k2, 0, 0))
            ok = ok and representation.apply_laplacian(product).is_zero()
        for m2 in range((degree - 2) // 3 + 1):
            product = representation.generator_product((degree - 2 - 3 * m2, 1, m2, 0, 0))
            ok = ok and representation.apply_laplacian(product).is_zero()
    assert _report(
        "criterion 10: second-order operator commutes and harmonic bounds are attained", ok
    )
