"""The named checks that ``f4poly verify`` runs, one function per suite.

Each suite maps a seeded ``random.Random`` to ``[(check name, passed), ...]`` in
a fixed order, so a seed fixes the output.  Checks in a suite share work (one
table of lattice forms, one ``eigenspace_dimensions`` or one ``eta2`` feeds
several).  Library functions are called through their modules, so a wrapped
module attribute sees every call.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from . import algebra, errata, lattice, poly, representation

Check = Tuple[str, bool]


def lattice_checks(rng: random.Random) -> List[Check]:
    roots = lattice.all_roots()
    rset = lattice.root_set()
    # Each form is evaluated once per ordered pair of positions: the roots, then
    # any involution image that is not a root, so a faulty involution is still
    # judged on its actual images.  sigma maps each root to its image's position.
    images = [lattice.diagram_involution(u) for u in roots]
    points = list(roots) + [w for w in dict.fromkeys(images) if w not in rset]
    sigma = [points.index(w) for w in images]
    gram = [[lattice.inner(u, v) for v in points] for u in points]
    sign = [[lattice.cocycle(u, v) for v in points] for u in points]
    pairs = [(a, b) for a in range(len(roots)) for b in range(len(roots))]
    triples = [(rng.choice(roots), rng.choice(roots), rng.choice(roots)) for _ in range(400)]
    return [
        ("root enumeration yields 72 vectors", len(roots) == 72),
        (
            "reflection closure reproduces the root set",
            set(lattice.roots_by_reflection_closure()) == rset,
        ),
        (
            "cocycle diagonal matches root norms on all roots",
            all(sign[a][a] == (-1) ** (gram[a][a] // 2) for a in range(len(roots))),
        ),
        (
            "cocycle commutator relation on all root pairs",
            all(sign[a][b] * sign[b][a] == (-1) ** gram[a][b] for a, b in pairs),
        ),
        (
            "cocycle unchanged by the diagram involution on all root pairs",
            all(sign[sigma[a]][sigma[b]] == sign[a][b] for a, b in pairs),
        ),
        (
            "cocycle bimultiplicative on seeded lattice triples",
            all(
                lattice.cocycle(lattice.add(u, v), w)
                == lattice.cocycle(u, w) * lattice.cocycle(v, w)
                and lattice.cocycle(u, lattice.add(v, w))
                == lattice.cocycle(u, v) * lattice.cocycle(u, w)
                for u, v, w in triples
            ),
        ),
        (
            "diagram involution is an isometric root permutation",
            all(w in rset for w in images)
            and all(gram[sigma[a]][sigma[b]] == gram[a][b] for a, b in pairs),
        ),
    ]


def algebra_checks(rng: random.Random) -> List[Check]:
    fixed, swapped = algebra.eigenspace_dimensions()
    return [
        ("basis has 78 elements", len(algebra.labels()) == 78),
        ("bracket antisymmetry on all ordered basis pairs", algebra.antisymmetry_failures() == 0),
        ("Jacobi identity on all 76076 unordered basis triples", algebra.jacobi_failures() == ()),
        (
            "diagram involution is a bracket automorphism",
            algebra.involution_is_automorphism_failures() == [],
        ),
        ("fixed subalgebra has dimension 52", fixed == 52),
        ("negated eigenspace has dimension 26", swapped == 26),
    ]


def _random_polynomial(rng: random.Random, degree: int, terms: int) -> poly.Polynomial:
    total = poly.Polynomial.zero()
    for _ in range(terms):
        exp = [0] * 26
        for _ in range(degree):
            exp[rng.randrange(26)] += 1
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        total = total + poly.Polynomial.monomial(tuple(exp), coeff)
    return total


def rep_checks(rng: random.Random) -> List[Check]:
    labels = representation.operator_labels()
    cells = set(errata.validate_table())
    known = {
        ("E+(0,1,1,0)", 3, 5, "1", "-1"),
        ("E+(0,1,1,0)", 22, 24, "-1", "1"),
        ("E-(0,1,1,0)", 5, 3, "-1", "1"),
        ("E-(0,1,1,0)", 24, 22, "1", "-1"),
    }
    # [raising, lowering] = -h is checked as [lowering, raising] = h.
    comm_ok = all(
        representation.operator(("e", root, -1)).commutator(representation.operator(("e", root, 1)))
        == representation.operator(("h", i))
        for i, root in enumerate(algebra.F4_SIMPLE, start=1)
    )
    leibniz_ok = True
    for label in (labels[0], labels[11], labels[30]):
        op = representation.operator(label)
        for _ in range(2):
            f = _random_polynomial(rng, 2, 3)
            g = _random_polynomial(rng, 3, 3)
            leibniz_ok = leibniz_ok and op(f * g) == op(f) * g + f * op(g)
    return [
        ("operator table has 52 entries", len(labels) == 52),
        ("transcription deviates from the derived oracle in exactly four cells", cells == known),
        ("simple pair commutators equal minus the Cartan operators", comm_ok),
        ("product rule holds on seeded random polynomials", leibniz_ok),
    ]


def invariant_checks(rng: random.Random) -> List[Check]:
    ops = representation.root_operators()
    eta1 = representation.eta1()
    eta2 = representation.eta2()
    diff = eta2 - errata.eta2_printed()
    logged = {record["label"]: record for record in errata.formula_errata()}
    expansion = logged.get("cubic invariant expansion")
    return [
        (
            "quadratic chain reproduces the recorded formulas",
            all(representation.zeta(r) == errata.zeta_printed(r) for r in range(1, 15)),
        ),
        (
            "module copy intertwines all eight simple operators",
            representation.module_copy_equivariance_failures() == [],
        ),
        (
            "cubic singular vector matches its recorded form",
            representation.theta() == errata.theta_printed(),
        ),
        (
            "quadratic invariant annihilated by all 48 root operators",
            all(op(eta1).is_zero() for op in ops),
        ),
        (
            "cubic invariant annihilated by all 48 root operators",
            all(op(eta2).is_zero() for op in ops),
        ),
        (
            "cubic invariant expansion deviations are logged errata",
            diff.is_zero()
            or (expansion is not None and expansion["diff"] == poly.poly_to_json(diff)),
        ),
        (
            "elimination identities hold exactly (allowing logged corrections)",
            all(
                item.holds or item.holds_with_correction
                for item in errata.verify_elimination_identities()
            ),
        ),
        (
            "second-order invariant operator commutes with all 52 operators",
            all(
                representation.laplacian_commutator_symbol(representation.operator(label)) == {}
                for label in representation.operator_labels()
            ),
        ),
        (
            "harmonic witnesses meet the summand bound for degrees two to five",
            all(
                bound == witnesses
                for bound, witnesses in map(representation.harmonic_summand_bound, range(2, 6))
            ),
        ),
    ]


SUITES: Tuple[Tuple[str, Callable[[random.Random], List[Check]]], ...] = (
    ("lattice", lattice_checks),
    ("algebra", algebra_checks),
    ("rep", rep_checks),
    ("invariants", invariant_checks),
)
