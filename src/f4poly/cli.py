"""Command-line entry point: verification suites, computations, and JSON export."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import algebra, dimensions, lattice, poly, representation

DEFAULT_SEED = 12345

Check = Tuple[str, bool]
Result = Tuple[int, List[str], object]


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# --------------------------------------------------------------------------
# Verification suites (fixed order, deterministic output).
# --------------------------------------------------------------------------


def _lattice_checks(rng: random.Random) -> List[Check]:
    roots = lattice.all_roots()
    rset = lattice.root_set()
    checks: List[Check] = [("root enumeration yields 72 vectors", len(roots) == 72)]
    checks.append(
        (
            "reflection closure reproduces the root set",
            set(lattice.roots_by_reflection_closure()) == rset,
        )
    )
    checks.append(
        (
            "cocycle diagonal matches root norms on all roots",
            all(lattice.cocycle(u, u) == (-1) ** (lattice.inner(u, u) // 2) for u in roots),
        )
    )
    checks.append(
        (
            "cocycle commutator relation on all root pairs",
            all(
                lattice.cocycle(u, v) * lattice.cocycle(v, u) == (-1) ** lattice.inner(u, v)
                for u in roots
                for v in roots
            ),
        )
    )
    checks.append(
        (
            "cocycle unchanged by the diagram involution on all root pairs",
            all(
                lattice.cocycle(
                    lattice.diagram_involution(u), lattice.diagram_involution(v)
                )
                == lattice.cocycle(u, v)
                for u in roots
                for v in roots
            ),
        )
    )
    bimult = True
    for _ in range(400):
        u = rng.choice(roots)
        v = rng.choice(roots)
        w = rng.choice(roots)
        left_ok = lattice.cocycle(lattice.add(u, v), w) == lattice.cocycle(
            u, w
        ) * lattice.cocycle(v, w)
        right_ok = lattice.cocycle(u, lattice.add(v, w)) == lattice.cocycle(
            u, v
        ) * lattice.cocycle(u, w)
        bimult = bimult and left_ok and right_ok
    checks.append(("cocycle bimultiplicative on seeded lattice triples", bimult))
    checks.append(
        (
            "diagram involution is an isometric root permutation",
            all(lattice.diagram_involution(u) in rset for u in roots)
            and all(
                lattice.inner(
                    lattice.diagram_involution(u), lattice.diagram_involution(v)
                )
                == lattice.inner(u, v)
                for u in roots
                for v in roots
            ),
        )
    )
    return checks


def _algebra_checks(rng: random.Random) -> List[Check]:
    checks: List[Check] = [("basis has 78 elements", len(algebra.labels()) == 78)]
    checks.append(
        (
            "bracket antisymmetry on all ordered basis pairs",
            algebra.antisymmetry_failures() == 0,
        )
    )
    checks.append(
        (
            "Jacobi identity on all 76076 unordered basis triples",
            algebra.jacobi_failures() == (),
        )
    )
    checks.append(
        (
            "diagram involution is a bracket automorphism",
            algebra.involution_is_automorphism_failures() == [],
        )
    )
    fixed, swapped = algebra.eigenspace_dimensions()
    checks.append(("fixed subalgebra has dimension 52", fixed == 52))
    checks.append(("negated eigenspace has dimension 26", swapped == 26))
    return checks


def _random_polynomial(rng: random.Random, degree: int, terms: int) -> poly.Polynomial:
    total = poly.Polynomial.zero()
    for _ in range(terms):
        exp = [0] * 26
        for _ in range(degree):
            exp[rng.randrange(26)] += 1
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        total = total + poly.Polynomial.monomial(tuple(exp), coeff)
    return total


def _rep_checks(rng: random.Random) -> List[Check]:
    labels = representation.operator_labels()
    checks: List[Check] = [("operator table has 52 entries", len(labels) == 52)]
    records = representation.validate_table()
    cells = {(r["label"], r["row"], r["col"]) for r in records}
    known = {
        ("E+(0,1,1,0)", 3, 5),
        ("E+(0,1,1,0)", 22, 24),
        ("E-(0,1,1,0)", 5, 3),
        ("E-(0,1,1,0)", 24, 22),
    }
    checks.append(
        ("transcription deviates from the derived oracle in exactly four cells", cells == known)
    )
    comm_ok = True
    for i, root in enumerate(algebra.F4_SIMPLE, start=1):
        raising = representation.operator(("e", root, 1))
        lowering = representation.operator(("e", root, -1))
        comm = raising.commutator(lowering).matrix()
        cartan = representation.operator(("h", i)).matrix()
        comm_ok = comm_ok and comm == [[-entry for entry in row] for row in cartan]
    checks.append(("simple pair commutators equal minus the Cartan operators", comm_ok))
    leibniz_ok = True
    for label in (labels[0], labels[11], labels[30]):
        op = representation.operator(label)
        for _ in range(2):
            f = _random_polynomial(rng, 2, 3)
            g = _random_polynomial(rng, 3, 3)
            leibniz_ok = leibniz_ok and op(f * g) == op(f) * g + f * op(g)
    checks.append(("product rule holds on seeded random polynomials", leibniz_ok))
    return checks


def _invariant_checks(rng: random.Random) -> List[Check]:
    checks: List[Check] = []
    checks.append(
        (
            "quadratic chain reproduces the recorded formulas",
            all(
                representation.zeta(r) == representation.zeta_printed(r)
                for r in range(1, 15)
            ),
        )
    )
    checks.append(
        (
            "module copy intertwines all eight simple operators",
            representation.module_copy_equivariance_failures() == [],
        )
    )
    checks.append(
        (
            "cubic singular vector matches its recorded form",
            representation.theta() == representation.theta_printed(),
        )
    )
    ops = representation.root_operators()
    eta1 = representation.eta1()
    checks.append(
        (
            "quadratic invariant annihilated by all 48 root operators",
            all(op(eta1).is_zero() for op in ops),
        )
    )
    eta2 = representation.eta2()
    checks.append(
        (
            "cubic invariant annihilated by all 48 root operators",
            all(op(eta2).is_zero() for op in ops),
        )
    )
    logged = {record["label"] for record in representation.formula_errata()}
    checks.append(
        (
            "cubic invariant expansion deviations are logged errata",
            eta2 == representation.eta2_printed() or "cubic invariant expansion" in logged,
        )
    )
    elimination = representation.verify_elimination_identities()
    checks.append(
        (
            "elimination identities hold exactly (allowing logged corrections)",
            all(item.holds or item.holds_with_correction for item in elimination),
        )
    )
    checks.append(
        (
            "second-order invariant operator commutes with all 52 operators",
            all(
                representation.laplacian_commutator_symbol(representation.operator(label))
                == {}
                for label in representation.operator_labels()
            ),
        )
    )
    checks.append(
        (
            "harmonic witnesses meet the summand bound for degrees two to five",
            all(
                representation.harmonic_summand_bound(degree)[0]
                == representation.harmonic_summand_bound(degree)[1]
                for degree in range(2, 6)
            ),
        )
    )
    return checks


SUITES: Tuple[Tuple[str, Callable[[random.Random], List[Check]]], ...] = (
    ("lattice", _lattice_checks),
    ("algebra", _algebra_checks),
    ("rep", _rep_checks),
    ("invariants", _invariant_checks),
)


# --------------------------------------------------------------------------
# Command handlers.  Each returns (exit code, text lines, JSON payload).
# --------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace, rng: random.Random) -> Result:
    wanted = [name for name, _ in SUITES] if args.target == "all" else [args.target]
    lines: List[str] = []
    suite_reports = []
    all_ok = True
    for name, build in SUITES:
        if name not in wanted:
            continue
        checks = build(rng)
        for check_name, ok in checks:
            lines.append(f"{check_name}: {_mark(ok)}")
        passed = sum(1 for _, ok in checks if ok)
        suite_ok = passed == len(checks)
        lines.append(f"suite {name}: {_mark(suite_ok)} ({passed}/{len(checks)} checks)")
        suite_reports.append(
            {
                "suite": name,
                "checks": [{"name": n, "pass": ok} for n, ok in checks],
                "pass": suite_ok,
            }
        )
        all_ok = all_ok and suite_ok
    if args.target == "all":
        lines.append(f"all suites: {_mark(all_ok)}")
    payload = {"command": "verify", "target": args.target, "suites": suite_reports, "pass": all_ok}
    return (0 if all_ok else 1), lines, payload


def _cmd_singular(args: argparse.Namespace, rng: random.Random) -> Result:
    report = representation.singular_vectors(args.degree)
    entries = sorted(report.entries, key=lambda entry: entry.weight, reverse=True)
    span = representation.products_span_kernels(report)
    counts = representation.predicted_weight_counts(args.degree)
    weights_ok = {entry.weight: entry.dim for entry in entries} == counts
    ok = report.total == report.predicted and span and weights_ok
    lines = [
        f"degree {args.degree}: {report.total} singular dimensions (predicted {report.predicted})"
    ]
    for entry in entries:
        weight = ",".join(str(c) for c in entry.weight)
        lines.append(f"  weight ({weight}): dim {entry.dim}")
    lines.append(f"generator products span the kernels: {_mark(span)}")
    lines.append(f"singular check: {_mark(ok)}")
    payload = {
        "degree": report.degree,
        "predicted": report.predicted,
        "entries": [
            {
                "weight": list(entry.weight),
                "dim": entry.dim,
                "basis": [poly.poly_to_json(vector) for vector in entry.basis],
            }
            for entry in entries
        ],
    }
    return (0 if ok else 1), lines, payload


def _cmd_identity(args: argparse.Namespace, rng: random.Random) -> Result:
    order = args.order
    report24 = dimensions.verify_identity_24(order)
    report26 = dimensions.verify_identity_26(order)
    series = dimensions.rhs_series(order)
    quartic = dimensions.TruncatedSeries.from_coeffs(order, (1, 2, 2, 1))
    reconstruction = quartic * dimensions.inverse_one_minus_t_power(24, order)
    first = next(
        (n for n in range(order + 1) if series.coeffs[n] != reconstruction.coeffs[n]),
        None,
    )
    ok = report24.passed and report26.passed and first is None
    lines = [
        f"order {order}",
        "product coefficients: " + " ".join(str(c) for c in report24.computed),
        f"product equals 1 + 2t + 2t^2 + t^3: {_mark(report24.passed)}",
        f"series routes agree (binomial, convolution, product): {_mark(report26.passed)}",
        f"identity: {_mark(ok)}",
    ]
    payload = {
        "order": order,
        "lhs": list(series.coeffs),
        "rhs": [str(c) for c in reconstruction.coeffs],
        "pass": ok,
        "first_mismatch": first,
    }
    return (0 if ok else 1), lines, payload


def _cmd_dim(args: argparse.Namespace, rng: random.Random) -> Result:
    value = dimensions.weyl_dim(args.k, args.l)
    agree = value == dimensions.closed_form_dim(args.k, args.l)
    lines = [str(value)]
    if not agree:
        lines.append("closed form disagrees: FAIL")
    payload = {"rows": [[str(args.k), str(args.l), str(value)]]}
    return (0 if agree else 1), lines, payload


def _cmd_branch(args: argparse.Namespace, rng: random.Random) -> Result:
    total = dimensions.branching_sum(args.degree)
    binom = math.comb(args.degree + 25, 25)
    ok = total == binom
    lines = [
        f"degree {args.degree}: branching sum {total}, monomial count {binom}: {_mark(ok)}"
    ]
    payload = {"degree": args.degree, "sum": str(total), "binomial": str(binom), "pass": ok}
    return (0 if ok else 1), lines, payload


def _cmd_harmonic(args: argparse.Namespace, rng: random.Random) -> Result:
    bound, witnesses = representation.harmonic_summand_bound(args.degree)
    ok = witnesses == bound
    lines = [
        f"degree {args.degree}: summand lower bound {bound}, "
        f"verified harmonic witnesses {witnesses}: {_mark(ok)}"
    ]
    payload = {"degree": args.degree, "bound": bound, "witnesses": witnesses, "pass": ok}
    return (0 if ok else 1), lines, payload


def _cmd_errata(args: argparse.Namespace, rng: random.Random) -> Result:
    table = list(representation.validate_table())
    formulas = representation.formula_errata()
    lines = [f"operator-table cells differing from the oracle: {len(table)}"]
    for record in table:
        lines.append(
            f"  {record['label']} row {record['row']} col {record['col']}: "
            f"transcribed {record['transcribed']}, oracle {record['oracle']}"
        )
    lines.append(f"formula deviations: {len(formulas)}")
    for record in formulas:
        lines.append(f"  {record['label']}")
    payload = {"operator_table": table, "formulas": formulas}
    return 0, lines, payload


def _label_json(label: algebra.Label) -> List[object]:
    if label[0] == "h":
        return ["h", label[1]]
    return ["e", list(label[1])]


def _cmd_export(args: argparse.Namespace, rng: random.Random) -> Result:
    if args.what == "roots":
        roots = lattice.all_roots()
        lines = [" ".join(str(c) for c in root) for root in roots]
        return 0, lines, [list(root) for root in roots]
    labels = algebra.labels()
    table = algebra.structure_table()
    entries: List[List[object]] = []
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell:
                terms = [[_label_json(labels[k]), coeff] for k, coeff in sorted(cell.items())]
                entries.append([_label_json(labels[i]), _label_json(labels[j]), terms])
    lines = [f"basis size {len(labels)}; nonzero brackets {len(entries)}"]
    return 0, lines, entries


HANDLERS: Dict[str, Callable[[argparse.Namespace, random.Random], Result]] = {
    "verify": _cmd_verify,
    "singular": _cmd_singular,
    "identity": _cmd_identity,
    "dim": _cmd_dim,
    "branch": _cmd_branch,
    "harmonic": _cmd_harmonic,
    "errata": _cmd_errata,
    "export": _cmd_export,
}


# --------------------------------------------------------------------------
# Argument parsing.
# --------------------------------------------------------------------------


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _order_value(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError("order must be at least 3")
    return value


def _harmonic_degree(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("degree must be at least 2")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        dest="json_path",
        default=argparse.SUPPRESS,
        metavar="PATH",
        help="write the JSON report to this path",
    )
    common.add_argument(
        "--seed",
        dest="seed",
        type=_seed_value,
        default=argparse.SUPPRESS,
        metavar="U64",
        help="seed for sampled property checks",
    )
    parser = argparse.ArgumentParser(
        prog="f4poly",
        description=(
            "Exact verification suites for the rank-4 folded algebra and its "
            "26-variable polynomial realization."
        ),
    )
    parser.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="write the JSON report to this path")
    parser.add_argument("--seed", dest="seed", type=_seed_value, default=DEFAULT_SEED,
                        metavar="U64", help="seed for sampled property checks")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    verify.add_argument("target", choices=["lattice", "algebra", "rep", "invariants", "all"])

    singular = sub.add_parser(
        "singular", parents=[common], help="classify singular vectors at a degree"
    )
    singular.add_argument("--degree", type=_nonneg, required=True, metavar="K")

    identity = sub.add_parser(
        "identity", parents=[common], help="check the series identities to an order"
    )
    identity.add_argument("--order", type=_order_value, required=True, metavar="N")

    dim = sub.add_parser(
        "dim", parents=[common], help="print the module dimension for a highest weight"
    )
    dim.add_argument("k", type=_nonneg)
    dim.add_argument("l", type=_nonneg)

    branch = sub.add_parser(
        "branch", parents=[common], help="compare branching total with the monomial count"
    )
    branch.add_argument("--degree", type=_nonneg, required=True, metavar="K")

    harmonic = sub.add_parser(
        "harmonic", parents=[common], help="harmonic summand bound and witnesses at a degree"
    )
    harmonic.add_argument("--degree", type=_harmonic_degree, required=True, metavar="K")

    sub.add_parser("errata", parents=[common], help="list machine-verified transcription errata")

    export = sub.add_parser("export", parents=[common], help="export raw tables as JSON")
    export.add_argument("what", choices=["roots", "structure"])

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    # Open the report before any work, so an unwritable path is a usage error.
    report = contextlib.nullcontext()
    if args.json_path is not None:
        try:
            report = open(args.json_path, "w", encoding="utf-8")
        except OSError as err:
            parser.exit(2, f"f4poly: cannot write {args.json_path}: {err.strerror or err}\n")
    with report:
        code, lines, payload = HANDLERS[args.command](args, rng)
        sys.stdout.write("\n".join(lines) + "\n")
        if args.json_path is not None:
            report.write(json.dumps(payload, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
