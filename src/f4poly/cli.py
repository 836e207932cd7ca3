"""Command-line entry point: the verification suites of ``f4poly.checks``,
computations, and JSON export."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import algebra, checks, dimensions, lattice, poly, representation

DEFAULT_SEED = 12345

# Input ceilings, refused at parsing (exit 2) before any work.  Time of
# ``singular`` follows the C(K+25, 25) monomials of degree K, all built and
# weighed, mostly in C (only the dominant ones reach a Python loop), and its
# memory the dominant ones it keeps; ``identity`` makes O(N^3) cheap integer
# ``weyl_dim`` calls; ``branch`` holds about K^4/864 generator exponent tuples;
# ``harmonic`` multiplies out and holds every witness product, whose terms grow
# steeply with K.  README gives the measured cost at each ceiling.
MAX_SINGULAR_DEGREE = 7
MAX_IDENTITY_ORDER = 120
MAX_BRANCH_DEGREE = 200
MAX_HARMONIC_DEGREE = 26
Result = Tuple[int, List[str], object]


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# --------------------------------------------------------------------------
# Command handlers.  Each returns (exit code, text lines, JSON payload).
# --------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace, rng: random.Random) -> Result:
    wanted = [name for name, _ in checks.SUITES] if args.target == "all" else [args.target]
    lines: List[str] = []
    suite_reports = []
    all_ok = True
    for name, build in checks.SUITES:
        if name not in wanted:
            continue
        results = build(rng)
        for check_name, ok in results:
            lines.append(f"{check_name}: {_mark(ok)}")
        passed = sum(1 for _, ok in results if ok)
        suite_ok = passed == len(results)
        lines.append(f"suite {name}: {_mark(suite_ok)} ({passed}/{len(results)} checks)")
        suite_reports.append(
            {
                "suite": name,
                "checks": [{"name": n, "pass": ok} for n, ok in results],
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
    # json.dumps rejects the read-only records, so copy them into dicts.
    table = [dict(record) for record in representation.validate_table()]
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


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """Argument type for an integer from low to high (no ceiling if high is None)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    seed = _int_in(0, 2**64 - 1)
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
        type=seed,
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
    parser.add_argument("--seed", dest="seed", type=seed, default=DEFAULT_SEED,
                        metavar="U64", help="seed for sampled property checks")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    verify.add_argument("target", choices=["lattice", "algebra", "rep", "invariants", "all"])

    singular = sub.add_parser(
        "singular", parents=[common], help="classify singular vectors at a degree"
    )
    singular.add_argument(
        "--degree", type=_int_in(0, MAX_SINGULAR_DEGREE), required=True, metavar="K"
    )

    identity = sub.add_parser(
        "identity", parents=[common], help="check the series identities to an order"
    )
    identity.add_argument(
        "--order", type=_int_in(3, MAX_IDENTITY_ORDER), required=True, metavar="N"
    )

    dim = sub.add_parser(
        "dim", parents=[common], help="print the module dimension for a highest weight"
    )
    dim.add_argument("k", type=_int_in(0))
    dim.add_argument("l", type=_int_in(0))

    branch = sub.add_parser(
        "branch", parents=[common], help="compare branching total with the monomial count"
    )
    branch.add_argument(
        "--degree", type=_int_in(0, MAX_BRANCH_DEGREE), required=True, metavar="K"
    )

    harmonic = sub.add_parser(
        "harmonic", parents=[common], help="harmonic summand bound and witnesses at a degree"
    )
    harmonic.add_argument(
        "--degree", type=_int_in(2, MAX_HARMONIC_DEGREE), required=True, metavar="K"
    )

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
            json.dump(payload, report, indent=2)
            report.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
