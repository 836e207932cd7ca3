"""Command-line entry point: the verification suites of ``f4poly.checks``,
computations, and JSON export."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import stat
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from . import algebra

DEFAULT_SEED = 12345

# Input ceilings, refused at parsing (exit 2) before any work.  Time of
# ``singular`` follows the C(K+25, 25) monomials of degree K, all built, mostly
# in C, and weighed once per head block, the monomials sharing their x1..x16
# exponents (only the dominant ones reach a Python loop), and its memory the
# dominant ones it keeps; ``identity`` makes O(N^3) cheap integer ``weyl_dim``
# calls; ``branch`` makes about K^4/864 of them, one per generator exponent
# tuple, streamed, so its memory stays flat; ``harmonic`` multiplies out and
# holds every witness product, whose terms grow steeply with K.  README gives
# the measured cost at each ceiling.
MAX_SINGULAR_DEGREE = 7
MAX_IDENTITY_ORDER = 120
MAX_BRANCH_DEGREE = 200
MAX_HARMONIC_DEGREE = 26
Result = Tuple[int, List[str], object]


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# --------------------------------------------------------------------------
# Command handlers.  Each returns (exit code, text lines, JSON payload), and
# each imports only the modules it calls, so a command compiles no others.
# --------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> Result:
    from . import checks

    wanted = [name for name, _ in checks.SUITES] if args.target == "all" else [args.target]
    rng = random.Random(args.seed)
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


def _cmd_singular(args: argparse.Namespace) -> Result:
    from . import poly, representation

    report = representation.singular_vectors(args.degree)
    entries = sorted(report.entries, key=lambda entry: entry.weight, reverse=True)
    # The span check pins each weight's dimension to its count of generator
    # products, so it also decides the total against the prediction.
    ok = representation.products_span_kernels(report)
    lines = [
        f"degree {args.degree}: {report.total} singular dimensions (predicted {report.predicted})"
    ]
    for entry in entries:
        weight = ",".join(str(c) for c in entry.weight)
        lines.append(f"  weight ({weight}): dim {entry.dim}")
    lines.append(f"generator products span the kernels: {_mark(ok)}")
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


def _cmd_identity(args: argparse.Namespace) -> Result:
    from . import dimensions

    order = args.order
    report = dimensions.verify_identity_26(order)
    series = dimensions.rhs_series(order)
    ok = report.passed
    lines = [
        f"order {order}",
        "product coefficients: " + " ".join(str(c) for c in report.product.computed),
        f"product equals 1 + 2t + 2t^2 + t^3: {_mark(report.product.passed)}",
        f"series routes agree (binomial, convolution, product): {_mark(ok)}",
        f"identity: {_mark(ok)}",
    ]
    payload = {
        "order": order,
        "lhs": list(series.coeffs),
        "rhs": [str(c) for c in report.convolution.coeffs],
        "pass": ok,
        # lhs - rhs is (1-t)^-24 times route 3's difference, a unit multiple,
        # so the two differences first deviate at the same index.
        "first_mismatch": report.product.first_mismatch,
    }
    return (0 if ok else 1), lines, payload


def _cmd_dim(args: argparse.Namespace) -> Result:
    from . import dimensions

    value = dimensions.weyl_dim(args.k, args.l)
    agree = value == dimensions.closed_form_dim(args.k, args.l)
    lines = [str(value)]
    if not agree:
        lines.append("closed form disagrees: FAIL")
    payload = {"rows": [[str(args.k), str(args.l), str(value)]]}
    return (0 if agree else 1), lines, payload


def _cmd_branch(args: argparse.Namespace) -> Result:
    from . import dimensions

    total = dimensions.branching_sum(args.degree)
    binom = math.comb(args.degree + 25, 25)
    ok = total == binom
    lines = [
        f"degree {args.degree}: branching sum {total}, monomial count {binom}: {_mark(ok)}"
    ]
    payload = {"degree": args.degree, "sum": str(total), "binomial": str(binom), "pass": ok}
    return (0 if ok else 1), lines, payload


def _cmd_harmonic(args: argparse.Namespace) -> Result:
    from . import representation

    bound, witnesses = representation.harmonic_summand_bound(args.degree)
    ok = witnesses == bound
    lines = [
        f"degree {args.degree}: summand lower bound {bound}, "
        f"verified harmonic witnesses {witnesses}: {_mark(ok)}"
    ]
    payload = {"degree": args.degree, "bound": bound, "witnesses": witnesses, "pass": ok}
    return (0 if ok else 1), lines, payload


def _cmd_errata(args: argparse.Namespace) -> Result:
    from . import errata

    table = [record._asdict() for record in errata.validate_table()]
    formulas = errata.formula_errata()
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


def _cmd_export(args: argparse.Namespace) -> Result:
    if args.what == "roots":
        from . import lattice

        roots = lattice.all_roots()
        lines = [" ".join(str(c) for c in root) for root in roots]
        return 0, lines, [list(root) for root in roots]
    from . import algebra

    labels = algebra.labels()
    table = algebra.structure_table()
    entries: List[List[object]] = []
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell:
                terms = [[_label_json(labels[k]), coeff] for k, coeff in cell]
                entries.append([_label_json(labels[i]), _label_json(labels[j]), terms])
    lines = [f"basis size {len(labels)}; nonzero brackets {len(entries)}"]
    return 0, lines, entries


HANDLERS: Dict[str, Callable[[argparse.Namespace], Result]] = {
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
    parser = argparse.ArgumentParser(
        prog="f4poly",
        description=(
            "Exact verification suites for the rank-4 folded algebra and its "
            "26-variable polynomial realization."
        ),
    )
    # Each option goes before the command or after it, where it overrides.
    common = argparse.ArgumentParser(add_help=False)
    for owner, json_default, seed_default in (
        (parser, None, DEFAULT_SEED),
        (common, argparse.SUPPRESS, argparse.SUPPRESS),
    ):
        owner.add_argument("--json", dest="json_path", default=json_default, metavar="PATH",
                           help="write the JSON report to this path")
        owner.add_argument("--seed", dest="seed", type=_int_in(0, 2**64 - 1),
                           default=seed_default, metavar="U64",
                           help="seed for sampled property checks")
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


def _discard_report(path: str) -> None:
    """Remove an unfinished report, but only a regular file: never a device,
    a FIFO or a symlink that ``--json`` named."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Open the report before any work, so an unwritable path is a usage error,
    # but cut it to the new report's length only once that is written: until
    # then the file keeps its earlier bytes.
    report = contextlib.nullcontext()
    if args.json_path is not None:
        try:
            fd = os.open(args.json_path, os.O_WRONLY | os.O_CREAT, 0o666)
        except OSError as err:
            parser.exit(2, f"f4poly: cannot write {args.json_path}: {err.strerror or err}\n")
        report = open(fd, "w", encoding="utf-8")
    try:
        with report:
            code, lines, payload = HANDLERS[args.command](args)
            stream, name = sys.stdout, "stdout"
            try:
                stream.write("\n".join(lines) + "\n")
                stream.flush()
                if args.json_path is not None:
                    stream, name = report, args.json_path
                    json.dump(payload, report, indent=2)
                    report.write("\n")
                    report.flush()
                    # A device or a FIFO cannot be truncated, nor needs it.
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            except OSError as err:
                # The stream still holds what it failed to write, and its flush
                # at close or at exit would fail again with a traceback, so its
                # descriptor is pointed at the null device first.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
                parser.exit(2, f"f4poly: cannot write {name}: {err.strerror or err}\n")
    except BaseException:
        # A failed run, by a write error or an exception out of the handler,
        # leaves no unfinished report behind in a regular file that the path
        # names; a symlink's target keeps its earlier bytes.
        if args.json_path is not None:
            _discard_report(args.json_path)
        raise
    return code


if __name__ == "__main__":
    sys.exit(main())
