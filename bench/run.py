"""f4poly benchmark: exact-verdict workloads, each invocation in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; f4poly is imported from the checkout's
``src`` (it need not be installed).  Every child is checked against answers
written into this file by hand; a wrong or missing verdict, a nonzero exit or
any stderr output counts as a failed invocation.

With ``--trace 0`` the run measures the end-to-end metrics: it times several
set-up probes, then repeats passes over the workload's invocations for at most
``--seconds`` seconds (at least one pass) and reports medians over passes.
With ``--trace 1`` it alternates untraced and traced passes (``tracer.py``
wraps the package's functions in the child), reports per-layer metrics, and
checks that each traced invocation prints byte-identical stdout and
reproduces the exact counts below.  The last stdout line is the JSON result.

Times are reported in reference seconds.  On a shared VM the CPU speed can
drift by 1.7x over minutes, which no averaging inside a 30 s run removes
(README.md has the measurements).  So the parent times a fixed slice of
pure-Python work (the calibration unit) before and after every child, and
scales the child's wall time by ``CAL_REFERENCE_S`` over the unit's measured
time.  Raw times are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")

SETUP_PROBES = 9
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s limit
VERIFY_SEEDS_PER_PASS = 8
# Children compile f4poly from source on every start, so no run depends on a
# bytecode cache left by an earlier one, and nothing is written under src/.
CHILD_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

CAL_REFERENCE_S = 0.008  # one calibration unit at the reference speed
CAL_MIN_S = 0.05  # shortest calibration around a child
CAL_SHARE = 0.05  # calibration after a child lasts this share of the child's time


class Invocation(NamedTuple):
    label: str
    task: Sequence[str]
    check: Callable[[str], bool]
    counts: Dict[str, float]  # exact per-layer values the traced run must reproduce


class Outcome(NamedTuple):
    seconds: float  # raw wall time of the child
    maxrss_mb: float
    stdout: bytes
    problem: Optional[str]  # None when the verdict matched the expected answer
    trace: Optional[dict]
    scale: float = 1.0  # reference seconds per raw second while the child ran

    @property
    def ref_s(self) -> float:
        return self.seconds * self.scale


# --------------------------------------------------------------------------
# Workloads and their hand-written answers.
# --------------------------------------------------------------------------


def _verify_ok(text: str) -> bool:
    lines = text.splitlines()
    return lines[-1:] == ["all suites: PASS"] and not any(line.endswith(": FAIL") for line in lines)


def _singular_ok(degree: int, total: int) -> Callable[[str], bool]:
    def check(text: str) -> bool:
        lines = text.splitlines()
        return (
            bool(lines)
            and lines[0] == f"degree {degree}: {total} singular dimensions (predicted {total})"
            and "generator products span the kernels: PASS" in lines
            and lines[-1] == "singular check: PASS"
        )

    return check


def _identity_ok(order: int) -> Callable[[str], bool]:
    coefficients = ["1", "2", "2", "1"] + ["0"] * (order + 1 - 4)

    def check(text: str) -> bool:
        lines = text.splitlines()
        return (
            "product coefficients: " + " ".join(coefficients) in lines
            and lines[-1] == "identity: PASS"
        )

    return check


def _branch_ok(degree: int) -> Callable[[str], bool]:
    total = math.comb(degree + 25, 25)
    expected = f"degree {degree}: branching sum {total}, monomial count {total}: PASS"
    return lambda text: text.splitlines() == [expected]


def verify_seeds(seed: int) -> List[Invocation]:
    rng = random.Random(seed)
    out = []
    for _ in range(VERIFY_SEEDS_PER_PASS):
        s = str(rng.randrange(2**64))
        out.append(
            Invocation(
                f"verify all --seed {s}",
                ("cli", "verify", "all", "--seed", s),
                _verify_ok,
                {"representation.oracle_operator.calls": 52},
            )
        )
    return out


# degree -> (singular total, monomials, dominant monomials, weight blocks solved)
SINGULAR_ANSWERS = {4: (8, 23751, 709, 16), 5: (12, 142506, 3174, 25), 6: (19, 736281, 13205, 39)}


def singular_ladder(seed: int) -> List[Invocation]:
    out = []
    for degree, (total, monomials, dominant, blocks) in SINGULAR_ANSWERS.items():
        out.append(
            Invocation(
                f"singular --degree {degree}",
                ("cli", "singular", "--degree", str(degree)),
                _singular_ok(degree, total),
                {
                    "poly.monomials_enumerated": monomials,
                    "poly.dominant_monomials": dominant,
                    "linalg.nullspace.calls": blocks,
                    "linalg.kernel_dim": total,
                    "representation.oracle_operator.calls": 28,
                },
            )
        )
    return out


def identity_branch(seed: int) -> List[Invocation]:
    return [
        Invocation(
            "identity --order 60",
            ("cli", "identity", "--order", "60"),
            _identity_ok(60),
            {"dimensions.weyl_dim.calls": 7106, "dimensions.weyl_dim.distinct": 651},
        ),
        Invocation(
            "branch --degree 40",
            ("cli", "branch", "--degree", "40"),
            _branch_ok(40),
            {"dimensions.weyl_dim.calls": 4928, "dimensions.weyl_dim.distinct": 300},
        ),
    ]


def laplacian_basis(seed: int) -> List[Invocation]:
    return [
        Invocation(
            "laplacian_commutes_on_degree(3)",
            ("laplacian", "3"),
            lambda text: text == "True\n",
            {"poly.derivation_apply.calls": 340704},
        )
    ]


# Only verify-seeds uses the seed; the others run the paper's fixed degrees and orders.
WORKLOADS: Dict[str, Callable[[int], List[Invocation]]] = {
    "verify-seeds": verify_seeds,
    "singular-ladder": singular_ladder,
    "identity-branch": identity_branch,
    "laplacian-basis": laplacian_basis,
}

# --------------------------------------------------------------------------
# Metrics.  Per-layer entries name the end-to-end metric and workload they
# should move; BENCHMARK.json lists the same names and units.
# --------------------------------------------------------------------------

END_TO_END = (
    ("wall_s", "s"),
    ("verdict_max_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

VS, SL, IB, LB = "verify-seeds", "singular-ladder", "identity-branch", "laplacian-basis"

PER_LAYER = (
    ("lattice.cocycle.calls", "count", f"moves wall_s on {VS}"),
    ("lattice.cocycle.s", "s", f"moves wall_s on {VS}"),
    ("lattice.all_roots.s", "s", f"moves wall_s on {VS}"),
    ("lattice.roots_by_reflection_closure.s", "s", f"moves wall_s on {VS}"),
    ("algebra.structure_table.s", "s", f"moves wall_s on {VS}"),
    ("algebra.jacobi_failures.s", "s", f"moves wall_s on {VS}"),
    ("algebra.involution_is_automorphism_failures.s", "s", f"moves wall_s on {VS}"),
    ("algebra.bracket.calls", "count", f"moves wall_s on {VS}"),
    ("algebra.ad_on_v.s", "s", f"moves wall_s on {VS}"),
    ("representation.oracle_operator.calls", "count", f"moves wall_s on {VS}"),
    ("representation.oracle_operator.s", "s", f"moves wall_s on {VS}"),
    ("representation.singular_vectors.s", "s", f"moves verdict_max_s on {SL}"),
    ("representation.singular_vectors.self_s", "s", f"moves verdict_max_s on {SL}"),
    ("representation.products_span_kernels.s", "s", f"moves wall_s on {SL}"),
    ("representation.laplacian_commutes_on_degree.s", "s", f"moves wall_s on {LB}"),
    ("representation.apply_laplacian.calls", "count", f"moves wall_s on {LB}"),
    ("representation.apply_laplacian.s", "s", f"moves wall_s on {LB}"),
    ("representation.generator_product.s", "s", f"moves wall_s on {VS}"),
    ("poly.degree_weight_table.s", "s", f"moves peak_rss_mb and verdict_max_s on {SL}"),
    ("poly.monomials_enumerated", "count", f"moves peak_rss_mb and verdict_max_s on {SL}"),
    ("poly.weight_blocks", "count", f"moves peak_rss_mb and verdict_max_s on {SL}"),
    ("poly.dominant_monomials", "count", f"moves peak_rss_mb and verdict_max_s on {SL}"),
    ("poly.dominant_ratio", "ratio", f"moves peak_rss_mb and verdict_max_s on {SL}"),
    ("poly.derivation_apply.calls", "count", f"moves wall_s on {LB} and {SL}"),
    ("poly.derivation_apply.s", "s", f"moves wall_s on {LB} and {SL}"),
    ("poly.polynomial_mul.calls", "count", f"moves wall_s on {VS}"),
    ("poly.polynomial_mul.s", "s", f"moves wall_s on {VS}"),
    ("linalg.nullspace.calls", "count", f"moves verdict_max_s on {SL}"),
    ("linalg.nullspace.s", "s", f"moves verdict_max_s on {SL}"),
    ("linalg.rows", "count", f"moves verdict_max_s on {SL}"),
    ("linalg.cols", "count", f"moves verdict_max_s on {SL}"),
    ("linalg.nonzeros", "count", f"moves verdict_max_s on {SL}"),
    ("linalg.kernel_dim", "count", f"moves verdict_max_s on {SL}"),
    ("linalg.rank.calls", "count", f"moves verdict_max_s on {SL}"),
    ("linalg.rank.s", "s", f"moves verdict_max_s on {SL}"),
    ("dimensions.weyl_dim.calls", "count", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("dimensions.weyl_dim.distinct", "count", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("dimensions.weyl_dim.s", "s", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("dimensions.series_mul.calls", "count", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("dimensions.series_mul.s", "s", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("dimensions.rhs_series.s", "s", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("dimensions.branching_sum.s", "s", f"moves wall_s on {IB}; none on {SL}, {LB}"),
    ("cli.main.s", "s", "in-process time; wall_s minus this is the per-process overhead"),
    ("cli.stdout_bytes", "bytes", "output volume"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s; cost of tracing"),
)


def layer_values(report: dict, scale: float) -> Dict[str, float]:
    """Flatten one child's tracer report into per-layer values, times in reference seconds."""
    values: Dict[str, float] = dict(report["counts"])
    for name, (calls, total, self_time) in report["spans"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total * scale
        values[f"{name}.self_s"] = self_time * scale
    return values


# --------------------------------------------------------------------------
# Running children.
# --------------------------------------------------------------------------


def run_child(task: Sequence[str], deadline: float, traced: bool = False) -> Outcome:
    """Run one child to completion, collecting stdout, stderr and its report."""
    report_read, report_write = os.pipe()
    argv = [sys.executable, CHILD, SRC, str(report_write), "1" if traced else "0", *task]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=CHILD_ENV,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(report_write,),
    )
    os.close(report_write)
    buffers: Dict[int, bytearray] = {
        fd: bytearray() for fd in (proc.stdout.fileno(), proc.stderr.fileno(), report_read)
    }
    timed_out = False
    with selectors.DefaultSelector() as selector:
        for fd in buffers:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd] += chunk
                else:
                    selector.unregister(key.fd)
    proc.wait()
    seconds = time.perf_counter() - start
    stdout = bytes(buffers[proc.stdout.fileno()])
    stderr = bytes(buffers[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    os.close(report_read)
    report = json.loads(buffers[report_read]) if buffers[report_read] else None
    problem = None
    if timed_out:
        problem = "timed out"
    elif proc.returncode != 0:
        problem = f"exit code {proc.returncode}"
    elif stderr:
        problem = "stderr: " + stderr.decode(errors="replace").strip()[:200]
    elif report is None:
        problem = "no report"
    peak_mb = report["peak_rss_kb"] / 1024.0 if report else 0.0
    return Outcome(seconds, peak_mb, stdout, problem, report and report["trace"])


def calibration_unit() -> None:
    """Fixed pure-Python work of f4poly's kind: tuple keys, dict updates, integer arithmetic."""
    table: Dict[tuple, int] = {}
    for i in range(20000):
        key = (i % 97, i % 13, i & 7)
        table[key] = table.get(key, 0) + i * 3 // 7


def calibrate(seconds: float) -> tuple:
    """Run calibration units for at least `seconds`; return (elapsed, units)."""
    start = time.perf_counter()
    units = 0
    while True:
        calibration_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed, units


class Pass(NamedTuple):
    elapsed_s: float  # raw time of the whole pass, calibrations included
    outcomes: List[Outcome]

    @property
    def wall_s(self) -> float:
        """Time in children, in reference seconds."""
        return sum(o.ref_s for o in self.outcomes)

    @property
    def raw_wall_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def run_pass(invocations: Sequence[Invocation], deadline: float, traced: bool = False) -> Pass:
    """Run each invocation once, scaled by the calibrations just before and after it."""
    start = time.perf_counter()
    before = calibrate(CAL_MIN_S)
    outcomes = []
    for inv in invocations:
        outcome = run_child(inv.task, deadline, traced)
        after = calibrate(max(CAL_MIN_S, CAL_SHARE * outcome.seconds))
        unit_s = (before[0] + after[0]) / (before[1] + after[1])
        outcome = outcome._replace(scale=CAL_REFERENCE_S / unit_s)
        if outcome.problem is None and not inv.check(outcome.stdout.decode(errors="replace")):
            outcome = outcome._replace(problem="wrong or missing verdict")
        outcomes.append(outcome)
        before = after
    return Pass(time.perf_counter() - start, outcomes)


def repeat(seconds: float, deadline: float, one_round: Callable[[], float]) -> None:
    """Call one_round once, then again while a round as long as the last ends within `seconds`."""
    start = time.perf_counter()
    while True:
        round_s = one_round()
        if time.perf_counter() - start + round_s > seconds or time.monotonic() + 2 * round_s > deadline:
            return


# --------------------------------------------------------------------------
# The two kinds of run.
# --------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.problem is not None:
            self.failed += 1
            print(f"FAILED {label}: {outcome.problem}")


SETUP_PROBE = Invocation("set-up probe", ("import",), lambda text: text == "", {})


def measure(invocations: List[Invocation], seconds: float, deadline: float, tally: Tally) -> Dict[str, float]:
    probes = run_pass([SETUP_PROBE] * SETUP_PROBES, deadline).outcomes
    for outcome in probes:
        tally.add(SETUP_PROBE.label, outcome)

    passes: List[Pass] = []

    def one_pass() -> float:
        p = run_pass(invocations, deadline)
        for inv, outcome in zip(invocations, p.outcomes):
            tally.add(inv.label, outcome)
        passes.append(p)
        return p.elapsed_s

    repeat(seconds, deadline, one_pass)
    print(f"passes of {len(invocations)} invocations, wall s (reference/raw): "
          + " ".join(f"{p.wall_s:.3f}/{p.raw_wall_s:.3f}" for p in passes))
    print("set-up probes, s (reference/raw): " + " ".join(f"{o.ref_s:.4f}/{o.seconds:.4f}" for o in probes))
    print(f"raw medians: wall_s {statistics.median(p.raw_wall_s for p in passes):.4f} s, "
          f"setup_s {statistics.median(o.seconds for o in probes):.4f} s")
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        # Each invocation's median over passes, so one slow moment in a pass
        # does not become the pass's maximum.
        "verdict_max_s": max(
            statistics.median(p.outcomes[i].ref_s for p in passes) for i in range(len(invocations))
        ),
        "peak_rss_mb": statistics.median(max(o.maxrss_mb for o in p.outcomes) for p in passes),
        "setup_s": statistics.median(o.ref_s for o in probes),
    }


def trace(invocations: List[Invocation], seconds: float, deadline: float, tally: Tally) -> Dict[str, float]:
    plain_walls: List[float] = []
    per_pass: List[Dict[str, float]] = []

    def one_pair() -> float:
        plain = run_pass(invocations, deadline)
        traced = run_pass(invocations, deadline, traced=True)
        plain_walls.append(plain.wall_s)
        totals: Dict[str, float] = {}
        for inv, reference, outcome in zip(invocations, plain.outcomes, traced.outcomes):
            tally.add(inv.label, reference)
            if outcome.problem is None:
                outcome = outcome._replace(problem=_trace_problem(inv, reference, outcome))
            tally.add(inv.label + " (traced)", outcome)
            if outcome.trace is not None:
                for name, value in layer_values(outcome.trace, outcome.scale).items():
                    totals[name] = totals.get(name, 0) + value
            totals["cli.stdout_bytes"] = totals.get("cli.stdout_bytes", 0) + len(outcome.stdout)
        monomials = totals.get("poly.monomials_enumerated", 0)
        totals["poly.dominant_ratio"] = totals.get("poly.dominant_monomials", 0) / monomials if monomials else 0.0
        totals["trace.wall_s"] = traced.wall_s
        per_pass.append(totals)
        return plain.elapsed_s + traced.elapsed_s

    repeat(seconds, deadline, one_pair)
    print(f"untraced/traced pass pairs: {len(per_pass)} of {len(invocations)} invocations")
    metrics = {
        name: statistics.median(p.get(name, 0) for p in per_pass) for name, _, _ in PER_LAYER
    }
    metrics["trace.overhead_s"] = statistics.median(p["trace.wall_s"] for p in per_pass) - statistics.median(plain_walls)
    return metrics


def _trace_problem(inv: Invocation, reference: Outcome, outcome: Outcome) -> Optional[str]:
    if reference.problem is None and outcome.stdout != reference.stdout:
        return "traced stdout differs from untraced stdout"
    values = layer_values(outcome.trace, outcome.scale)
    for name, expected in inv.counts.items():
        if values.get(name, 0) != expected:
            return f"{name} = {values.get(name, 0)}, expected {expected}"
    return None


# --------------------------------------------------------------------------
# Environment record and entry point.
# --------------------------------------------------------------------------


def environment() -> dict:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == os.path.realpath(ROOT)
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_revision": git("rev-parse", "HEAD") if in_repo else None,
        "git_src_dirty": bool(git("status", "--porcelain", "--", "src")) if in_repo else None,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "f4poly", "__init__.py")):
        sys.stderr.write(f"no f4poly package under {SRC}; run from the root of an f4poly checkout\n")
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    print("environment: " + json.dumps(environment(), sort_keys=True))
    invocations = WORKLOADS[args.workload](args.seed)
    seed_note = "sets the verify seeds" if args.workload == VS else "not used by this workload"
    print(f"workload {args.workload}, seed {args.seed} ({seed_note}), trace {args.trace}")
    tally = Tally()
    if args.trace:
        metrics = trace(invocations, args.seconds, deadline, tally)
        units = {name: unit for name, unit, _ in PER_LAYER}
        notes = {name: note for name, _, note in PER_LAYER}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}  [{notes[name]}]")
    else:
        metrics = measure(invocations, args.seconds, deadline, tally)
        units = dict(END_TO_END)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} ratio ({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
