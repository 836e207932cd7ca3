"""The benchmark's traced pass must still wrap the package and count what it pins."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

# Runs the statement in argv[3] under the tracer, with its stdout silenced, and
# prints the tracer's report.
PROBE = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from f4poly import cli, representation
assert representation.__file__.startswith(sys.argv[1]), representation.__file__
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[3])
print(json.dumps(t.report()))
"""


def traced(statement):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "bench"), statement],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_tracer_installs_and_counts_singular_degree_3():
    """``Tracer.install`` finds every attribute it wraps (no LookupError), and the
    counts behind the singular-ladder gates come out as pinned, at degree 3."""
    report = traced("representation.singular_vectors(3)")
    counts = report["counts"]
    assert counts["poly.monomials_enumerated"] == 3276
    assert counts["poly.dominant_monomials"] == 136
    assert report["spans"]["linalg.nullspace"][0] == 9
    assert report["spans"]["poly.derivation_apply"][0] == 0
    assert counts["linalg.rows"] == 213
    assert counts["linalg.nonzeros"] == 465
    assert counts["linalg.kernel_dim"] == 5


def test_tracer_counts_singular_degree_4_gate():
    """``singular --degree 4`` reproduces the counts bench/run.py pins for it:
    monomials weighed, dominant monomials kept, one nullspace per dominant
    weight block, the kernel dimension and the operator builds."""
    report = traced("cli.main(['singular', '--degree', '4'])")
    counts = report["counts"]
    assert counts["poly.monomials_enumerated"] == 23751
    assert counts["poly.dominant_monomials"] == 709
    assert report["spans"]["linalg.nullspace"][0] == 16
    assert counts["linalg.kernel_dim"] == 8
    assert report["spans"]["representation.oracle_operator"][0] == 28


def test_tracer_counts_identity_branch_gate():
    """``identity --order 60`` makes the weyl_dim calls the identity-branch gate pins."""
    report = traced("cli.main(['identity', '--order', '60'])")
    assert report["spans"]["dimensions.weyl_dim"][0] == 7106
    assert report["counts"]["dimensions.weyl_dim.distinct"] == 651


def test_tracer_counts_verify_seeds_gate():
    """Building the 52 operators makes the oracle builds the verify-seeds gate pins."""
    report = traced(
        "for label in representation.operator_labels(): representation.operator(label)"
    )
    assert report["spans"]["representation.oracle_operator"][0] == 52
