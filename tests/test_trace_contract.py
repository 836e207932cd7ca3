"""The benchmark's traced pass must still wrap the package and count what it pins."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from f4poly import representation
assert representation.__file__.startswith(sys.argv[1]), representation.__file__
t = tracer.Tracer()
t.install()
representation.singular_vectors(3)
print(json.dumps(t.report()))
"""


def test_tracer_installs_and_counts_singular_degree_3():
    """``Tracer.install`` finds every attribute it wraps (no LookupError), and the
    counts behind the singular-ladder gates come out as pinned, at degree 3."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    counts = report["counts"]
    assert counts["poly.monomials_enumerated"] == 3276
    assert counts["poly.dominant_monomials"] == 136
    assert report["spans"]["linalg.nullspace"][0] == 9
    assert counts["linalg.kernel_dim"] == 5
