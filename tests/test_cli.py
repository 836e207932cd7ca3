"""Tests for the command-line interface."""

from __future__ import annotations

import ast
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import f4poly
from f4poly import cli, dimensions, representation

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
)
MODULES = {"f4poly"} | {f"f4poly.{name}" for name in f4poly.__all__ if name != "__version__"}


def test_verify_lattice_passes(capsys):
    assert cli.main(["verify", "lattice"]) == 0
    out = capsys.readouterr().out
    assert "root enumeration yields 72 vectors: PASS" in out
    assert "suite lattice: PASS" in out


def test_verify_all_aggregates_every_suite(tmp_path, capsys):
    """Stdout and --json of ``--seed 12345 verify all`` match the recorded output."""
    path = tmp_path / "report.json"
    assert cli.main(["--seed", "12345", "--json", str(path), "verify", "all"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "verify_all_seed_12345.txt").read_bytes()
    assert path.read_bytes() == (DATA / "verify_all_seed_12345.json").read_bytes()


def test_singular_degree_four_output_is_pinned(tmp_path, capsys):
    """SHA-256 of stdout and --json of ``--json PATH singular --degree 4``."""
    path = tmp_path / "singular.json"
    assert cli.main(["--json", str(path), "singular", "--degree", "4"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "9205d3dc2d6b1dbfac2b6dca6947d45e53f7a8a78b7cc5a67abc85219b1dfddb"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e57524b6cd1f02d02f0d8b5c8c36848efce58cd16d4fcd905d366914af74ed0f"
    )


def test_singular_degree_five_output_is_pinned(tmp_path, capsys):
    """SHA-256 of stdout and --json of ``--json PATH singular --degree 5``, whose
    weight blocks include kernels of dimension above one."""
    path = tmp_path / "singular.json"
    assert cli.main(["--json", str(path), "singular", "--degree", "5"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "9f05c6d13454802ca7f55e41fcd23c8269965f46565b870951a0df13d502f623"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1e0df9a0ea83123ca7c00d24075ba749fcd2c203c041d31b70c92e5b873d2a03"
    )


@pytest.mark.parametrize(
    "argv, out_sha, json_sha",
    [
        (
            ["identity", "--order", "60"],
            "250b8e09370c7ece04279293b3a70ff1b61cb6ea6f55b31e86bdf080b62dfa2c",
            "87ed5b9920690d14b4bd9aacd1d27201a063c2d5c8988d34cad44e32c17b71b3",
        ),
        (
            ["branch", "--degree", "40"],
            "c44a756a619dd0d7f9fc56b45074cbddcf63087ed16f64916346bfa054fedaa3",
            "40937e09d8f2726defec0a9c34ad30e744c6c8240d7f79529db25d0ee7f26c96",
        ),
        (
            ["dim", "3", "5"],
            "6dfbc9545da3620f1c979da43152eeeed68d72156ed02cd2ec816adbeb45c86d",
            "58952a021d6292ee5a0df8bde93a1d3c4cfd5937984481b7b67fbe2dc4654bc6",
        ),
    ],
    ids=["identity-60", "branch-40", "dim-3-5"],
)
def test_dimension_output_is_pinned(tmp_path, capsys, argv, out_sha, json_sha):
    """SHA-256 of stdout and --json of the commands built on ``weyl_dim``."""
    path = tmp_path / "out.json"
    assert cli.main(["--json", str(path), *argv]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == out_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha


@pytest.mark.parametrize(
    "what, out_sha, json_sha",
    [
        (
            "roots",
            "b96ee6ed44e82bda3e5393c7c8d7ad210e65216cde01701a4f18a090a5fef196",
            "bc681cf6dce26359375e37b330f4956a3021bb01f144b2251b827a5c3fa3a3b5",
        ),
        (
            "structure",
            "868d2eba9a06621e75cd329a8200ae34d2ff1f643e6f5a793c124c5ca3b674aa",
            "8e4bbf072a0d6a0dc89295a5e6bd8364081539584538c4ce87656537c40f262a",
        ),
    ],
)
def test_export_output_is_pinned(tmp_path, capsys, what, out_sha, json_sha):
    """SHA-256 of stdout and --json of ``export roots`` and ``export structure``."""
    path = tmp_path / "out.json"
    assert cli.main(["--json", str(path), "export", what]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == out_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha


def test_errata_output_is_pinned(tmp_path, capsys):
    """SHA-256 of stdout and --json of ``--json PATH errata``: every printed
    formula deviation, the two elimination sign slips among them."""
    path = tmp_path / "errata.json"
    assert cli.main(["--json", str(path), "errata"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "a164b07d26ab5de3db2fce6257225e9a5afc09d2d812f33e07a865185da8333e"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6c6692041608c8ee30418d8cf074ef3c799904690ae1662a4fe6a687528393f2"
    )


def test_singular_fails_when_products_do_not_span(monkeypatch, capsys):
    monkeypatch.setattr(representation, "products_span_kernels", lambda report: False)
    assert cli.main(["singular", "--degree", "2"]) == 1
    out = capsys.readouterr().out
    assert "generator products span the kernels: FAIL" in out
    assert "singular check: FAIL" in out


def test_identity_fails_on_a_wrong_series_coefficient(monkeypatch, tmp_path, capsys):
    exact = dimensions.rhs_series

    def off_by_one(order):
        coeffs = list(exact(order).coeffs)
        coeffs[5] += 1
        return dimensions.TruncatedSeries(order, tuple(coeffs))

    monkeypatch.setattr(dimensions, "rhs_series", off_by_one)
    path = tmp_path / "identity.json"
    assert cli.main(["identity", "--order", "30", "--json", str(path)]) == 1
    out = capsys.readouterr().out
    assert "product equals 1 + 2t + 2t^2 + t^3: FAIL" in out
    assert "identity: FAIL" in out
    payload = json.loads(path.read_text())
    assert payload["pass"] is False
    assert payload["first_mismatch"] == 5


@pytest.mark.parametrize("module", ["f4poly", "f4poly.cli"])
def test_runs_as_module(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, "dim", "0", "1"], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "26\n", "")


# Prints, after the statement, the f4poly modules that a fresh interpreter loaded,
# and fractions and decimal if they were loaded: the coefficients are integers, so
# no command loads them.
LOADED = """
import contextlib, io, sys
from f4poly import cli
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
names = (n for n in sys.modules if n.startswith("f4poly") or n in ("fractions", "decimal"))
print(" ".join(sorted(names)))
"""


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("pass", {"f4poly", "f4poly.cli"}),
        ("cli.main(['identity', '--order', '3'])", {"f4poly", "f4poly.cli", "f4poly.dimensions"}),
        ("cli.main(['branch', '--degree', '2'])", {"f4poly", "f4poly.cli", "f4poly.dimensions"}),
        ("cli.main(['dim', '0', '1'])", {"f4poly", "f4poly.cli", "f4poly.dimensions"}),
        ("cli.main(['export', 'roots'])", {"f4poly", "f4poly.cli", "f4poly.lattice"}),
        (
            "cli.main(['export', 'structure'])",
            {"f4poly", "f4poly.cli", "f4poly.algebra", "f4poly.lattice", "f4poly.linalg"},
        ),
        # The construction commands compile no transcribed table or printed formula.
        ("cli.main(['singular', '--degree', '2'])", MODULES - {"f4poly.checks", "f4poly.errata"}),
        ("cli.main(['harmonic', '--degree', '2'])", MODULES - {"f4poly.checks", "f4poly.errata"}),
        ("cli.main(['verify', 'all'])", MODULES),
        ("cli.main(['errata'])", MODULES - {"f4poly.checks"}),
        # The bench child's path: import f4poly.cli, then f4poly.representation.
        (
            "import f4poly; f4poly.representation.laplacian_commutes_on_degree(1)",
            MODULES - {"f4poly.checks", "f4poly.errata"},
        ),
    ],
    ids=[
        "import", "identity", "branch", "dim", "export-roots", "export-structure", "singular",
        "harmonic", "verify-all", "errata", "laplacian",
    ],
)
def test_each_command_imports_only_what_it_runs(statement, loaded):
    result = subprocess.run(
        [sys.executable, "-c", LOADED, statement], capture_output=True, text=True, env=ENV
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert set(result.stdout.split()) == loaded


def test_package_imports_only_the_standard_library():
    """Every absolute import in ``src/f4poly``, at module level or inside a
    function, names a standard-library module; the package's own modules are
    imported relatively."""
    for path in sorted((SRC / "f4poly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_package_imports_submodules_on_first_use():
    """The bench child's path (``import f4poly.cli``, then ``f4poly.representation``),
    ``from f4poly import *`` and an unknown name, each in a fresh interpreter."""
    probe = """
import f4poly.cli
assert callable(f4poly.representation.laplacian_commutes_on_degree)
names = {}
exec("from f4poly import *", names)
assert set(f4poly.__all__) <= names.keys(), names.keys()
try:
    f4poly.nope
except AttributeError as err:
    print(err)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=ENV
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "module 'f4poly' has no attribute 'nope'\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout_path, target",
    [
        (["dim", "0", "1", "--json", "/dev/full"], None, "/dev/full"),
        (["singular", "--degree", "3"], "/dev/full", "stdout"),
    ],
    ids=["report", "stdout"],
)
def test_write_errors_exit_two_with_one_line(argv, stdout_path, target):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout_path or os.devnull, "w") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "f4poly", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert result.returncode == 2
    assert result.stderr == f"f4poly: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_leaves_no_report(tmp_path):
    """A report opened before a failed stdout write is removed, while
    ``--json /dev/full`` leaves the device in place."""
    path = tmp_path / "x.json"
    with open("/dev/full", "w") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "f4poly", "singular", "--degree", "3", "--json", str(path)],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
        )
    assert result.returncode == 2
    assert result.stderr == f"f4poly: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert not path.exists()
    with pytest.raises(SystemExit) as info:
        cli.main(["dim", "0", "1", "--json", "/dev/full"])
    assert info.value.code == 2
    assert stat.S_ISCHR(os.lstat("/dev/full").st_mode)


@pytest.mark.parametrize("via_symlink", [False, True], ids=["file", "symlink"])
def test_raising_handler_leaves_no_report(monkeypatch, tmp_path, via_symlink):
    """An exception out of a handler propagates and removes the report, but
    never a symlink that ``--json`` named, whose target keeps its bytes."""
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    path = tmp_path / "link.json" if via_symlink else target
    if via_symlink:
        path.symlink_to(target)

    def fails(degree):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(representation, "singular_vectors", fails)
    with pytest.raises(RuntimeError, match="handler failed"):
        cli.main(["singular", "--degree", "2", "--json", str(path)])
    assert path.is_symlink() == via_symlink
    assert target.exists() == via_symlink
    if via_symlink:
        assert target.read_text() == "earlier report\n"


@pytest.mark.parametrize("via_symlink", [False, True], ids=["file", "symlink"])
def test_report_replaces_a_longer_earlier_file(tmp_path, capsys, via_symlink):
    """A successful run leaves exactly its report, with no trailing bytes of
    the earlier, longer file."""
    target = tmp_path / "report.json"
    target.write_text("earlier report\n" * 10)
    path = tmp_path / "link.json" if via_symlink else target
    if via_symlink:
        path.symlink_to(target)
    assert cli.main(["dim", "0", "1", "--json", str(path)]) == 0
    capsys.readouterr()
    assert path.is_symlink() == via_symlink
    assert target.read_text() == json.dumps({"rows": [["0", "1", "26"]]}, indent=2) + "\n"


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(["--json", str(path), "verify", "rep"]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["command"] == "verify"
    assert payload["pass"] is True
    assert [suite["suite"] for suite in payload["suites"]] == ["rep"]
    assert all(check["pass"] for check in payload["suites"][0]["checks"])


def test_singular_degree_two(tmp_path, capsys):
    path = tmp_path / "singular.json"
    assert cli.main(["singular", "--degree", "2", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "degree 2: 3 singular dimensions (predicted 3)" in out
    for weight in ("(0,0,0,2)", "(0,0,0,1)", "(0,0,0,0)"):
        assert f"weight {weight}: dim 1" in out
    payload = json.loads(path.read_text())
    assert payload["degree"] == 2
    assert payload["predicted"] == 3
    assert [entry["weight"] for entry in payload["entries"]] == [
        [0, 0, 0, 2],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
    for entry in payload["entries"]:
        assert entry["dim"] == len(entry["basis"]) == 1
        for record in entry["basis"][0]:
            assert len(record["exp"]) == 26
            int(record["num"])
            assert int(record["den"]) >= 1


def test_identity_order_thirty(tmp_path, capsys):
    path = tmp_path / "identity.json"
    assert cli.main(["identity", "--order", "30", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "product coefficients: 1 2 2 1 0" in out
    assert "identity: PASS" in out
    payload = json.loads(path.read_text())
    assert payload["order"] == 30
    assert payload["pass"] is True
    assert payload["first_mismatch"] is None
    assert payload["lhs"][:4] == [1, 26, 350, 3249]
    assert payload["rhs"][:4] == ["1", "26", "350", "3249"]
    assert all(isinstance(c, int) for c in payload["lhs"])
    assert all(isinstance(c, str) for c in payload["rhs"])


def test_dim_prints_the_dimension(tmp_path, capsys):
    path = tmp_path / "dim.json"
    assert cli.main(["dim", "0", "1", "--json", str(path)]) == 0
    assert capsys.readouterr().out == "26\n"
    assert json.loads(path.read_text()) == {"rows": [["0", "1", "26"]]}


def test_branch_compares_with_binomial(capsys):
    assert cli.main(["branch", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "branching sum 3276, monomial count 3276: PASS" in out


def test_harmonic_reports_bound_and_witnesses(capsys):
    assert cli.main(["harmonic", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "summand lower bound 3, verified harmonic witnesses 3: PASS" in out


def test_harmonic_exit_one_on_shortfall(monkeypatch, capsys):
    monkeypatch.setattr(representation, "harmonic_summand_bound", lambda degree: (3, 2))
    assert cli.main(["harmonic", "--degree", "4"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_errata_lists_the_known_deviations(tmp_path, capsys):
    path = tmp_path / "errata.json"
    assert cli.main(["errata", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "operator-table cells differing from the oracle: 4" in out
    assert "E+(0,1,1,0) row 3 col 5: transcribed 1, oracle -1" in out
    assert "quadratic copy 15 mirror rule" in out
    assert "cubic invariant expansion" in out
    assert "invariant second-order operator" in out
    payload = json.loads(path.read_text())
    assert len(payload["operator_table"]) == 4
    assert {record["label"] for record in payload["operator_table"]} == {
        "E+(0,1,1,0)",
        "E-(0,1,1,0)",
    }
    assert len(payload["formulas"]) == 16


def test_export_roots(tmp_path, capsys):
    path = tmp_path / "roots.json"
    assert cli.main(["export", "roots", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert len(payload) == 72
    assert all(len(root) == 6 for root in payload)
    assert all(isinstance(c, int) for root in payload for c in root)


def test_export_structure(tmp_path, capsys):
    path = tmp_path / "structure.json"
    assert cli.main(["export", "structure", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert len(payload) == 2016
    left, right, terms = payload[0]
    assert left[0] in ("h", "e") and right[0] in ("h", "e")
    assert all(len(term) == 2 for term in terms)


def test_usage_errors_exit_two():
    for argv in (
        ["bogus"],
        [],
        ["identity", "--order", "2"],
        ["identity", "--order", str(cli.MAX_IDENTITY_ORDER + 1)],
        ["singular", "--degree", str(cli.MAX_SINGULAR_DEGREE + 1)],
        ["branch", "--degree", str(cli.MAX_BRANCH_DEGREE + 1)],
        ["harmonic", "--degree", "1"],
        ["harmonic", "--degree", str(cli.MAX_HARMONIC_DEGREE + 1)],
        ["dim", "-1", "0"],
        ["verify", "nonsense"],
        ["--json", "/nonexistent/x.json", "dim", "0", "1"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    first_json = tmp_path / "first.json"
    second_json = tmp_path / "second.json"
    assert cli.main(["--seed", "99", "--json", str(first_json), "verify", "rep"]) == 0
    first_out = capsys.readouterr().out
    assert cli.main(["--seed", "99", "--json", str(second_json), "verify", "rep"]) == 0
    second_out = capsys.readouterr().out
    assert first_out == second_out
    assert first_json.read_bytes() == second_json.read_bytes()
