"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from f4poly import cli, representation

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


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


@pytest.mark.parametrize("module", ["f4poly", "f4poly.cli"])
def test_runs_as_module(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, "dim", "0", "1"], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "26\n", "")


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
