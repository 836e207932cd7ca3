"""Every named check of every verification suite passes under the CLI's default seed,
and the lattice sweeps give the expected verdicts under planted faults."""

from __future__ import annotations

import random

import pytest

from f4poly import checks, cli, lattice


@pytest.mark.parametrize("name, run", checks.SUITES, ids=[name for name, _ in checks.SUITES])
def test_suite_passes(name, run):
    results = run(random.Random(cli.DEFAULT_SEED))
    assert [name for name, ok in results if not ok] == []


def _moved_image(k, shift):
    """The diagram involution with the image of root k moved by a lattice vector."""
    exact, root = lattice.diagram_involution, lattice.all_roots()[k]
    return lambda v: lattice.add(exact(v), shift) if v == root else exact(v)


def _negated_pair(a, b):
    """The cocycle with its value on the ordered root pair (a, b) negated."""
    exact, roots = lattice.cocycle, lattice.all_roots()
    return lambda u, v: -exact(u, v) if (u, v) == (roots[a], roots[b]) else exact(u, v)


A1, A6 = lattice.simple_root(1), lattice.simple_root(6)


# Each verdict tuple is what evaluating both forms afresh for every pair gives.
# A shift by 2*alpha6 keeps the mod-2 cocycle but not the inner product, so
# only the isometry check fails.
@pytest.mark.parametrize(
    "name, fault, verdicts",
    [
        ("diagram_involution", _moved_image(10, lattice.add(A6, A6)),
         (True, True, True, True, True, True, False)),
        ("diagram_involution", _moved_image(0, A1), (True, True, True, True, False, True, False)),
        ("cocycle", _negated_pair(3, 50), (True, True, True, False, False, False, True)),
    ],
    ids=["image plus 2 alpha6", "image plus alpha1", "negated cocycle pair"],
)
def test_lattice_sweeps_under_planted_faults(monkeypatch, name, fault, verdicts):
    monkeypatch.setattr(lattice, name, fault)
    results = checks.lattice_checks(random.Random(cli.DEFAULT_SEED))
    assert tuple(ok for _, ok in results) == verdicts


def test_lattice_sweeps_evaluate_the_cocycle_once_per_root_pair(monkeypatch):
    exact, calls = lattice.cocycle, []
    monkeypatch.setattr(lattice, "cocycle", lambda u, v: calls.append(1) or exact(u, v))
    checks.lattice_checks(random.Random(cli.DEFAULT_SEED))
    # 72 * 72 table cells, then 400 seeded triples of six values each.
    assert len(calls) == 72 * 72 + 400 * 6
