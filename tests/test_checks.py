"""Every named check of every verification suite passes under the CLI's default seed."""

from __future__ import annotations

import random

import pytest

from f4poly import checks, cli


@pytest.mark.parametrize("name, run", checks.SUITES, ids=[name for name, _ in checks.SUITES])
def test_suite_passes(name, run):
    results = run(random.Random(cli.DEFAULT_SEED))
    assert [name for name, ok in results if not ok] == []
