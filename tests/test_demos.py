"""Every narrative walkthrough in demos/ prints its pinned stdout
(tests/pins.py's DEMO_SHA256)."""

import hashlib
import runpy
from pathlib import Path

import pins
import pytest

DEMOS = sorted(Path(pins.DEMOS).glob("*.py"))


def test_demos_are_found():
    assert [path.stem for path in DEMOS] == list(pins.DEMO_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pins.DEMO_SHA256[path.stem]
