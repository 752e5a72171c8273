"""Run every script under ``demos/`` in-process and read its verdicts.

A demo prints "all pass" or "FAILED" per certificate and "verified: True"
or "verified: False" per level map; a run must finish and print no failed
verdict.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [path.stem[:2] for path in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_finishes_with_no_failed_verdict(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "FAIL" not in out
    assert "verified: False" not in out
