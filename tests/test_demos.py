"""Run every script under ``demos/`` in-process and read its verdicts.

A demo prints "all pass" or "FAILED" per certificate and "verified: True"
or "verified: False" per level map; a run must finish and print no failed
verdict.  Its whole output is pinned by SHA-256: the demos are
deterministic, so a refactor that keeps every output byte-identical keeps
these digests.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
OUTPUT_SHA256 = {
    "01": "90db57f9fa50f7eb9fede76a422691d422707d1f01bd825b87cdc57cf7f6849f",
    "02": "99821c2cd9880e3e5591e11a7eb2076b2a8be0dd7de2bdfba9ae8d232643f8a3",
    "03": "09c6f9abd21fbb0e70bad304849bae98a2bd8c28ee859e3c8df63ee0e3c5758f",
    "04": "18733cc2359fd0b76c68c04d38e560e422befac00c64bf0d44ac2b6e732ecc30",
    "05": "2ec0b7f670ef738c2cba1f09f2cc9b5e134999050747b8a22226e4bc3c6c03ad",
}


def test_every_demo_is_collected():
    assert [path.stem[:2] for path in DEMOS] == sorted(OUTPUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_finishes_with_no_failed_verdict(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "FAIL" not in out
    assert "verified: False" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[path.stem[:2]]
