"""Pin the full default ``verify --json`` report, witnesses included.

The benchmark gate compares only (id, ok) pairs, so a refactor that changes
a witness string would pass it.  This test hashes the whole ``checks`` list
with the benchmark's own ``sha256_json`` and compares it with the digest
frozen in ``perfbench/frozen/grid.json`` (read, never written).
"""

import importlib.util
import json
from pathlib import Path

from quatorder.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_verify_report_is_byte_identical(capsys):
    frozen = json.loads((PERFBENCH / "frozen" / "grid.json").read_text())
    code = main(["verify", "--json"])
    out = capsys.readouterr().out
    assert code == frozen["rc"]
    checks = json.loads(out)["verification"]["checks"]
    assert len(checks) == frozen["checks"]
    assert _load_gate().sha256_json(checks) == frozen["checks_sha256"]
