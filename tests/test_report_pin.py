"""Pin the full default ``verify --json`` report and single-object outputs.

The benchmark gate compares only (id, ok) pairs, so a refactor that changes
a witness string would pass it.  The first test hashes the whole ``checks``
list with the benchmark's own ``sha256_json`` and compares it with the digest
frozen in ``perfbench/frozen/grid.json``.  The second replays single-object
``--json`` calls and compares them with ``perfbench/frozen/calls.json`` using
the gate's ``call_digest``.  Both frozen files are read, never written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def _pinned_calls():
    """One frozen call per (command, discriminant), with its digest.

    Each group takes its lower-median call in catalogue order; that choice
    reaches every degeneracy case, the auxiliary and at-p chains and five of
    the six splitting cases.
    """
    digests = json.loads((PERFBENCH / "frozen" / "calls.json").read_text())["digests"]
    groups = {}
    for key in digests:
        argv = key.split()
        flag = "--delta" if "--delta" in argv else "--deltas"
        groups.setdefault((argv[0], argv[argv.index(flag) + 1]), []).append(key)
    picks = [keys[(len(keys) - 1) // 2] for keys in groups.values()]
    return [pytest.param(key, digests[key], id=key) for key in picks]


@pytest.mark.parametrize("key, digest", _pinned_calls())
def test_single_object_output_matches_frozen_digest(capsys, monkeypatch, key, digest):
    monkeypatch.delenv("QUATORDER_PRECISION", raising=False)
    code = main(key.split())
    out = capsys.readouterr().out
    assert code == 0
    assert _load_gate().call_digest(json.loads(out)) == digest
