"""Pin the full default ``verify --json`` report and single-object outputs.

The benchmark gate compares only (id, ok) pairs, so a refactor that changes
a witness string would pass it.  The grid tests hash the whole ``checks``
list with the benchmark's own ``sha256_json`` and compare it with the digest
frozen in ``perfbench/frozen/grid.json`` (the default sweep) and
``perfbench/frozen/wide.json`` (two large-coefficient sweeps).  The default
sweep with the at-p fault injected is pinned whole, by the SHA-256 of its
stdout.  The last tests
replay single-object ``--json`` calls (every ``split``, ``degeneracy`` and
``chain`` call of ``perfbench/frozen/calls.json`` and one call per other
command and discriminant) and compare them with that catalogue using the
gate's ``call_digest``, and three q = 2 splittings, which the catalogue
lacks, with digests pinned here.  The frozen files are read, never written.
"""

import hashlib
import importlib.util
import json
from math import gcd
from pathlib import Path

import pytest

from quatorder.cli import main
from quatorder.verify import DEFAULT_DELTAS, DEFAULT_LEVELS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LOW_PRECISION_SHA256 = "60bca82cf07f084bc5a3044917597fcd4d58f41114555799ec11eab5f1cb1d20"
FAULT_REPORT_SHA256 = "d865c34bafd26b864496d8b59ef9a9cf0fbda4d782e6d8aaf2ff32d2f3975e64"


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


def test_injected_fault_report_is_byte_identical(capsys):
    """Every model at p built on the wrong root of -dn: which checks fail,
    with every witness, id and verdict of the report."""
    code = main(["verify", "--json", "--inject-at-p-sign-flip"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == FAULT_REPORT_SHA256


# The frozen ``wide`` grid with the largest auxiliary prime of the pool:
# p = 9413 at Δ = 169267637 with N = 131 and N = 7991, so the archimedean and
# at-p models run on a four-digit p and a thirteen-digit ΔN.  No grid of the
# pool has a ramified place (its places are primes from 101 to 400).
WIDE_PIN = 23
# The frozen grid of ``--seed 2``, the heaviest integer arithmetic of seeds 1-4:
# Δ = 10795357823 and N = 51761 = 191·271 with place 389; its sweep makes
# about 13,000 primality tests and HNFs with entries up to about 10^36.
WIDE_HEAVY_PIN = 2


def replay_wide_grid(capsys, index: int) -> list:
    grid = json.loads((PERFBENCH / "frozen" / "wide.json").read_text())["grids"][index]
    code = main(grid["argv"])
    out = capsys.readouterr().out
    assert code == grid["rc"]
    checks = json.loads(out)["verification"]["checks"]
    assert len(checks) == grid["checks"]
    assert _load_gate().sha256_json(checks) == grid["checks_sha256"]
    return checks


def test_wide_grid_report_is_byte_identical(capsys):
    checks = replay_wide_grid(capsys, WIDE_PIN)
    assert any(".q9413." in c["id"] for c in checks)
    assert any(".inf." in c["id"] for c in checks)


def test_heaviest_wide_grid_report_is_byte_identical(capsys):
    checks = replay_wide_grid(capsys, WIDE_HEAVY_PIN)
    assert any(".q389." in c["id"] for c in checks)


def _pinned_calls():
    """Every frozen split call, and one frozen call per other (command,
    discriminant), with its digest.

    Each other group takes its lower-median call in catalogue order; that
    choice reaches every degeneracy case and the auxiliary and at-p chains.
    """
    digests = json.loads((PERFBENCH / "frozen" / "calls.json").read_text())["digests"]
    picks, groups = [], {}
    for key in digests:
        argv = key.split()
        if argv[0] == "split":
            picks.append(key)
            continue
        flag = "--delta" if "--delta" in argv else "--deltas"
        groups.setdefault((argv[0], argv[argv.index(flag) + 1]), []).append(key)
    picks += [keys[(len(keys) - 1) // 2] for keys in groups.values()]
    return [pytest.param(key, digests[key], id=key) for key in picks]


def _split_pins():
    """q = 2, which the catalogue never reaches.  There the order basis has
    denominator 2, which costs a q-adic model one digit and makes the
    rational model divide its integer combinations by 2.  The printed
    entries are the stated i, j and k and the witnesses, each an integer
    times a unit root, so none has negative valuation; the digests fix every
    one of them."""
    return [
        pytest.param(  # rational model
            "split --delta 1 --level 1 --json --place 2",
            "91e8ff4ce85f14d075dfc278f04b4791b30584ecd2e8f08f021544f006e8230a",
            id="split --delta 1 --level 1 --json --place 2",
        ),
        pytest.param(  # ramified model
            "split --delta 6 --level 5 --json --place 2",
            "2970384dafb137df1a2198e5839ffc747b7453b526746bdcd6c03b4c81cbabc0",
            id="split --delta 6 --level 5 --json --place 2",
        ),
        pytest.param(  # unramified square model
            "split --delta 15 --level 1 --json --place 2",
            "301596143a3edef0456f024e7ba179c225560beca0a97d772755b1e22b2cc052",
            id="split --delta 15 --level 1 --json --place 2",
        ),
    ]


@pytest.mark.parametrize("key, digest", _pinned_calls() + _split_pins())
def test_single_object_output_matches_frozen_digest(capsys, key, digest):
    code = main(key.split())
    out = capsys.readouterr().out
    assert code == 0
    assert _load_gate().call_digest(json.loads(out)) == digest


def test_every_degeneracy_and_chain_call_matches_frozen_digest(capsys):
    """All 204 ``degeneracy`` and 24 ``chain`` calls of the catalogue, in one
    loop: their closure and ring checks and their witnesses."""
    digests = json.loads((PERFBENCH / "frozen" / "calls.json").read_text())["digests"]
    gate = _load_gate()
    keys = [key for key in digests if key.split()[0] in ("degeneracy", "chain")]
    assert len(keys) == 228
    mismatched = []
    for key in keys:
        code = main(key.split())
        out = capsys.readouterr().out
        if code != 0 or gate.call_digest(json.loads(out)) != digests[key]:
            mismatched.append(key)
    assert mismatched == []


def _low_precision_argvs() -> list:
    """Every ramified ``split`` call of the default grid at precision 1-4,
    at each place 2-17 that divides delta, then one real-place call per
    algebra of the grid with delta > 1."""
    pairs = [(d, n) for d in DEFAULT_DELTAS for n in DEFAULT_LEVELS if d > 1 and gcd(d, n) == 1]
    argvs = [
        f"split --delta {d} --level {n} --json --place {q} --precision {k}"
        for d, n in pairs
        for q in (2, 3, 5, 7, 11, 13, 17)
        if d % q == 0
        for k in range(1, 5)
    ]
    return argvs + [f"split --delta {d} --level {n} --json --place inf" for d, n in pairs]


def test_low_precision_pair_models_replay_byte_identically(capsys):
    """The quadratic-pair models where k is smallest, which the frozen call
    digests (all at k = 20) do not reach: one SHA-256 over each call's argv,
    exit code, stdout and stderr.  At k = 1 a ramified q = 2 leaves no digit
    to assert and exits 4."""
    digest, codes = hashlib.sha256(), []
    argvs = _low_precision_argvs()
    for argv in argvs:
        code = main(argv.split())
        captured = capsys.readouterr()
        codes.append(code)
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode() + b"\n")
    assert len(argvs) == 396
    assert (codes.count(0), codes.count(4)) == (365, 31)
    assert digest.hexdigest() == LOW_PRECISION_SHA256
