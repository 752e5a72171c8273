"""Correctness gate for benchmark runs.

A ``verify`` process counts only if it exited 0 or 1, printed JSON that
parses, and its list of ``(check id, ok)`` pairs equals the list frozen for
that workload and seed.  A single-object call counts only if it exited 0 and
its output digest equals the frozen one.  Exit codes 2, 3 and 4, a
traceback, or unparsable output fail every operation of the process.

``summarize_*`` reduce one program output to a small dict (so an in-process
child can hand it to the parent); ``judge_*`` compare a summary with the
frozen expectation.
"""

from __future__ import annotations

import hashlib
import json

SWEEP_EXIT_OK = (0, 1)


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _traceback(stderr: str) -> str:
    return "traceback" if "Traceback (most recent call last)" in stderr else ""


def summarize_sweep(rc: int, stdout: str, stderr: str) -> dict:
    """Digest of one ``verify --json`` output.

    ``checks_sha256`` hashes the canonical ``checks`` list, witnesses
    included, so a later change can show the report is byte-identical.
    ``idok_sha256`` hashes only the ``(id, ok)`` pairs, which the gate uses.
    """
    out = {"rc": rc, "error": _traceback(stderr)}
    if out["error"]:
        return out
    if rc not in SWEEP_EXIT_OK:
        out["error"] = f"exit code {rc}"
        return out
    try:
        checks = json.loads(stdout)["verification"]["checks"]
        idok = [[c["id"], c["ok"]] for c in checks]
    except (ValueError, KeyError, TypeError) as exc:
        out["error"] = f"unparsable report: {exc.__class__.__name__}"
        return out
    failing = [cid for cid, ok in idok if not ok]
    out.update(
        checks=len(idok),
        failing=failing,
        checks_sha256=sha256_json(checks),
        idok_sha256=sha256_json(idok),
    )
    return out


def judge_sweep(summary: dict, expected: dict) -> dict:
    """Gate one sweep summary against its frozen expectation.

    Returns ``attempted`` (checks expected), ``failed_checks`` (checks that
    reported ok = false; every check when the process itself failed) and
    ``deviations`` (checks whose outcome differs from the frozen one; every
    check when only the ids or their order differ).
    """
    n = expected["checks"]
    if summary.get("error"):
        return {"ok": False, "reason": summary["error"], "attempted": n,
                "failed_checks": n, "deviations": n}
    failed = len(summary["failing"])
    if summary["idok_sha256"] == expected["idok_sha256"]:
        return {"ok": True, "reason": "", "attempted": n,
                "failed_checks": failed, "deviations": 0}
    if summary["checks"] != n:
        return {"ok": False, "reason": f"{summary['checks']} checks, expected {n}",
                "attempted": n, "failed_checks": failed, "deviations": n}
    dev = len(set(summary["failing"]) ^ set(expected["failing"])) or n
    return {"ok": False, "reason": "(id, ok) list differs from the frozen one",
            "attempted": n, "failed_checks": failed, "deviations": dev}


def call_digest(payload: dict) -> str:
    """Digest of a single-object ``--json`` output.

    Covers the constructed object and the ``(id, ok)`` outcome of every
    check; witness texts are left out.
    """
    body = dict(payload)
    verification = body.pop("verification", None)
    if verification is not None:
        body["checks"] = [[c["id"], c["ok"]] for c in verification["checks"]]
    return sha256_json(body)


def summarize_call(rc: int, stdout: str, stderr: str) -> dict:
    out = {"rc": rc, "error": _traceback(stderr)}
    if out["error"]:
        return out
    if rc != 0:
        out["error"] = f"exit code {rc}"
        return out
    try:
        out["digest"] = call_digest(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        out["error"] = f"unparsable output: {exc.__class__.__name__}"
    return out


def judge_call(summary: dict, expected_digest: str | None) -> dict:
    if summary.get("error"):
        return {"ok": False, "reason": summary["error"]}
    if expected_digest is None:
        return {"ok": False, "reason": "call not in the frozen catalogue"}
    if summary["digest"] != expected_digest:
        return {"ok": False, "reason": "output differs from the frozen digest"}
    return {"ok": True, "reason": ""}
