"""Structured pass/fail reports shared by the verification entry points."""

from __future__ import annotations

import json
import sys

# Checks per C-encoder call in Report.json_chunks: about 28 KB of JSON.
JSON_SLICE = 256


class Check:
    """One check.  Its id is held in two parts: a prefix, shared by the checks
    one ``Report.extend`` copied, and a name.  ``Check(check_id, ok, witness)``
    makes a check with no prefix."""

    __slots__ = ("name", "ok", "witness", "prefix")

    def __init__(self, name: str, ok: bool, witness: str = "", prefix: str = ""):
        self.name, self.ok, self.witness, self.prefix = name, ok, witness, prefix

    @property
    def check_id(self) -> str:
        return self.prefix + self.name

    def __repr__(self):
        return f"Check(check_id={self.check_id!r}, ok={self.ok!r}, witness={self.witness!r})"

    def to_json(self) -> dict:
        return {"id": self.prefix + self.name, "ok": self.ok, "witness": self.witness}


class Report:
    """Checks in order.  A sweep repeats a few dozen names and a few hundred
    witness texts thousands of times, so ``add`` interns both (CPython frees
    an interned string once nothing refers to it) and ``extend`` builds each
    distinct joined prefix once."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, check_id: str, ok: bool, witness: str = "") -> Check:
        c = Check(sys.intern(check_id), bool(ok), sys.intern(witness))
        self.checks.append(c)
        return c

    def extend(self, other: "Report", prefix: str = ""):
        """Append other's checks with prefixed ids; no check is ever mutated, so
        without a prefix the same objects are shared, not copied.  The new
        checks are all built before any is appended, so other may be self."""
        if prefix:
            joined = {p: prefix + p for p in {c.prefix for c in other.checks}}
            self.checks.extend(
                [Check(c.name, c.ok, c.witness, joined[c.prefix]) for c in other.checks]
            )
        else:
            self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def vacuous(self) -> bool:
        return not self.checks

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "all_pass": self.passed,
            "vacuous": self.vacuous,
        }

    def json_chunks(self):
        """The text of ``json.dumps(self.to_json(), sort_keys=True)`` in pieces,
        the checks JSON_SLICE at a time, each piece one call of the C encoder."""
        yield f'{{"all_pass": {json.dumps(self.passed)}, "checks": ['
        checks = self.checks
        for start in range(0, len(checks), JSON_SLICE):
            chunk = [c.to_json() for c in checks[start:start + JSON_SLICE]]
            yield (", " if start else "") + json.dumps(chunk, sort_keys=True)[1:-1]
        yield f'], "vacuous": {json.dumps(self.vacuous)}}}'
