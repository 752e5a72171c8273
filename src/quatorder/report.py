"""Structured pass/fail reports shared by the verification entry points."""

from __future__ import annotations

import json

# Checks per C-encoder call in Report.json_chunks: about 28 KB of JSON.
JSON_SLICE = 256


class Check:
    __slots__ = ("check_id", "ok", "witness")

    def __init__(self, check_id: str, ok: bool, witness: str = ""):
        self.check_id, self.ok, self.witness = check_id, ok, witness

    def __repr__(self):
        return f"Check(check_id={self.check_id!r}, ok={self.ok!r}, witness={self.witness!r})"

    def to_json(self) -> dict:
        return {"id": self.check_id, "ok": self.ok, "witness": self.witness}


class Report:
    __slots__ = ("checks",)

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, check_id: str, ok: bool, witness: str = "") -> Check:
        c = Check(check_id, bool(ok), witness)
        self.checks.append(c)
        return c

    def extend(self, other: "Report", prefix: str = ""):
        """Append other's checks with prefixed ids; no check is ever mutated, so
        without a prefix the same objects are shared, not copied."""
        if prefix:
            self.checks.extend(Check(prefix + c.check_id, c.ok, c.witness) for c in other.checks)
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
