"""Structured pass/fail reports shared by the verification entry points."""

from __future__ import annotations

import json
import sys

# Checks per piece of Report.json_chunks: about 28 KB of JSON.
JSON_SLICE = 256


class Check:
    """One check.  Its id is held in two parts: a prefix, shared by the checks
    one ``Report.extend`` copied, and a name.  ``Check(check_id, ok, witness)``
    makes a check with no prefix."""

    __slots__ = ("name", "ok", "witness", "prefix")

    def __init__(self, name: str, ok: bool, witness: str = "", prefix: str = ""):
        self.name, self.ok, self.witness, self.prefix = name, bool(ok), witness, prefix

    @property
    def check_id(self) -> str:
        return self.prefix + self.name

    def __repr__(self):
        return f"Check(check_id={self.check_id!r}, ok={self.ok!r}, witness={self.witness!r})"


class Report:
    """Checks in order.  A sweep repeats a few dozen names and a few hundred
    witness texts thousands of times, so ``add`` interns both (CPython frees
    an interned string once nothing refers to it) and ``extend`` builds each
    distinct joined prefix once."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, check_id: str, ok: bool, witness: str = "") -> Check:
        c = Check(sys.intern(check_id), ok, sys.intern(witness))
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
        checks = [{"id": c.prefix + c.name, "ok": c.ok, "witness": c.witness} for c in self.checks]
        return {"checks": checks, "all_pass": self.passed, "vacuous": self.vacuous}

    def json_chunks(self):
        """The text of ``json.dumps(self.to_json(), sort_keys=True)`` in pieces,
        one per JSON_SLICE checks, each check written with its keys in sorted
        order.  JSON escapes one code point at a time, so each distinct text is
        escaped once and an id's escape is its prefix's joined to its name's."""
        checks = self.checks
        texts = {t for c in checks for t in (c.prefix, c.name, c.witness)}
        esc = {t: json.dumps(t)[1:-1] for t in texts}
        yield f'{{"all_pass": {json.dumps(self.passed)}, "checks": ['
        for start in range(0, len(checks), JSON_SLICE):
            piece = ", ".join([
                f'{{"id": "{esc[c.prefix]}{esc[c.name]}", "ok": {"true" if c.ok else "false"}, '
                f'"witness": "{esc[c.witness]}"}}'
                for c in checks[start:start + JSON_SLICE]
            ])
            yield (", " if start else "") + piece
        yield f'], "vacuous": {json.dumps(self.vacuous)}}}'
