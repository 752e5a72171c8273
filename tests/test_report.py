"""The report's storage: ids as a shared prefix plus a name, interned texts.

A sweep repeats a few dozen check names and a few hundred witness texts
thousands of times; these tests pin that each such text is held once, that
every id still reads as its prefix joined to its name, and how little memory
a check keeps.
"""

import json
import re
import tracemalloc

import pytest

from quatorder.chains import TRANSVERSE_FAMILIES, verify_chain, verify_chain_family
from quatorder.cli import main
from quatorder.report import Report
from quatorder.verify import run_sweep

SWEEP_PREFIX = re.compile(
    r"split\.delta\d+\.level\d+\.\w+\."
    r"|degeneracy\.delta\d+\.level\d+\.q\d+\."
    r"|psi\.delta\d+\.\d+to\d+\."
    r"|chain\.delta\d+\.(q\d+|family)\."
)


@pytest.fixture(scope="module")
def narrowed():
    # the report of `verify --deltas 35,6 --levels 1,3,9`
    return run_sweep(deltas=(35, 6), levels=(1, 3, 9))


def test_extend_a_report_with_itself():
    report = Report()
    report.add("a", True, "w")
    report.add("b", False)
    report.extend(report, prefix="x.")
    assert [c.check_id for c in report.checks] == ["a", "b", "x.a", "x.b"]
    assert [(c.ok, c.witness) for c in report.checks] == [(True, "w"), (False, "")] * 2
    report.extend(report)
    assert [c.check_id for c in report.checks] == ["a", "b", "x.a", "x.b"] * 2


def test_nested_prefixes_join_in_order():
    leaf = Report()
    leaf.add("closed.rank", True)
    mid = Report()
    mid.extend(leaf, prefix="q11.")
    mid.add("coverage", True)
    top = Report()
    top.extend(mid, prefix="chain.")
    assert [(c.prefix, c.name) for c in top.checks] == [
        ("chain.q11.", "closed.rank"),
        ("chain.", "coverage"),
    ]
    assert [c.check_id for c in top.checks] == ["chain.q11.closed.rank", "chain.coverage"]
    assert [c.check_id for c in leaf.checks] == ["closed.rank"]  # the source is untouched


def test_sweep_holds_each_distinct_text_once(narrowed):
    checks = narrowed.checks
    assert len(checks) == 638
    for field in ("name", "witness", "prefix"):
        values = [getattr(c, field) for c in checks]
        assert len({id(v) for v in values}) == len(set(values)), field


def test_sweep_ids_are_prefix_plus_name(narrowed, capsys):
    for c, entry in zip(narrowed.checks, narrowed.to_json()["checks"], strict=True):
        assert c.prefix == "" or SWEEP_PREFIX.fullmatch(c.prefix), c.prefix
        assert not SWEEP_PREFIX.match(c.name), c.name
        assert c.check_id == c.prefix + c.name
        assert entry == {"id": c.prefix + c.name, "ok": c.ok, "witness": c.witness}
    assert main(["verify", "--deltas", "35,6", "--levels", "1,3,9", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)["verification"]["checks"]
    assert [c["id"] for c in printed] == [c.prefix + c.name for c in narrowed.checks]


@pytest.mark.parametrize("delta", sorted(TRANSVERSE_FAMILIES))
def test_sweep_family_ids_nest_the_family_report(narrowed, delta):
    prefix = f"chain.delta{delta}.family."
    family = verify_chain_family(delta, TRANSVERSE_FAMILIES[delta])
    in_sweep = [c for c in narrowed.checks if c.prefix == prefix]
    assert [c.check_id for c in in_sweep] == [prefix + c.name for c in family.checks]
    assert [(c.ok, c.witness) for c in in_sweep] == [(c.ok, c.witness) for c in family.checks]


def test_chain_family_ids_follow_the_chain_ids(capsys):
    argv = ["chain", "--delta", "35", "--q", "11", "--family", "3,11,13,19", "--json"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["verification"]["checks"]
    _, chain = verify_chain(35, 11)
    family = verify_chain_family(35, (3, 11, 13, 19))
    expected = [c.name for c in chain.checks] + ["family." + c.name for c in family.checks]
    assert [c["id"] for c in printed] == expected
    assert any(i == "family.global.trivial" for i in expected)


def _synthetic_report():
    # 10 x 10 leaves of 100 checks, joined through two prefixed extends; the
    # names and the 10 witness texts are made afresh for every check
    top = Report()
    for a in range(10):
        mid = Report()
        for b in range(10):
            leaf = Report()
            for i in range(100):
                leaf.add(f"check{i % 25}.ok", i % 7 != 3, f"witness number {i % 10} of ten")
            mid.extend(leaf, prefix=f"leaf{b}.")
        top.extend(mid, prefix=f"mid{a}.")
    return top


def test_memory_retained_per_check_is_bounded():
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = _synthetic_report()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(report.checks) == 10_000
    assert len({c.check_id for c in report.checks}) == 10_000 // 4
    # a check, its list slot and the shared texts: about 70 B; a check that
    # owns its id and witness strings keeps more than 200 B
    assert retained / len(report.checks) < 120
