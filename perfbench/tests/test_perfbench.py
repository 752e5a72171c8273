"""Self-tests of the benchmark: generators, tracer, gate and metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

NARROW = ["verify", "--json", "--deltas", "35", "--levels", "3", "--places", "p",
          "--sections", "split"]


def _cli(argv):
    r = run.run_process(["-m", "quatorder.cli", *argv])
    return r["rc"], r["stdout"], r["stderr"]


# -- generators ---------------------------------------------------------------


def test_generators_are_deterministic():
    for seed in (0, 7, 123456):
        assert workloads.wide_argv(seed) == workloads.wide_argv(seed)
        assert workloads.wide_argv(seed) == workloads.wide_argv(seed + workloads.WIDE_POOL)
        assert workloads.grid_argv(seed) == ["verify", "--json", "--seed", str(seed)]
        a = list(islice(workloads.call_stream(seed), 100))
        b = list(islice(workloads.call_stream(seed), 100))
        assert a == b
    assert list(islice(workloads.call_stream(1), 40)) != list(islice(workloads.call_stream(2), 40))
    assert len({tuple(workloads.wide_argv(i)) for i in range(workloads.WIDE_POOL)}) == workloads.WIDE_POOL
    wide = workloads.sweep_argvs("wide", 30)
    assert wide == workloads.sweep_argvs("wide", 30)
    assert len({tuple(a) for a in wide}) == workloads.WIDE_GRIDS_PER_RUN
    assert wide[0] == workloads.wide_argv(30) and wide[2] == workloads.wide_argv(0)
    assert workloads.sweep_argvs("grid", 9) == [workloads.grid_argv(9)]


def test_call_blocks_keep_the_command_mix():
    stream = workloads.call_stream(5)
    for _ in range(10):
        block = list(islice(stream, workloads.BLOCK_SIZE))
        counts = {cmd: sum(argv[0] == cmd for argv in block) for cmd in workloads.BLOCK}
        assert counts == workloads.BLOCK


def test_every_drawable_input_is_frozen():
    digests = json.loads((HERE / "frozen" / "calls.json").read_text())["digests"]
    catalogue = workloads.call_catalogue()
    assert {workloads.call_key(a) for argvs in catalogue.values() for a in argvs} == set(digests)
    wide = json.loads((HERE / "frozen" / "wide.json").read_text())
    assert [g["argv"] for g in wide["grids"]] == [
        workloads.wide_argv(i) for i in range(workloads.WIDE_POOL)
    ]


def test_wide_grids_stay_in_their_ranges():
    for index in range(workloads.WIDE_POOL):
        deltas, levels, places = workloads.wide_grid(index)
        assert deltas[0] in workloads.FAMILIES
        assert len(deltas) == len(set(deltas)) == 5
        assert levels[0] == 1 and levels[3] == levels[1] * levels[2]
        assert all(100 < q <= 400 for q in places[:3]) and places[3:] == ["p", "inf"]


# -- tracer -------------------------------------------------------------------


def _snapshot():
    import quatorder.cli  # noqa: F401

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "quatorder" or name.startswith("quatorder.")}
    classes = {}
    for mod_name, qualname, _ in TARGETS:
        if "." in qualname:
            cls = getattr(sys.modules[f"quatorder.{mod_name}"], qualname.split(".")[0])
            classes[cls] = dict(vars(cls))
    return mods, classes


def test_tracer_rebinds_everywhere_and_restores_every_attribute():
    before_mods, before_classes = _snapshot()
    tracer = Tracer().install()
    try:
        import quatorder

        for name in ("split", "verify", "degeneracy", "cli"):
            fn = vars(sys.modules[f"quatorder.{name}"])["build_splitting"]
            assert getattr(fn, "__perfbench_wrapped__", False), name
        assert getattr(quatorder.build_splitting, "__perfbench_wrapped__", False)
        assert getattr(quatorder.QuatElem.__mul__, "__perfbench_wrapped__", False)
        assert getattr(vars(quatorder.AlgebraParams)["create"].__func__,
                       "__perfbench_wrapped__", False)
        rc = quatorder.cli.main(["split", "--delta", "35", "--level", "3", "--place", "11"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.patched == []
    after_mods, after_classes = _snapshot()
    assert before_mods.keys() == after_mods.keys()
    for name, attrs in before_mods.items():
        after = after_mods[name]
        assert attrs.keys() == after.keys()
        assert all(after[k] is v for k, v in attrs.items()), name
    for cls, attrs in before_classes.items():
        after = after_classes[cls]
        assert all(after[k] is v for k, v in attrs.items()), cls

    calls, total, self_s = tracer.stats["split.build_splitting"]
    assert calls == 1 and 0 <= self_s <= total
    assert tracer.stats["numth.PadicNum.__mul__"][0] > 0
    assert tracer.stats["cli.main"][0] == 1
    spans = tracer.spans()
    ids = {s[0] for s in spans}
    assert all(parent == 0 or parent in ids for _, parent, _, _, _ in spans)


# -- gate ---------------------------------------------------------------------


def test_gate_accepts_a_faithful_report_and_rejects_an_injected_fault():
    rc, out, err = _cli(NARROW)
    good = gate.summarize_sweep(rc, out, err)
    expected = {"checks": good["checks"], "idok_sha256": good["idok_sha256"],
                "failing": good["failing"]}
    assert rc == 0 and good["failing"] == []
    assert gate.judge_sweep(good, expected)["ok"]

    bad = gate.summarize_sweep(*_cli([*NARROW, "--inject-at-p-sign-flip"]))
    verdict = gate.judge_sweep(bad, expected)
    assert bad["rc"] == 1 and bad["failing"]
    assert not verdict["ok"]
    assert verdict["failed_checks"] == len(bad["failing"]) > 0
    assert verdict["deviations"] > 0


def test_gate_rejects_tampered_and_broken_outputs():
    rc, out, err = _cli(NARROW)
    good = gate.summarize_sweep(rc, out, err)
    expected = {"checks": good["checks"], "idok_sha256": good["idok_sha256"], "failing": []}

    report = json.loads(out)
    report["verification"]["checks"][3]["ok"] = False
    tampered = gate.summarize_sweep(0, json.dumps(report), "")
    assert not gate.judge_sweep(tampered, expected)["ok"]

    report = json.loads(out)
    report["verification"]["checks"].pop()
    assert not gate.judge_sweep(gate.summarize_sweep(0, json.dumps(report), ""), expected)["ok"]

    for rc_bad, text, stderr in ((3, "", "error: unsupported"), (0, "{", ""),
                                 (1, out, "Traceback (most recent call last):\n")):
        verdict = gate.judge_sweep(gate.summarize_sweep(rc_bad, text, stderr), expected)
        assert not verdict["ok"] and verdict["failed_checks"] == expected["checks"]

    argv = ["psi", "--delta", "35", "--src", "9", "--dst", "3", "--json"]
    call = gate.summarize_call(*_cli(argv))
    digest = call["digest"]
    assert gate.judge_call(call, digest)["ok"]
    payload = json.loads(_cli(argv)[1])
    payload["psi"]["beta"] = "1"
    assert not gate.judge_call(gate.summarize_call(0, json.dumps(payload), ""), digest)["ok"]
    assert not gate.judge_call(gate.summarize_call(2, "", "error: bad"), digest)["ok"]
    assert not gate.judge_call(call, None)["ok"]


# -- metric names -------------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_manifest():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layer = [m["name"] for m in bench["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in bench["workloads"]]:
        assert pattern.fullmatch(name) and len(name) <= 64, name
    assert len(set(declared_e2e + declared_layer)) == len(declared_e2e) + len(declared_layer)

    traced = inproc.drive([["construct", "--delta", "35", "--level", "3", "--json"]],
                          "call", traced=True, spans_out=None)
    produced = set(traced["metrics"]) | set(inproc.microbench()["metrics"])
    produced |= {f"{layer}.share" for layer in traced["layer_self_s"]}
    produced |= {"trace.overhead_s", "trace.wall_s", "cli.interp_ms"}
    assert produced == set(declared_layer)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
