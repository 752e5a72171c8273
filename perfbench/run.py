"""quatorder benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {grid,wide,calls} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The program under test is ``src/quatorder``,
started as ``python -m quatorder.cli`` with ``PYTHONPATH=src``; nothing is
installed.  One client drives the program in a closed loop, one program
process at a time, each started by ``launcher.py``.

``--trace 0`` measures the end-to-end metrics with tracing off: program
processes until ``--seconds`` have passed, with set-up samples (a fresh
interpreter importing ``quatorder.cli``) and reference processes
(``reference.py``) in between.  ``--trace 1`` measures the per-layer
metrics: primitive microbenchmarks, then pairs of untraced and traced
in-process passes over the same argvs (see ``inproc.py``).

Every program output goes through the correctness gate (``gate.py``).  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (argvs, samples, environment) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FROZEN = HERE / "frozen"

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

PROCESS_TIMEOUT_S = 150
INTERP_SAMPLES = 5
MIN_CALL_BLOCKS = 5  # 100 calls, enough for a p90 with ten samples above it
TRACE_CALL_BLOCKS = 2
# End-to-end times are scaled to a machine on which reference.py takes this
# long; see reference.py.  Sweeps run REFERENCES_PER_SWEEP references after
# each sweep and are scaled by the two that bracket them: the machine's speed
# changes within seconds, and wider windows measured worse.  Calls run one
# reference after each call and are scaled, like set-up samples, by the
# median of the REFERENCE_WINDOW_CALLS around them.
REFERENCE_NOMINAL_S = 0.1
REFERENCES_PER_SWEEP = 2
REFERENCE_WINDOW_SWEEP = 2
REFERENCE_WINDOW_CALLS = 7


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("QUATORDER_PRECISION", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The helper process (``launcher.py``) that starts every program process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=program_env(), cwd=ROOT,
        )

    def run(self, args: list[str]) -> dict:
        OUT.mkdir(exist_ok=True)
        out_path = OUT / f"proc-{os.getpid()}.stdout"
        err_path = OUT / f"proc-{os.getpid()}.stderr"
        self.proc.stdin.write(json.dumps({
            "args": [sys.executable, *args], "stdout": str(out_path),
            "stderr": str(err_path), "timeout": PROCESS_TIMEOUT_S,
        }) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the launcher process died")
        reply = json.loads(line)
        result = {
            "rc": reply["rc"],
            "wall_s": reply["wall_s"],
            "t_mid": reply["t0"] + reply["wall_s"] / 2,
            "rss_mb": reply["maxrss_kb"] / 1024,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
        }
        out_path.unlink()
        err_path.unlink()
        return result

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        self.proc.stdout.close()


_launcher = None


def run_process(args: list[str]) -> dict:
    """Run ``python <args>`` to completion: wall time, and peak RSS from wait4."""
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(_launcher.close)
    return _launcher.run(args)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(nproc: int, load_before) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def load_frozen(workload: str, seed: int):
    """Frozen digests per call (calls), or expectations aligned with sweep_argvs."""
    data = json.loads((FROZEN / f"{workload}.json").read_text())
    if workload == "calls":
        return data["digests"]
    if workload == "grid":
        return [data]
    by_argv = {workloads.call_key(g["argv"]): g for g in data["grids"]}
    return [by_argv[workloads.call_key(a)] for a in workloads.sweep_argvs(workload, seed)]


# -- trace 0: end-to-end metrics ----------------------------------------------


class Rounds:
    """Closed-loop rounds with the machine-speed samples interleaved.

    Each round runs the workload's program processes, then one set-up
    sample, one bare interpreter start and reference processes, so every
    kind of sample is spread over the whole run.  A wall time is scaled by
    the reference walls measured nearest to it in time, which cancels drift
    within a run as well as between runs.
    """

    def __init__(self):
        self.reference, self.setup, self.interp, self.durations = [], [], [], []

    def run(self, seconds: float, min_rounds: int, body, references: int) -> None:
        start = time.perf_counter()
        while len(self.durations) < min_rounds or (
            time.perf_counter() - start + statistics.median(self.durations) <= seconds
        ):
            t0 = time.perf_counter()
            body(self)
            self.setup.append(checked(["-c", "import quatorder.cli"]))
            self.interp.append(checked(["-c", "pass"])[1])
            self.sample_reference(references)
            self.durations.append(time.perf_counter() - t0)

    def sample_reference(self, n: int) -> None:
        for _ in range(n):
            self.reference.append(checked([str(HERE / "reference.py")]))

    def scaled(self, t_mid: float, wall: float, k: int) -> float:
        """Scale by the median of k references around t_mid, half of them before."""
        before = [ref for ref in self.reference if ref[0] < t_mid][-(k // 2):]
        after = [ref for ref in self.reference if ref[0] > t_mid][: k - len(before)]
        return wall * REFERENCE_NOMINAL_S / statistics.median(w for _, w in before + after)


def checked(args: list[str]) -> tuple[float, float]:
    """(midpoint time, wall) of a helper process that must succeed."""
    r = run_process(args)
    if r["rc"] != 0:
        raise SystemExit(f"python {' '.join(args)} failed: {r['stderr'][-500:]}")
    return r["t_mid"], r["wall_s"]


def measure_sweeps(workload: str, seed: int, seconds: float, expected: list) -> dict:
    argvs = workloads.sweep_argvs(workload, seed)
    samples = []

    def body(rounds):
        i = len(samples) % len(argvs)
        r = run_process(["-m", "quatorder.cli", *argvs[i]])
        summary = gate.summarize_sweep(r["rc"], r["stdout"], r["stderr"])
        samples.append({
            "argv": argvs[i], "t_mid": r["t_mid"], "wall_s": r["wall_s"],
            "rss_mb": r["rss_mb"], "rc": r["rc"],
            "checks_sha256": summary.get("checks_sha256"),
            "failing": summary.get("failing"), **gate.judge_sweep(summary, expected[i]),
        })

    rounds = Rounds()
    rounds.run(seconds, 1, body, REFERENCES_PER_SWEEP)
    for s in samples:
        s["scaled_s"] = rounds.scaled(s["t_mid"], s["wall_s"], REFERENCE_WINDOW_SWEEP)
    attempted = sum(s["attempted"] for s in samples)
    return {
        "argvs": argvs, "samples": samples, "rounds": rounds,
        "correct": all(s["ok"] for s in samples),
        "attempted": attempted,
        "failed": sum(s["deviations"] for s in samples),
        "fail_ratio": sum(s["failed_checks"] for s in samples) / attempted,
        "sweeps": samples, "unit": "check",
    }


def measure_calls(seed: int, seconds: float, expected: dict) -> dict:
    stream = workloads.call_stream(seed)
    samples = []

    def body(rounds):
        for _ in range(workloads.BLOCK_SIZE):
            argv = next(stream)
            r = run_process(["-m", "quatorder.cli", *argv])
            summary = gate.summarize_call(r["rc"], r["stdout"], r["stderr"])
            verdict = gate.judge_call(summary, expected.get(workloads.call_key(argv)))
            samples.append({"argv": argv, "t_mid": r["t_mid"], "wall_s": r["wall_s"],
                            "rss_mb": r["rss_mb"], "rc": r["rc"], **verdict})
            rounds.sample_reference(1)

    rounds = Rounds()
    rounds.run(seconds, MIN_CALL_BLOCKS, body, 0)
    for s in samples:
        s["scaled_s"] = rounds.scaled(s["t_mid"], s["wall_s"], REFERENCE_WINDOW_CALLS)
    n = workloads.BLOCK_SIZE
    blocks = [
        {key: sum(s[key] for s in samples[i:i + n]) for key in ("wall_s", "scaled_s")}
        for i in range(0, len(samples), n)
    ]
    failed = sum(not s["ok"] for s in samples)
    return {
        "samples": samples, "rounds": rounds,
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "fail_ratio": failed / len(samples), "sweeps": blocks, "unit": "call",
    }


def end_to_end(workload: str, seed: int, seconds: float, expected) -> tuple[dict, dict, list]:
    if workload == "calls":
        res = measure_calls(seed, seconds, expected)
    else:
        res = measure_sweeps(workload, seed, seconds, expected)
    rounds = res.pop("rounds")
    sweeps = res.pop("sweeps")
    setups = [(rounds.scaled(t, w, REFERENCE_WINDOW_CALLS), w) for t, w in rounds.setup]
    calls = [(s["scaled_s"] * 1000, s["wall_s"] * 1000) for s in res["samples"]]
    metrics, raw = {}, {}
    for name, unit, pairs, stat in (
        ("sweep_s", "s", [(b["scaled_s"], b["wall_s"]) for b in sweeps], statistics.median),
        ("call_ms_p50", "ms", calls, statistics.median),
        ("call_ms_p90", "ms", calls, p90),
        ("setup_s", "s", setups, statistics.median),
    ):
        metrics[name] = (stat([scaled for scaled, _ in pairs]), unit)
        raw[name] = (stat([wall for _, wall in pairs]), unit)
    ref_median = statistics.median(w for _, w in rounds.reference)
    metrics["peak_rss_mb"] = (statistics.median(s["rss_mb"] for s in res["samples"]), "MB")
    metrics["pass_ratio"] = (1 - res["fail_ratio"], "ratio")
    interp_ms = statistics.median(rounds.interp) * 1000
    res.update(
        raw_metrics={name: value for name, (value, _) in raw.items()},
        reference_walls=[w for _, w in rounds.reference], setup_walls=[w for _, w in setups],
        interp_walls=rounds.interp,
    )
    if workload == "calls":
        res["blocks"] = sweeps
    res["cli.interp_ms"] = interp_ms
    what = ("one verify process" if workload != "calls"
            else f"one block of {workloads.BLOCK_SIZE} calls")
    lines = [
        f"reference    {ref_median * 1000:.2f} ms median of {len(rounds.reference)}; times "
        f"below are scaled by the nearest references to {REFERENCE_NOMINAL_S} s (raw in brackets)",
    ]
    for name, note in (
        ("sweep_s", f"{what}, median"),
        ("call_ms_p50", f"n={len(calls)} processes"),
        ("call_ms_p90", f"n={len(calls)} processes"),
        ("setup_s", f"median of {len(rounds.setup)} imports of quatorder.cli"),
    ):
        value, unit = metrics[name]
        lines.append(f"{name:12s} {value:.4f} {unit}  [{raw[name][0]:.4f}]  ({note})")
    lines += [
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB  (median over processes)",
        f"fail_ratio   {res['fail_ratio']:.6f}  ({res['unit']}s failed / attempted)",
        f"pass_ratio   {1 - res['fail_ratio']:.6f}",
        f"cli.interp_ms {interp_ms:.2f} ms  (bare python -c pass, median of {len(rounds.interp)})",
    ]
    if workload != "calls":
        for first in res["samples"][: len(res["argvs"])]:
            lines.append("argv         quatorder " + " ".join(first["argv"]))
            lines.append(f"checks       {first['attempted']}  sha256 {first['checks_sha256']}")
            if first["failing"]:
                lines.append(f"failing ids  {len(first['failing'])}: " + " ".join(first["failing"]))
    for s in [s for s in res["samples"] if not s["ok"]][:5]:
        lines.append(f"GATE FAIL    {s['reason']}  ({' '.join(s['argv'])})")
    return metrics, res, lines


# -- trace 1: per-layer metrics -----------------------------------------------


def run_child(spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    spec_path = OUT / f"inproc-spec-{os.getpid()}.json"
    spec_path.write_text(json.dumps(spec))
    r = run_process([str(HERE / "inproc.py"), str(spec_path)])
    if r["rc"] != 0:
        raise SystemExit(f"in-process pass failed ({spec['mode']}): {r['stderr'][-2000:]}")
    return json.loads(r["stdout"].splitlines()[-1])


def per_layer(workload: str, seed: int, seconds: float, expected) -> tuple[dict, dict, list]:
    start = time.perf_counter()
    if workload == "calls":
        stream = workloads.call_stream(seed)
        argvs = [next(stream) for _ in range(TRACE_CALL_BLOCKS * workloads.BLOCK_SIZE)]
        kind = "call"
    else:
        # One verify process: the seed's own grid.
        argvs, expected = workloads.sweep_argvs(workload, seed)[:1], expected[0]
        kind = "sweep"
    spans_out = str(OUT / f"spans-{workload}-seed{seed}.jsonl")

    interp_ms = statistics.median(checked(["-c", "pass"])[1] for _ in range(INTERP_SAMPLES)) * 1000
    micro = run_child({"mode": "micro"})["metrics"]
    passes = {"plain": [], "traced": []}
    plain, traced = passes["plain"], passes["traced"]
    while not traced or time.perf_counter() - start + plain[-1]["wall_s"] + traced[-1]["wall_s"] <= seconds:
        # Alternate which side goes first, so drift in the machine hits both.
        for mode in ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain"):
            passes[mode].append(run_child({"mode": mode, "kind": kind, "argvs": argvs,
                                           "spans_out": spans_out}))

    verdicts = []
    for one_pass in plain + traced:
        for argv, summary in zip(argvs, one_pass["summaries"]):
            if kind == "sweep":
                verdicts.append(gate.judge_sweep(summary, expected))
            else:
                verdicts.append(gate.judge_call(summary, expected.get(workloads.call_key(argv))))

    metrics = {}
    for name in traced[0]["metrics"]:
        value = statistics.median(t["metrics"][name] for t in traced)
        metrics[name] = (value, "count" if name.endswith(".calls") else "s")
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    for layer in LAYERS:
        share = statistics.median(t["layer_self_s"][layer] / t["wall_s"] for t in traced)
        metrics[f"{layer}.share"] = (share, "ratio")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    for name, value in micro.items():
        metrics[name] = (value, "us")

    if kind == "sweep":
        attempted = sum(v["attempted"] for v in verdicts)
        failed = sum(v["deviations"] for v in verdicts)
    else:
        attempted, failed = len(verdicts), sum(not v["ok"] for v in verdicts)
    res = {
        "argvs": argvs, "correct": all(v["ok"] for v in verdicts),
        "attempted": attempted, "failed": failed,
        "passes": len(traced), "plain_walls": [p["wall_s"] for p in plain],
        "traced_walls": [t["wall_s"] for t in traced], "spans": traced[-1]["spans"],
        "spans_file": os.path.relpath(spans_out, ROOT), "cli.interp_ms": interp_ms,
    }
    lines = [
        f"traced passes {len(traced)}  untraced wall {plain_wall:.4f} s  traced wall "
        f"{traced_wall:.4f} s  overhead {traced_wall - plain_wall:.4f} s",
        "layer shares of traced wall: " + ", ".join(
            f"{layer} {metrics[f'{layer}.share'][0]:.3f}" for layer in LAYERS),
        f"spans        {res['spans']} written to {res['spans_file']}",
    ]
    return metrics, res, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quatorder" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'quatorder'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    cpus = os.sched_getaffinity(0)
    # The vCPUs of a shared machine slow down independently of each other, so
    # the program and the reference processes that scale its times must run
    # on the same one.  Children inherit this.
    os.sched_setaffinity(0, {min(cpus)})
    expected = load_frozen(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, res, lines = measure(args.workload, args.seed, args.seconds, expected)
    env = environment(len(cpus), load_before)
    env["cli.interp_ms"] = res.pop("cli.interp_ms")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, **res,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    for line in lines:
        print(line)
    print(f"correct {res['correct']}  attempted {res['attempted']}  failed {res['failed']}  "
          f"record {os.path.relpath(out_file, ROOT)}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
