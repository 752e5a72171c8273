"""Run-to-run spread of the end-to-end metrics, against the declared bounds.

    python3 perfbench/spread.py --workload grid --seeds 1-10 [--against FILE]

Runs ``run.py`` once per seed with the ``run_seconds`` of ``BENCHMARK.json``
and prints, per metric, the median of the runs, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, and the metric's bound.  The spread should stay below a
third of the bound.  The result lines are kept in
``perfbench/out/spread-<workload>-<seeds>.jsonl``; ``--against`` an earlier
such file also prints how far this set's median moved from that one's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _medians(lines: list[dict]) -> dict:
    names = lines[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in lines) for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--against", help="an earlier spread-*.jsonl to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    lines = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines.append(json.loads(proc.stdout.splitlines()[-1]))
        print(f"seed {seed}: " + "  ".join(
            f"{n} {v['value']:.5g}" for n, v in lines[-1]["metrics"].items()), flush=True)
    out = HERE / "out" / f"spread-{args.workload}-{args.seeds}.jsonl"
    out.parent.mkdir(exist_ok=True)
    out.write_text("".join(json.dumps(line) + "\n" for line in lines))

    ok = all(line["correct"] for line in lines)
    earlier = None
    if args.against:
        earlier = _medians([json.loads(t) for t in Path(args.against).read_text().splitlines()])
    medians = _medians(lines)
    for name, meta in metrics.items():
        s = spread([r["metrics"][name]["value"] for r in lines])
        flag = "ok" if s < meta["bound"] / 3 else ("WIDE" if s <= meta["bound"] else "OVER")
        msg = f"{name:12s} median {medians[name]:.5g}  spread {s:.4f}  bound {meta['bound']}  {flag}"
        if earlier is not None:
            move = (medians[name] - earlier[name]) / earlier[name]
            if meta["better"] == "higher":
                move = -move
            msg += f"  worse by {move:+.4f}"
        print(msg)
    print(f"all runs correct: {ok}  ({len(lines)} runs, kept in {out.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
