"""Regenerate the frozen outcomes the correctness gate compares against.

    python3 perfbench/freeze.py [grid] [wide] [calls]

Runs the program on every input a workload can draw and writes
``perfbench/frozen/<workload>.json``:

* ``grid``  -- check count, ``(id, ok)`` digest and failing ids of the
  default sweep.  Seeds only change sampled witnesses, so one list serves
  every seed; seeds 0 to 2 are run to confirm it.
* ``wide``  -- the same for each of the ``WIDE_POOL`` grids, with its argv.
* ``calls`` -- the output digest of every call in the catalogue.

Run it only when a change is meant to alter program outputs, and say so:
a frozen list that moves is a behaviour change.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import workloads


def _sweep(argv: list[str]) -> dict:
    r = run.run_process(["-m", "quatorder.cli", *argv])
    summary = gate.summarize_sweep(r["rc"], r["stdout"], r["stderr"])
    if summary["error"]:
        raise SystemExit(f"quatorder {' '.join(argv)}: {summary['error']}\n{r['stderr'][-2000:]}")
    return {
        "argv": argv,
        "rc": r["rc"],
        "checks": summary["checks"],
        "idok_sha256": summary["idok_sha256"],
        "checks_sha256": summary["checks_sha256"],
        "failing": summary["failing"],
    }


def freeze_grid() -> dict:
    frozen = _sweep(workloads.grid_argv(0))
    for seed in (1, 2):
        other = _sweep(workloads.grid_argv(seed))
        if other["idok_sha256"] != frozen["idok_sha256"]:
            raise SystemExit(f"grid (id, ok) list depends on the seed ({seed})")
    del frozen["argv"]
    return frozen


def freeze_wide() -> dict:
    grids = []
    for index in range(workloads.WIDE_POOL):
        grids.append(_sweep(workloads.wide_argv(index)))
        g = grids[-1]
        print(f"wide {index}: {g['checks']} checks, {len(g['failing'])} failing", file=sys.stderr)
    return {"pool": workloads.WIDE_POOL, "grids": grids}


def freeze_calls() -> dict:
    digests, errors = {}, []
    for argvs in workloads.call_catalogue().values():
        for argv in argvs:
            r = run.run_process(["-m", "quatorder.cli", *argv])
            summary = gate.summarize_call(r["rc"], r["stdout"], r["stderr"])
            if summary["error"]:
                errors.append(f"{workloads.call_key(argv)}: {summary['error']}")
            else:
                digests[workloads.call_key(argv)] = summary["digest"]
    if errors:
        raise SystemExit("calls outside the supported cases:\n" + "\n".join(errors))
    return {"digests": digests}


def main(names) -> int:
    makers = {"grid": freeze_grid, "wide": freeze_wide, "calls": freeze_calls}
    run.FROZEN.mkdir(exist_ok=True)
    for name in names or makers:
        data = makers[name]()
        (run.FROZEN / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {run.FROZEN / name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
