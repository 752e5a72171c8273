"""In-process passes for the traced benchmark run.

Runs the workload's argvs through ``quatorder.cli.main`` inside this one
process, with the tracer off (``plain``) or on (``traced``), or runs the
primitive microbenchmarks (``micro``).  Reads a JSON spec file named on the
command line and prints one JSON object as its last line.  The benchmark's
``run.py`` starts this script in a fresh interpreter for every pass, so
caches inside the package start cold each time.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from fractions import Fraction
from math import lcm
from pathlib import Path

import gate
from tracer import Tracer


def drive(argvs: list, kind: str, traced: bool, spans_out: str | None) -> dict:
    import quatorder.cli

    tracer = Tracer().install() if traced else None
    outputs = []
    try:
        t0 = time.perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = quatorder.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    rc = 1
            outputs.append((rc, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    summarize = gate.summarize_sweep if kind == "sweep" else gate.summarize_call
    result = {"wall_s": wall, "summaries": [summarize(*o) for o in outputs]}
    if tracer is not None:
        result["metrics"] = {k: v for k, (v, _) in tracer.metrics().items()}
        result["layer_self_s"] = tracer.layer_self_s()
        spans = tracer.spans()
        result["spans"] = len(spans)
        if spans_out:
            with open(spans_out, "w") as fh:
                fh.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"]}) + "\n")
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
    return result


def _per_op_us(fn, target_s: float = 0.04, repeats: int = 5) -> float:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= target_s / 4:
            break
        n *= 4
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(samples)


def microbench() -> dict:
    """Microseconds per operation on the flagship inputs (delta 35, level 3, q 11)."""
    from quatorder.degeneracy import degeneracy_bases
    from quatorder.exact import hnf
    from quatorder.numth import PadicNum
    from quatorder.quat import AlgebraParams, hashimoto_basis
    from quatorder.split import build_splitting

    params = AlgebraParams.create(35, 3)
    _, _, e3, e4 = hashimoto_basis(params)
    spl = build_splitting(params, 11)
    pa = PadicNum.from_rational(Fraction(-525, 13), 11, 20)
    pb = PadicNum.from_rational(Fraction(7, 3), 11, 20)
    pair = degeneracy_bases(params, 11)
    f_lat, g_lat = pair.f_lattice(), pair.g_lattice()
    d = lcm(f_lat.denom, g_lat.denom)
    rows = f_lat.scaled_rows(d) + g_lat.scaled_rows(d)
    ops = {
        "quat.QuatElem.__mul__.us": lambda: e3 * e4,
        "numth.PadicNum.__add__.us": lambda: pa + pb,
        "numth.PadicNum.__mul__.us": lambda: pa * pb,
        "split.LocalSplitting.embed.us": lambda: spl.embed(e4),
        "split.build_splitting.us": lambda: build_splitting(params, 11),
        "exact.ZLattice4.intersect.us": lambda: f_lat.intersect(g_lat),
        "exact.hnf.us": lambda: hnf(rows),
    }
    return {"metrics": {name: _per_op_us(fn) for name, fn in ops.items()}}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    if spec["mode"] == "micro":
        result = microbench()
    else:
        result = drive(spec["argvs"], spec["kind"], spec["mode"] == "traced", spec.get("spans_out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
