"""Start program processes for ``run.py`` from a process that stays small.

A child's peak RSS, as ``wait4`` reports it, is never below the resident
size of the process that forked it: the kernel folds the parent's pages
into the child's high-water mark when the child calls exec.  The benchmark
harness grows as it parses reports, so it does not start the program itself.
It sends this helper one JSON request per line::

    {"args": [...], "stdout": path, "stderr": path, "timeout": seconds}

and reads back one JSON line per request with ``rc``, ``t0`` and ``wall_s``
(``time.perf_counter``, the same monotonic clock in every process) and
``maxrss_kb``.  The helper exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["args"], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "t0": t0, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
