"""Runs the benchmark's child processes on request and reports their resource use.

The benchmark starts this script before it imports NumPy or builds any
arrays. A child's peak RSS as ``wait4`` reports it includes the RSS of the
process it was spawned from (the kernel counts the parent's memory until the
child's ``exec``), so spawning from this small process keeps a large
benchmark process out of ``peak_rss_mb``.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "stdout",
"stderr", "timeout"}``; one JSON answer per stdout line, ``{"wall_s",
"cpu_s", "rss_mb", "code"}``. The script exits when stdin closes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
