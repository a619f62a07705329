"""Command spawner: reads one JSON request per line on stdin, runs it, and
answers with one JSON line of wall time, peak RSS and exit code.

A child's peak RSS as reported by `wait4` starts from its parent's resident
size at fork, so commands are started from this small process rather than
from the benchmark, which holds corpora and scipy in memory.

Request:  {"argv": [...], "cwd": DIR, "stdout": PATH, "stderr": PATH}
Answer:   {"wall_s": float, "rss_mb": float, "code": int}
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

COMMAND_TIMEOUT_S = 120.0


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                cwd=request["cwd"])
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
