"""Starts CLI processes for the benchmark and reports their cost.

Linux charges a child with the resident set of the process that forked it
(the old address space's high-water mark is kept across exec), so peak-RSS
figures are only the program's own when the forking process stays small.
This script imports nothing heavy.  It reads one JSON request per line,
{"argv": [...], "stdout": path, "stderr": path, "cwd": path, "env": {...}},
and answers {"wall": s, "maxrss_kb": n, "exit": code} after the process ends.
"""

import json
import os
import sys
import time


def gauge() -> float:
    """Wall time of a fixed pure-Python loop (about 30 ms)."""
    t0 = time.perf_counter()
    acc, z = 0j, complex(0.6, 0.3)
    for i in range(80_000):
        acc = acc * z + complex(i & 7, 1.0)
    return time.perf_counter() - t0


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        req = json.loads(line)
        out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2),
                   (os.POSIX_SPAWN_CLOSE, out), (os.POSIX_SPAWN_CLOSE, err)]
        os.chdir(req["cwd"])
        before = gauge()
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        after = gauge()
        os.close(out)
        os.close(err)
        sys.stdout.write(json.dumps({"wall": wall, "gauge": (before + after) / 2,
                                     "maxrss_kb": usage.ru_maxrss,
                                     "exit": os.waitstatus_to_exitcode(status)}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
