"""Judge the summary line of `perfbench/run.py --workload all`.

Reads the run's last stdout line (JSON) from stdin and exits nonzero,
naming the workloads at fault, unless each of the four workloads is present
with no failed operation and its outputs judged correct.

usage: python3 perfbench/run.py --workload all ... | tail -n 1 \
           | python3 .github/scripts/check_workloads.py
"""
import json
import sys

NAMES = ("normal-form", "divergence", "fatou-slice", "orbits")

report = json.loads(sys.stdin.read())
bad = {n: report.get(n) for n in NAMES
       if not (n in report and report[n]["failed"] == 0
               and report[n]["correct"] is True)}
sys.exit(f"workload check failed: {bad}" if bad else 0)
