"""Peak RSS of skewdyn CLI calls, each started by the benchmark's launcher.

The launcher (perfbench/launcher.py, read and not changed) starts each call
from a small process, so the peak it reports is the program's own.  Calls
run in the order given, from the repository root, with the checkout's
src/ on PYTHONPATH; each call's stdout and stderr go to WORK/NAME.out and
WORK/NAME.err.

Prints {"NAME": {"exit": code, "peak_bytes": n}, ...} as one JSON line and
exits nonzero, naming the call and showing its stderr, when a call exits
nonzero.

usage: python3 .github/scripts/peak_rss.py WORK NAME=ARGS [NAME=ARGS ...]
       (ARGS: the CLI's arguments, split as a shell splits them)
"""
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

root = Path(__file__).resolve().parents[2]
work = Path(sys.argv[1])
env = dict(os.environ, PYTHONPATH=str(root / "src"))
launcher = subprocess.Popen([sys.executable, str(root / "perfbench" / "launcher.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
report, failed = {}, []
for name, _, args in (arg.partition("=") for arg in sys.argv[2:]):
    req = {"argv": [sys.executable, "-m", "skewdyn.cli", *shlex.split(args)],
           "stdout": str(work / f"{name}.out"), "stderr": str(work / f"{name}.err"),
           "cwd": str(root), "env": env}
    launcher.stdin.write(json.dumps(req) + "\n")
    launcher.stdin.flush()
    reply = json.loads(launcher.stdout.readline())
    report[name] = {"exit": reply["exit"], "peak_bytes": reply["maxrss_kb"] * 1024}
    if reply["exit"] != 0:
        failed.append(f"{name} exited {reply['exit']}: {(work / f'{name}.err').read_text()}")
launcher.stdin.close()
launcher.wait()
print(json.dumps(report))
sys.exit("\n".join(failed) if failed else 0)
