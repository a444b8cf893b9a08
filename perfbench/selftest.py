#!/usr/bin/env python3
"""Self-test of the benchmark: `python3 perfbench/selftest.py` from the root.

1. Runs every workload once at small sizes and requires every operation to
   pass, except the CSV files hit by the known numpy-scalar fault.
2. Corrupts one output per kind of check and requires the check to reject
   it: a flipped verdict code, a wrong n_stop, a perturbed divisor, a
   changed b, a wrong orbit stop step.
3. Runs the traced in-process pass twice over every small invocation and
   requires the span counts to repeat exactly and the layer self times to
   cover the traced wall time within 5%.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (checks the checkout layout first)
import tracing  # noqa: E402
import workloads  # noqa: E402

KNOWN_FAULT_FILES = {"slice.csv", "orbit.csv"}
failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def edit_csv(path: Path, pick, edit) -> None:
    """Rewrite the first data row for which pick(cells) holds via edit(cells)."""
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        if pick(cells):
            lines[i] = ",".join(edit(cells))
            path.write_text("\n".join(lines) + "\n")
            return
    raise AssertionError(f"no row to corrupt in {path}")


def edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def rejected(call: workloads.Call, out: Path, corrupt: Path, change) -> bool:
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(out, corrupt)
    change(corrupt)
    return any(not op.ok and not op.known for op in call.check(corrupt))


def main() -> int:
    work = run.OUT_BASE / f"selftest-{os.getpid()}"
    try:
        return selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.OUT_BASE.is_dir() and not any(run.OUT_BASE.iterdir()):
            run.OUT_BASE.rmdir()


def selftest(work: Path) -> int:
    runner = run.Runner(work)
    loads = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 5, work / "inputs" / name, small=True)
            loads[name] = wl
            for call in wl.calls:
                _, _, ops = runner.call(call)
                bad = [f"{op.label}: {op.error}" for op in ops if not op.ok and not op.known]
                known = {op.label for op in ops if op.known}
                expect(not bad and known <= KNOWN_FAULT_FILES,
                       f"{name}/{call.name}: {len(ops)} ops, known faults "
                       f"{sorted(known) or 'none'}" + (f", failed {bad}" if bad else ""))
            shutil.copytree(work / "out", work / "kept" / name)
    finally:
        runner.close()

    calls = {c.name: c for wl in loads.values() for c in wl.calls}
    kept = work / "kept"
    corrupt = work / "corrupt"

    def case(wl, name, what, change):
        ok = rejected(calls[name], kept / wl / name, corrupt, change)
        expect(ok, f"rejects {what} ({name})")

    # a basin pixel recoloured as escape: PPM and counts disagree
    case("fatou-slice", "slice-basin", "a flipped verdict code",
         lambda d: edit_csv(d / "slice.csv", lambda c: c[2] == "200",
                            lambda c: c[:2] + ["1"] + c[3:]))
    case("fatou-slice", "slice-parabolic", "a wrong n_stop",
         lambda d: edit_csv(d / "slice.csv", lambda c: c[2] == "1",
                            lambda c: c[:3] + [str(int(c[3]) + 1)]))
    case("divergence", "brjuno-golden", "a perturbed divisor",
         lambda d: edit_csv(d / "divisors.csv", lambda c: c[0] == "777",
                            lambda c: [c[0], repr(float(c[1]) * (1 + 1e-9))] + c[2:]))
    case("normal-form", "normalize-k1", "a changed b",
         lambda d: edit_json(d / "normalize.json",
                             lambda o: o["reduced"]["b"].__setitem__(0, o["reduced"]["b"][0]
                                                                     + 1e-7)))
    case("orbits", "orbit-siegel", "a wrong orbit n_stop",
         lambda d: edit_json(d / "orbit.json", lambda o: o.__setitem__("n_stop", 17)))

    # traced in-process pass over every small call: repeatable counts, self
    # times cover the wall time
    import skewdyn.cli  # noqa: F401  (loads every layer module)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, ops = run.in_process(list(calls.values()),
                                       loads["fatou-slice"].threads_ref,
                                       work / "inproc", runner)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        expect(all(op.ok for op in ops), "in-process outputs equal the subprocess ones")
        cover = sum(summary.self_s.values()) / wall
        expect(0.95 <= cover <= 1.0, f"layer self times cover {cover:.1%} of the "
               f"traced wall time")
        counts.append({k: v for k, v in run.span_metrics(summary).items()
                       if k.endswith(("_calls", "_point_steps"))})
    expect(counts[0] == counts[1], f"span counts repeat exactly: {counts[0]}")
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
