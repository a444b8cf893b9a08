#!/usr/bin/env python3
"""Benchmark of the skewdyn command line, end to end and layer by layer.

    python3 perfbench/run.py --workload normal-form --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is run from `src/` as it
stands, through `python3 -m skewdyn.cli`.  With `--trace 0` the workload's
CLI invocations run as subprocesses, one at a time, in rounds until
`--seconds` is spent; each invocation counts with its median round, scaled
by the machine-speed gauge taken around every process.  With `--trace 1`
the same invocations (plus a probe of the subcommands the workload lacks)
also run in-process, once plain and once with span wrappers on every
layer, and the per-layer metrics are printed.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".perfbench_out"


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "skewdyn" / "cli.py").is_file():
    _die(f"no skewdyn sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "rss_mb_max": "MB"}
# Times are scaled to a machine on which the launcher's gauge loop takes
# this long (see README.md, "Drift"); about the median on the reference VM.
GAUGE_REF_S = 0.025
VERSIONS_PER_ROUND = 3


def source_version() -> str:
    text = (SRC / "skewdyn" / "__init__.py").read_text()
    return re.search(r'__version__ = "([^"]+)"', text).group(1)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    """Runs CLI invocations as subprocesses and judges their outputs.

    A check's verdict is cached by the SHA-256 of the output files: byte-for-
    byte equal outputs get equal verdicts, so each distinct output is checked
    once per run and every later repetition is still judged."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # a user's repeated runs reuse the byte-compiled modules; so do these
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.version_check = checks.version_check(source_version())
        self._verdicts: dict[tuple[str, str], list[checks.Op]] = {}
        self.digests: dict[str, str] = {}
        self.out_bytes: dict[str, int] = {}
        self.gauges: list[float] = []
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Wall time, peak RSS in MB and exit code of one CLI process.

        Also records the launcher's speed gauge taken around the process."""
        log.parent.mkdir(parents=True, exist_ok=True)
        req = {"argv": [sys.executable, "-m", "skewdyn.cli", *argv],
               "stdout": str(log.with_suffix(".out")),
               "stderr": str(log.with_suffix(".err")),
               "cwd": str(ROOT), "env": self.env}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher died")
        ans = json.loads(reply)
        self.gauges.append(ans["gauge"])
        return ans["wall"], ans["maxrss_kb"] / 1024.0, ans["exit"]

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def version(self) -> tuple[float, float, list[checks.Op]]:
        log = self.work / "logs" / "version"
        wall, rss, rc = self.spawn(["--version"], log)
        ops = self.version_check(log.with_suffix(".out").read_text())
        if rc != 0:
            ops[0] = checks.Op("version", f"exit code {rc}")
        return wall, rss, ops

    def call(self, call: workloads.Call) -> tuple[float, float, list[checks.Op]]:
        out = self.work / "out" / call.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        log = self.work / "logs" / call.name
        wall, rss, rc = self.spawn([*call.argv, "--out", str(out)], log)
        ops = self.judge(call, out)
        if rc != 0:
            err = log.with_suffix(".err").read_text()[-300:].strip()
            ops = [checks.Op(ops[0].label, f"exit code {rc}: {err}")] + [
                op if not op.ok else checks.Op(op.label, "not written") for op in ops[1:]]
        return wall, rss, ops

    def judge(self, call: workloads.Call, out: Path) -> list[checks.Op]:
        key = digest(out)
        self.digests[call.name] = key
        self.out_bytes[call.name] = sum(f.stat().st_size for f in out.iterdir())
        if (call.name, key) not in self._verdicts:
            self._verdicts[(call.name, key)] = call.check(out)
        return self._verdicts[(call.name, key)]


def timed_rounds(seconds: float, body) -> int:
    """Call body() in whole rounds until the next round would overrun."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        body()
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


class Tally:
    """Operations, peak RSS and wall times of the subprocess runs."""

    def __init__(self, runner: Runner):
        self.ops: list[checks.Op] = []
        self.rss = 0.0
        self.walls: dict[str, list[float]] = {}
        self.runner = runner
        runner.gauges.clear()

    def add(self, name: str, wall: float, rss: float, ops) -> None:
        self.ops.extend(ops)
        self.rss = max(self.rss, rss)
        self.walls.setdefault(name, []).append(wall)

    def typical(self, name: str) -> float:
        """Median wall time of an invocation, in reference seconds."""
        return statistics.median(self.walls[name]) * self.speed()

    def speed(self) -> float:
        return GAUGE_REF_S / statistics.median(self.runner.gauges)

    def result(self, metrics: dict) -> dict:
        failed = [op for op in self.ops if not op.ok]
        for msg in sorted({f"{op.label}: {op.error}" + (" [known fault]" if op.known else "")
                           for op in failed}):
            print(f"perfbench: failed {msg}", file=sys.stderr)
        raw = {k: [round(x, 4) for x in v] for k, v in self.walls.items()}
        print(f"perfbench: raw wall times {json.dumps(raw)}; gauge median "
              f"{GAUGE_REF_S / self.speed():.5f} s", file=sys.stderr)
        return {"correct": all(op.known for op in failed),
                "attempted": len(self.ops), "failed": len(failed),
                "metrics": metrics}


def subprocess_round(runner: Runner, calls, tally: Tally) -> None:
    for _ in range(VERSIONS_PER_ROUND):
        tally.add("version", *runner.version())
    for call in calls:
        tally.add(call.name, *runner.call(call))


def end_to_end(wl: workloads.Workload, runner: Runner, seconds: float) -> dict:
    tally = Tally(runner)
    rounds = timed_rounds(seconds, lambda: subprocess_round(runner, wl.calls, tally))
    print(f"perfbench: {wl.name}: {rounds} rounds", file=sys.stderr)
    values = {"wall_s": sum(tally.typical(c.name) for c in wl.calls),
              "setup_s": tally.typical("version"), "rss_mb_max": tally.rss}
    return tally.result({k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()})


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

LAYER_METRICS = [
    # (name, unit); README.md says which end-to-end metric each should move
    ("rotation.divisor_table_s", "s"), ("rotation.divisor_rows_per_s", "rows/s"),
    ("rotation.write_divisor_csv_s", "s"), ("rotation.unit_minus_one_calls", "count"),
    ("rotation.unit_minus_one_s", "s"), ("rotation.self_s", "s"),
    ("scaled.mul_ns", "ns/op"), ("scaled.add_ns", "ns/op"),
    ("series.mul_n64_us", "us"), ("series.reciprocal_n64_us", "us"),
    ("series.mul_calls", "count"), ("series.mul_s", "s"), ("series.conjugate_s", "s"),
    ("series.germ_from_json_s", "s"), ("series.self_s", "s"),
    ("normalform.invariant_curve_s", "s"), ("normalform.linear_gauge_s", "s"),
    ("normalform.order_bump_s", "s"), ("normalform.replay_s", "s"),
    ("normalform.reduce_s", "s"), ("normalform.self_s", "s"),
    ("cremer.greedy_quadratic_s", "s"), ("cremer.linear_example_phi_s", "s"),
    ("cremer.write_growth_csv_s", "s"), ("cremer.self_s", "s"),
    ("petals.fatou_slice_s", "s"), ("petals.slice_point_steps", "count"),
    ("petals.slice_steps_per_s", "steps/s"), ("petals.fatou_slice_threads2_s", "s"),
    ("petals.write_csv_s", "s"), ("petals.write_ppm_s", "s"),
    ("petals.iterate_orbit_full_s", "s"), ("petals.iterate_orbit_verdict_s", "s"),
    ("petals.orbit_steps_per_s", "steps/s"), ("petals.critical_orbit_check_s", "s"),
    ("petals.sampling_checks_s", "s"), ("petals.self_s", "s"),
    ("cli.self_s", "s"), ("cli.output_mb", "MB"),
    ("cli.brjuno_s", "s"), ("cli.cremer_s", "s"), ("cli.normalize_s", "s"),
    ("cli.slice_s", "s"), ("cli.orbit_s", "s"), ("cli.hypotheses_s", "s"),
    ("cli.petalcheck_s", "s"), ("trace.overhead_s", "s"),
]
HIGHER_BETTER = {"rotation.divisor_rows_per_s", "petals.slice_steps_per_s",
                 "petals.orbit_steps_per_s"}


def span_metrics(s: tracing.SpanSummary) -> dict[str, float]:
    t = s.total_s
    fatou1 = s.total_where("petals.fatou_slice", threads=1)
    orbit = t["petals.iterate_orbit"]
    m = {
        "rotation.divisor_table_s": t["rotation.divisor_table"],
        "rotation.divisor_rows_per_s": (s.note_sum("rotation.divisor_table", "rows")
                                        / t["rotation.divisor_table"]),
        "rotation.write_divisor_csv_s": t["rotation.write_divisor_csv"],
        "rotation.unit_minus_one_calls": s.calls["rotation.unit_minus_one"],
        "rotation.unit_minus_one_s": t["rotation.unit_minus_one"],
        "series.mul_calls": s.calls["series.TruncatedSeries.__mul__"],
        "series.mul_s": t["series.TruncatedSeries.__mul__"],
        "series.conjugate_s": t["series.conjugate"],
        "series.germ_from_json_s": t["series.germ_from_json"],
        "normalform.invariant_curve_s": t["normalform.solve_invariant_curve"],
        "normalform.linear_gauge_s": t["normalform.solve_linear_gauge"],
        "normalform.order_bump_s": t["normalform.solve_order_bump"],
        "normalform.replay_s": t["normalform.ChangeLog.replay"],
        "normalform.reduce_s": t["normalform.reduce_parabolic_tail"],
        "cremer.greedy_quadratic_s": t["cremer.greedy_quadratic"],
        "cremer.linear_example_phi_s": t["cremer.linear_example_phi"],
        "cremer.write_growth_csv_s": t["cremer.write_growth_csv"],
        "petals.fatou_slice_s": fatou1,
        "petals.slice_point_steps": s.note_sum("petals.fatou_slice", "point_steps",
                                               threads=1),
        "petals.fatou_slice_threads2_s": s.total_where("petals.fatou_slice", threads=2),
        "petals.write_csv_s": t["petals.FatouGrid.write_csv"],
        "petals.write_ppm_s": t["petals.FatouGrid.write_ppm"],
        "petals.iterate_orbit_full_s": s.total_where("petals.iterate_orbit", full=True),
        "petals.iterate_orbit_verdict_s": s.total_where("petals.iterate_orbit",
                                                        full=False),
        "petals.orbit_steps_per_s": s.note_sum("petals.iterate_orbit", "steps") / orbit,
        "petals.critical_orbit_check_s": t["petals.critical_orbit_check"],
        "petals.sampling_checks_s": (t["petals.forward_invariance_check"]
                                     + t["petals.repelling_expansion_check"]),
    }
    m["petals.slice_steps_per_s"] = m["petals.slice_point_steps"] / fatou1
    for layer in ("rotation", "series", "normalform", "cremer", "petals", "cli"):
        m[f"{layer}.self_s"] = s.self_s[layer]
    return m


def microbench(seed: int) -> dict[str, float]:
    """Public scaled/series operations on seeded operands, exponents in 2^+-200."""
    from skewdyn.scaled import ScaledComplex
    from skewdyn.series import TruncatedSeries
    rng = np.random.default_rng([seed, 9])

    def scaled(n):
        mant = rng.uniform(1, 2, n) * np.exp(2j * np.pi * rng.random(n))
        return [ScaledComplex(complex(m), int(e))
                for m, e in zip(mant, rng.integers(-200, 201, n))]

    pairs = list(zip(scaled(4000), scaled(4000)))

    def best(fn, reps):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    s, u = TruncatedSeries(scaled(65)), TruncatedSeries(scaled(65))
    return {
        "scaled.mul_ns": best(lambda: [x * y for x, y in pairs], 5) / len(pairs) * 1e9,
        "scaled.add_ns": best(lambda: [x + y for x, y in pairs], 5) / len(pairs) * 1e9,
        "series.mul_n64_us": best(lambda: s * u, 3) * 1e6,
        "series.reciprocal_n64_us": best(s.reciprocal, 3) * 1e6,
    }


def in_process(calls, threads_ref, out_dir: Path, runner: Runner) -> tuple[float, list]:
    """One pass of `skewdyn.cli.main` over the calls, plus the threads=2 grid.

    Returns the wall time and one op per call: exit code 0 and outputs
    byte-identical to the subprocess run of the same call."""
    import skewdyn.cli
    import skewdyn.petals
    import skewdyn.series
    ops = []
    t0 = time.perf_counter()
    for call in calls:
        out = out_dir / call.name
        shutil.rmtree(out, ignore_errors=True)
        try:
            rc = skewdyn.cli.main([*call.argv, "--out", str(out)])
        except Exception as exc:  # a crash fails this operation, not the run
            rc = f"{type(exc).__name__}: {exc}"
        same = rc == 0 and digest(out) == runner.digests.get(call.name)
        ops.append(checks.Op(f"in-process {call.name}",
                             None if same else f"exit {rc} or outputs differ "
                             "from the subprocess run"))
    germ, z0, grid, n_max = threads_ref
    F = skewdyn.series.germ_from_json(json.loads(Path(germ).read_text()))
    skewdyn.petals.fatou_slice(F, z0, grid, n_max=n_max, threads=2)
    return time.perf_counter() - t0, ops


def traced_run(wl: workloads.Workload, runner: Runner, seconds: float,
               seed: int) -> dict:
    skip = {c.subcommand for c in wl.calls}
    probe, probe_ref = workloads.probe(seed, runner.work / "probe", skip)
    calls = wl.calls + probe
    threads_ref = wl.threads_ref or probe_ref
    tally = Tally(runner)
    rounds: list[dict[str, float]] = []

    def body():
        subprocess_round(runner, calls, tally)
        plain, ops = in_process(calls, threads_ref, runner.work / "inproc", runner)
        tally.ops.extend(ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = in_process(calls, threads_ref, runner.work / "inproc", runner)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        m = span_metrics(summary)
        m.update(microbench(seed))
        m["cli.output_mb"] = sum(runner.out_bytes[c.name] for c in calls) / 1e6
        m["trace.overhead_s"] = len(tracer.spans) * tracing.Tracer.span_cost()
        self_sum = sum(summary.self_s.values())
        print(f"perfbench: accounting: traced pass {traced:.4f} s = layer self times "
              f"{self_sum:.4f} s + {traced - self_sum:.4f} s outside spans; untraced "
              f"pass {plain:.4f} s + overhead {m['trace.overhead_s']:.4f} s "
              f"({len(tracer.spans)} spans) = {plain + m['trace.overhead_s']:.4f} s",
              file=sys.stderr)
        rounds.append(m)

    n = timed_rounds(seconds, body)
    print(f"perfbench: {wl.name} traced: {n} rounds", file=sys.stderr)
    merged = {name: (max if name in HIGHER_BETTER else min)(r[name] for r in rounds)
              for name in rounds[0]}
    for sub in ("brjuno", "cremer", "normalize", "slice", "orbit", "hypotheses",
                "petalcheck"):
        merged[f"cli.{sub}_s"] = sum(tally.typical(c.name) for c in calls
                                     if c.subcommand == sub)
    units = dict(LAYER_METRICS)
    return tally.result({k: {"value": merged[k], "unit": units[k]}
                         for k, _ in LAYER_METRICS})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT_BASE / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(name, seed, work / "inputs")
        runner = Runner(work)
        try:
            runner.version()   # warm-up: byte-compiles the sources on a fresh checkout
            if trace:
                return traced_run(wl, runner, seconds, seed)
            return end_to_end(wl, runner, seconds)
        finally:
            runner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if OUT_BASE.is_dir() and not any(OUT_BASE.iterdir()):
            OUT_BASE.rmdir()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_one(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        for metric, v in res["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
        print(f"{name} operations attempted {res['attempted']} failed "
              f"{res['failed']} correct {res['correct']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
