"""Span wrappers around the public functions of each skewdyn layer.

The program carries no tracing of its own, so the traced run patches it from
outside: every wrapped function is replaced at its module attribute and at
every `from ... import` binding of it in the package, so calls between
layers are caught.  `Tracer.uninstall` restores the originals, which keeps
the untraced in-process pass free of wrapper cost.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("rotation", "scaled", "series", "normalform", "cremer", "petals", "cli")

# Public functions left unwrapped.  They run per coefficient or per scalar,
# far more often than a span can afford; their time shows as self time of
# the calling layer.  The scaled layer is timed by microbenchmarks instead.
UNWRAPPED = {"scaled.as_scaled", "rotation.fixed_to_float", "rotation.frac_multiple"}

# Methods wrapped in addition to the public module-level functions.
METHODS = {
    "series": [("TruncatedSeries", m) for m in
               ("__mul__", "__add__", "__sub__", "pow", "reciprocal", "scale")],
    "normalform": [("ChangeLog", "replay")],
    "petals": [("FatouGrid", "write_csv"), ("FatouGrid", "write_ppm")],
}


def _note_fatou(args, kwargs, result):
    return {"threads": kwargs.get("threads", 1),
            "point_steps": int(result.n_stop.sum())}


def _note_orbit(args, kwargs, result):
    return {"full": not kwargs.get("stop_at_verdict", True),
            "steps": len(result.ws) - 1}


NOTES = {"petals.fatou_slice": _note_fatou,
         "petals.iterate_orbit": _note_orbit,
         "rotation.divisor_table": lambda a, k, r: {"rows": r.m_max - 1}}


class Tracer:
    """Records spans [name, start, end, parent, outermost, note] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], active[name] == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[name] -= 1
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        mods = {name: sys.modules[f"skewdyn.{name}"] for name in LAYERS}
        bindings = [m for n, m in sys.modules.items()
                    if n == "skewdyn" or n.startswith("skewdyn.")]
        for layer, mod in mods.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or fn.__module__ != mod.__name__
                        or name in UNWRAPPED):
                    continue
                wrapped = self.wrap(name, fn)
                for m in bindings:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._restore.append((m, key, fn))
                            setattr(m, key, wrapped)
            for cls_name, meth in METHODS.get(layer, []):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._restore):
            setattr(obj, key, fn)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def span_cost(calls: int = 20_000) -> float:
        """Seconds a wrapper adds to one call: a wrapped no-op against the
        bare one, fastest of five batches."""
        def noop():
            return None
        wrapped = Tracer().wrap("probe.noop", noop)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
        return best

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Self time per layer, inclusive time and call count per span name."""

    def __init__(self, spans: list[list]):
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.notes: dict[str, list] = defaultdict(list)
        for i, (name, t0, t1, _, outer, note) in enumerate(spans):
            dur = t1 - t0
            self.self_s[name.split(".", 1)[0]] += dur - child[i]
            self.calls[name] += 1
            if outer:
                self.total_s[name] += dur
            if note is not None:
                self.notes[name].append((dur, note))

    def total_where(self, name: str, **match) -> float:
        return sum(d for d, note in self.notes[name]
                   if all(note[k] == v for k, v in match.items()))

    def note_sum(self, name: str, key: str, **match) -> int:
        return sum(note[key] for _, note in self.notes[name]
                   if all(note[k] == v for k, v in match.items()))
