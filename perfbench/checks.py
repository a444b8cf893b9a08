"""Independent checks of every CLI output.

Nothing here imports skewdyn.  The oracles are mpmath at high precision,
plain Python complex arithmetic and numpy re-evaluations of the inputs the
benchmark generated itself.  A check returns one `Op` per operation: the
invocation (its exit code, JSON and PPM) and each CSV file it wrote.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np


@dataclass
class Op:
    label: str
    error: str | None = None
    known: bool = False   # failed only because of the numpy-scalar CSV fault

    @property
    def ok(self) -> bool:
        return self.error is None


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


NP_SCALAR = re.compile(r"np\.float64\((.*)\)\Z")


def read_csv(path: Path, header: list[str], blank: tuple[int, ...] = ()):
    """Parse a program CSV into a float array.

    Returns (values, first_bad_cell).  `first_bad_cell` names the first cell
    that `float()` rejects but that is a numpy-2 scalar repr such as
    `np.float64(-1.5)`; its value is still parsed so the value checks run.
    Any other malformed cell raises CheckError.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(bool(rows) and rows[0] == header, f"{path.name}: header {rows[:1]}")
    body = rows[1:]
    out = np.empty((len(body), len(header)))
    bad = None
    for i, row in enumerate(body):
        expect(len(row) == len(header), f"{path.name} row {i + 1}: {len(row)} cells")
        for j, cell in enumerate(row):
            if j in blank:
                expect(cell == "", f"{path.name} row {i + 1}: {header[j]} not empty")
                out[i, j] = math.nan
                continue
            try:
                out[i, j] = float(cell)
            except ValueError:
                m = NP_SCALAR.match(cell)
                expect(m is not None, f"{path.name} row {i + 1}: bad cell {cell!r}")
                try:
                    out[i, j] = float(m.group(1))
                except ValueError:
                    raise CheckError(f"{path.name}: bad cell {cell!r}") from None
                if bad is None:
                    bad = f"{path.name} row {i + 1} {header[j]}={cell!r}"
    return out, bad


# what a malformed output can raise inside a check, besides CheckError
MALFORMED = (KeyError, TypeError, ValueError, IndexError, OSError)


def csv_op(path: Path, header: list[str], values_check, blank=()) -> Op:
    """A CSV operation: every numeric cell parses with float() and the rows
    pass `values_check(array)`."""
    label = path.name
    try:
        expect(path.exists(), f"{label} missing")
        arr, bad = read_csv(path, header, blank)
        values_check(arr)
    except CheckError as exc:
        return Op(label, str(exc))
    except MALFORMED as exc:
        return Op(label, f"{label}: {type(exc).__name__}: {exc}")
    if bad is not None:
        return Op(label, f"float() rejects {bad}", known=True)
    return Op(label)


def json_op(label: str, path: Path, body) -> Op:
    try:
        expect(path.exists(), f"{path.name} missing")
        with open(path) as fh:
            body(json.load(fh))
    except CheckError as exc:
        return Op(label, str(exc))
    except MALFORMED as exc:
        return Op(label, f"{path.name}: {type(exc).__name__}: {exc}")
    return Op(label)


# ---------------------------------------------------------------------------
# Rotations in mpmath
# ---------------------------------------------------------------------------

def mp_theta(rotation: dict) -> mpmath.mpf:
    """theta of a GOLDEN or CREMER rotation dict, at the current precision."""
    if rotation["kind"] == "surd":
        p, q, r, s = (rotation[x] for x in "pqrs")
        return (p + q * mpmath.sqrt(r)) / s
    tail = (1 + mpmath.sqrt(5)) / 2   # the all-ones completion [1; 1, 1, ...]
    v = tail
    for a in reversed(rotation["quotients"]):
        v = a + 1 / v
    return 1 / v


def mp_prec(rotation: dict) -> int:
    return rotation["frac_bits"] + 128


def mp_log_divisor(rotation: dict, ms) -> dict[int, float]:
    """ln |lam^m - 1| = ln(2 |sin(pi m theta)|) for each m, in mpmath."""
    with mpmath.workprec(mp_prec(rotation)):
        th = mp_theta(rotation)
        out = {}
        for m in ms:
            x = m * th
            out[m] = float(mpmath.log(2 * abs(mpmath.sin(mpmath.pi * (x - mpmath.floor(x))))))
    return out


def fixed_theta(rotation: dict) -> int:
    with mpmath.workprec(mp_prec(rotation)):
        return int(mpmath.floor(mp_theta(rotation) * mpmath.mpf(2) ** rotation["frac_bits"]))


def divisor_column(rotation: dict, m_max: int) -> np.ndarray:
    """|lam^p - 1| for p = 0..m_max from an mpmath theta held in fixed point:
    exact integer fractional parts, then one double sine each."""
    bits = rotation["frac_bits"]
    x, one = fixed_theta(rotation), 1 << bits
    out = np.empty(m_max + 1)
    out[0] = 0.0
    acc = 0
    for p in range(1, m_max + 1):
        acc = (acc + x) % one
        red = min(acc, one - acc)
        out[p] = 2.0 * math.sin(math.pi * math.ldexp(float(red), -bits))
    return out


def convergent_denominators(rotation: dict, limit: int) -> list[int]:
    qs = rotation["quotients"] if rotation["kind"] == "quotients" else []
    qm2, qm1, out = 0, 1, []
    for a in list(qs) + [1] * 64:
        qm2, qm1 = qm1, a * qm1 + qm2
        if qm1 > limit:
            break
        out.append(qm1)
    return out


def sample_rows(samples: list[int], lo: int, hi: int, rotation: dict) -> list[int]:
    rows = {lo + s % (hi - lo + 1) for s in samples}
    for q in convergent_denominators(rotation, hi):
        rows.update(m for m in (q - 1, q, q + 1, q + 2) if lo <= m <= hi)
    return sorted(rows)


# ---------------------------------------------------------------------------
# divergence: brjuno and cremer
# ---------------------------------------------------------------------------

DIVISOR_HEADER = ["m", "dlam", "omega", "cremer_exponent"]
GROWTH_HEADER = ["m", "a_m", "log_phi", "exponent", "running_max", "log_inv_divisor"]


def brjuno_check(rotation: dict, m_max: int, samples: list[int]):
    def check(out: Path) -> list[Op]:
        d1 = divisor_column(rotation, m_max)
        rows = sample_rows(samples, 2, m_max, rotation)
        logs = mp_log_divisor(rotation, [m - 1 for m in rows])
        table = {}

        def values(a):
            expect(len(a) == m_max - 1, f"{len(a)} rows, want {m_max - 1}")
            expect(np.array_equal(a[:, 0], np.arange(2, m_max + 1)), "m column")
            dlam, omega, ce = a[:, 1], a[:, 2], a[:, 3]
            # dlam[m] = |lam^(m-1) - 1|, every row against the fixed-point
            # oracle, sampled and convergent rows against mpmath
            worst = np.max(np.abs(dlam - d1[1:m_max]) / d1[1:m_max])
            expect(worst <= 1e-12, f"dlam off by {worst:.3g} (relative)")
            for m in rows:
                ref = math.exp(logs[m - 1])
                expect(close(dlam[m - 2], ref, 1e-12), f"dlam[{m}]={dlam[m - 2]!r} "
                       f"mpmath {ref!r}")
            expect(np.array_equal(omega, np.minimum.accumulate(dlam)),
                   "omega is not the running minimum of dlam")
            ref_ce = np.log(1.0 / omega) / np.arange(2, m_max + 1)
            expect(np.allclose(ce, ref_ce, rtol=1e-13, atol=0), "cremer_exponent")
            table["omega"] = omega
            table["ce"] = ce

        ops = [csv_op(out / "divisors.csv", DIVISOR_HEADER, values)]

        def summary(s):
            expect("omega" in table, "divisors.csv unreadable")
            om = table["omega"]
            expect(s["omega_final"] == om[-1], "omega_final")
            sums = s["brjuno_partial_sums"]
            k_top = max(k for k in range(64) if 2 ** (k + 1) <= m_max)
            expect(sorted(sums, key=int) == [str(k) for k in range(k_top + 1)],
                   f"partial sum keys {sorted(sums)}")
            acc = 0.0
            for k in range(k_top + 1):
                acc += math.log(1.0 / om[2 ** (k + 1) - 2]) / 2.0 ** k
                expect(close(sums[str(k)], acc, 1e-12), f"Brjuno sum {k}")
            expect(close(s["cremer_running_max"], float(np.max(table["ce"])), 1e-12),
                   "cremer_running_max")
            want = ([1] * 16 if rotation["kind"] == "surd"
                    else rotation["quotients"][:16])
            expect(s["partial_quotients"] == want, "partial_quotients")
            expect(s["degenerate_indices"] == [], "degenerate indices")

        ops.insert(0, json_op("brjuno", out / "brjuno.json", summary))
        return ops
    return check


def _growth_common(a, m_max: int) -> None:
    expect(len(a) == m_max, f"{len(a)} rows, want {m_max}")
    m = np.arange(1, m_max + 1)
    expect(np.array_equal(a[:, 0], m), "m column")
    expect(np.allclose(a[:, 3], a[:, 2] / m, rtol=1e-13, atol=0), "exponent")
    expect(np.array_equal(a[:, 4], np.maximum.accumulate(a[:, 3])), "running_max")


def _cremer_summary(rotation: dict, m_max: int, table: dict, greedy: bool):
    def summary(s):
        expect("a" in table, "growth.csv unreadable")
        a = table["a"]
        expect(s["running_max_exponent"] == a[-1, 4], "running_max_exponent")
        dens = convergent_denominators(rotation, m_max)
        got = s["exponent_at_denominators"]
        expect(sorted(got, key=int) == [str(q) for q in dens], f"denominators {got}")
        for q in dens:
            expect(got[str(q)] == a[q - 1, 3], f"exponent at {q}")
        if greedy:
            expect(s["bits_prefix"] == [0] + [int(b) for b in a[:63, 1]], "bits_prefix")
        else:
            expect(s["bits_prefix"] is None, "bits_prefix")
    return summary


def greedy_check(rotation: dict, m_max: int, samples: list[int], rebuild: int = 300):
    def check(out: Path) -> list[Op]:
        rows = sample_rows(samples, 1, m_max, rotation)
        mp_logs = mp_log_divisor(rotation, rows)
        table = {}

        def values(a):
            _growth_common(a, m_max)
            for m in rows:
                expect(close(-a[m - 1, 5], mp_logs[m], 1e-12, 1e-12),
                       f"log_inv_divisor[{m}]")
            expect(set(np.unique(a[:, 1])) <= {0.0, 1.0}, "a_m not in {0,1}")
            # numerator ln|a_n + S_n| = log_phi + ln|lam^n - 1| >= ln 1/2
            num = a[:, 2] - a[:, 5]
            expect(np.all(num >= math.log(0.5) - 1e-9), "a numerator below 1/2")
            # rebuild phi_n in mpmath from the chosen bits
            top = min(rebuild, m_max)
            with mpmath.workprec(128):
                th = mp_theta(rotation)
                phi = [mpmath.mpc(0)] * (top + 1)
                for n in range(1, top + 1):
                    s = mpmath.fsum(phi[j] * phi[n - j] for j in range(1, n))
                    numer = int(a[n - 1, 1]) + s
                    expect(abs(numer) >= 0.5, f"mpmath numerator {n} below 1/2")
                    phi[n] = numer / (mpmath.expjpi(2 * n * th) - 1)
                    ref = float(mpmath.log(abs(phi[n])))
                    expect(close(a[n - 1, 2], ref, 1e-10, 1e-10),
                           f"log_phi[{n}]={a[n - 1, 2]!r} mpmath {ref!r}")
            table["a"] = a

        ops = [csv_op(out / "growth.csv", GROWTH_HEADER, values)]
        ops.insert(0, json_op("cremer", out / "cremer.json",
                              _cremer_summary(rotation, m_max, table, greedy=True)))
        return ops
    return check


def linear_check(rotation: dict, m_max: int, phi0: complex):
    def check(out: Path) -> list[Op]:
        logs = mp_log_divisor(rotation, range(1, m_max + 1))
        with mpmath.workprec(128):
            base = float(mpmath.log(abs(1 + mpmath.mpc(phi0.real, phi0.imag))))
        ld = np.array([logs[m] for m in range(1, m_max + 1)])
        ref_log_phi = base - np.cumsum(ld)   # partial sums of doubles: < 1e-9 rel
        table = {}

        def values(a):
            _growth_common(a, m_max)
            expect(np.allclose(a[:, 5], -ld, rtol=1e-12, atol=1e-12), "log_inv_divisor")
            expect(np.allclose(a[:, 2], ref_log_phi, rtol=1e-9, atol=1e-9),
                   "log_phi differs from ln|1+phi0| - sum ln|lam^j - 1|")
            table["a"] = a

        ops = [csv_op(out / "growth.csv", GROWTH_HEADER, values, blank=(1,))]
        ops.insert(0, json_op("cremer", out / "cremer.json",
                              _cremer_summary(rotation, m_max, table, greedy=False)))
        return ops
    return check


# ---------------------------------------------------------------------------
# normal-form
# ---------------------------------------------------------------------------

def fixed_point_index(fiber: list[complex], k: int) -> complex:
    """Res_{w=0} 1/(w - g(w)) for g(w) = w + c_{k+1} w^{k+1} + ..., in mpmath.

    w - g(w) = -w^{k+1} P(w) with P(0) = c_{k+1} != 0, so the residue is
    minus the w^k coefficient of 1/P."""
    with mpmath.workprec(200):
        p = [mpmath.mpc(c.real, c.imag) for c in fiber[k + 1:]] + [0] * (k + 1)
        inv = [1 / p[0]]
        for m in range(1, k + 1):
            inv.append(-mpmath.fsum(p[i] * inv[m - i] for i in range(1, m + 1)) / p[0])
        return complex(-inv[k])


def _series(triples) -> np.ndarray:
    return np.array([complex(re, im) * 2.0 ** e for re, im, e in triples])


def _poly(coeffs: np.ndarray, z):
    return np.polyval(coeffs[::-1], z)


def normalize_check(germ: np.ndarray, rotation: dict, k: int, h: int,
                    zs: np.ndarray):
    fiber = [complex(c) for c in germ[:, 0]]
    index = fixed_point_index(fiber, k)
    lam = cmath.exp(2j * math.pi * float(mp_theta(rotation)))
    dw = germ.shape[0] - 1

    def summary(s):
        expect(s["k"] == k and s["h"] == h, f"k={s['k']} h={s['h']}")
        jet = [complex(*c) for c in s["jet"]]
        want = fiber[k + 1:k + h + 2]
        expect(len(jet) == len(want), "jet length")
        for got, ref in zip(jet, want):
            expect(abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), f"jet {got} != {ref}")
        tail = [complex(*c) for c in s["tail_constants"]]
        expect(len(tail) == dw - (k + h + 1), "tail length")
        for got, ref in zip(tail, fiber[k + h + 2:]):
            expect(abs(got - ref) <= 1e-9, f"tail constant {got} != {ref}")
        for name, r in s["stage_residuals"].items():
            expect(r <= 1e-8, f"stage residual {name} = {r}")
        expect(s["replay_defect"] <= 1e-8, f"replay defect {s['replay_defect']}")
        log = s["change_log"]
        expect([e["kind"] for e in log[:3]] == ["base", "shift", "gauge"],
               "change log stages")
        # the logged shift phi is an invariant graph: sum_j a_j(z) phi(z)^j
        # = phi(lam z), checked by Horner evaluation at |z| <= 0.05
        phi = _series(log[1]["series"])
        for z in zs:
            p = _poly(phi, z)
            lhs = sum(_poly(germ[j], z) * p ** j for j in range(dw + 1))
            rhs = _poly(phi, lam * z)
            scale = max(1.0, abs(lhs), abs(rhs))
            expect(abs(lhs - rhs) <= 1e-10 * scale,
                   f"shift residual {abs(lhs - rhs):.3g} at z={z:.4f}")
        red = s["reduced"]
        expect(abs(complex(*red["jet"][0]) + 1) <= 1e-10, "reduced jet is not -1")
        b = complex(*red["b"])
        expect(abs(b - index) <= 1e-10 * max(1.0, abs(index)),
               f"b={b} but the fixed-point index is {index}")

    def check(out: Path) -> list[Op]:
        return [json_op("normalize", out / "normalize.json", summary)]
    return check


# ---------------------------------------------------------------------------
# fatou-slice
# ---------------------------------------------------------------------------

SLICE_HEADER = ["re_w", "im_w", "verdict_code", "n_stop"]
ESCAPE_RADIUS = 1e6
BASIN_COLORS = [(228, 26, 28), (55, 126, 184), (255, 127, 0), (152, 78, 163),
                (255, 255, 51), (166, 86, 40), (247, 129, 191), (0, 206, 209)]
PETAL_GREENS = [(0, 100, 0), (34, 139, 34), (60, 179, 113), (144, 238, 144)]


def palette(code: int) -> tuple[int, int, int]:
    """The README's pixmap palette."""
    if code == 1:
        return (255, 255, 255)
    if code >= 200:
        return BASIN_COLORS[(code - 200) % 8]
    if code >= 100:
        return PETAL_GREENS[(code - 100) % 4]
    return (0, 0, 0)


class FiberSchedule:
    """a_j(lam^n z0) for every step, from the benchmark's own germ array."""

    def __init__(self, germ: np.ndarray, rotation: dict, z0: complex, n_max: int):
        self.moving = z0 != 0 and bool(np.any(germ[:, 1:] != 0))
        self.const = [complex(c) for c in germ[:, 0]]
        if self.moving:
            th = float(mp_theta(rotation))
            zs = [z0 * cmath.exp(2j * math.pi * ((n * th) % 1.0)) for n in range(n_max + 1)]
            self.rows = [[complex(_poly(germ[j], z)) for j in range(len(germ))]
                         for z in zs]

    def row(self, n: int) -> list[complex]:
        return self.rows[n] if self.moving else self.const


def _step(c: list[complex], w: complex) -> complex:
    acc = c[-1]
    for j in range(len(c) - 2, -1, -1):
        acc = acc * w + c[j]
    return acc


def _escape_steps(c: list[complex], w0: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """First n <= limit with |w_n| > R for a z-independent map, vectorized;
    limit + 1 where the orbit stays inside the radius through step limit."""
    first = limit + 1
    w = w0.copy()
    live = np.arange(len(w0))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(int(limit.max()) + 1):
            esc = ~(np.abs(w) <= ESCAPE_RADIUS)
            first[live[esc]] = n
            keep = ~esc & (limit[live] > n)
            w, live = w[keep], live[keep]
            if not len(w):
                break
            acc = np.full_like(w, c[-1])
            for j in range(len(c) - 2, -1, -1):
                acc = acc * w + c[j]
            w = acc
    return first


def slice_check(germ: np.ndarray, rotation: dict, z0: float, grid: tuple,
                n_max: int, seed: int, basin_grid: bool, per_class: int = 60):
    re0, re1, im0, im1, res = grid
    re = np.linspace(re0, re1, res)
    im = np.linspace(im0, im1, res)
    sched = FiberSchedule(germ, rotation, z0, n_max)
    state: dict = {}

    def ppm_and_summary(s):
        expect("code" in state, "slice.csv unreadable")
        code = state["code"]
        counts = s["verdict_counts"]
        expect(sum(counts.values()) == res * res, "verdict counts do not sum to res^2")
        ref = {"undecided": int(np.sum(code == 0)), "escape": int(np.sum(code == 1)),
               "petal": int(np.sum((code >= 100) & (code < 200))),
               "basin": int(np.sum(code >= 200))}
        expect(counts == ref, f"verdict counts {counts} != CSV {ref}")
        if basin_grid:
            expect(len(s["cycles"]) == 1 and sorted(map(tuple, s["cycles"][0]))
                   == [(-1.0, 0.0), (0.0, 0.0)], f"cycles {s['cycles']}")
        text = (state["out"] / "slice.ppm").read_text().split()
        expect(text[:4] == ["P3", str(res), str(res), "255"], "PPM header")
        px = np.array(text[4:], dtype=np.int64).reshape(-1, 3)
        expect(len(px) == res * res, "PPM size")
        codes, inv = np.unique(code, return_inverse=True)
        want = np.array([palette(int(c)) for c in codes])[inv.ravel()]
        bad = np.flatnonzero(np.any(px != want, axis=1))
        expect(len(bad) == 0, f"{len(bad)} PPM pixels disagree with their "
               f"verdict codes (first at {bad[:1]})")

    def values(a):
        expect(len(a) == res * res, f"{len(a)} rows, want {res * res}")
        expect(np.array_equal(a[:, 0], np.tile(re, res))
               and np.array_equal(a[:, 1], np.repeat(im, res)), "grid coordinates")
        code, n_stop = a[:, 2].astype(np.int64), a[:, 3].astype(np.int64)
        expect(np.all((code == 0) | (code == 1) | ((code >= 100) & (code < 104))
                      | (code >= 200)), "verdict code out of range")
        expect(np.all((n_stop >= 0) & (n_stop <= n_max)), "n_stop out of range")
        expect(np.all(n_stop[code == 0] == n_max), "undecided before n_max")
        state["code"] = code
        w0 = a[:, 0] + 1j * a[:, 1]
        # escape pixels escape exactly at n_stop, others not before it: every
        # pixel when the fiber map is constant, a seeded sample otherwise
        if not sched.moving:
            first = _escape_steps(sched.const, w0, n_stop)
            esc = code == 1
            expect(np.array_equal(first[esc], n_stop[esc]),
                   f"{int(np.sum(first[esc] != n_stop[esc]))} escape pixels "
                   f"disagree on n_stop")
            expect(np.all(first[~esc] > n_stop[~esc]), "escape before the verdict")
        summary = state["summary"]
        expect(summary is not None, "slice.json unreadable")
        cycles = [[complex(*p) for p in cyc] for cyc in summary["cycles"]]
        rng = np.random.default_rng([seed, 7])
        classes = [code == 0, code == 1, (code >= 100) & (code < 200), code >= 200]
        for members in classes:
            members = np.flatnonzero(members)
            for i in rng.choice(members, min(per_class, len(members)), replace=False):
                replay_pixel(complex(w0[i]), int(code[i]), int(n_stop[i]), cycles)

    def replay_pixel(w: complex, code: int, n_stop: int, cycles) -> None:
        """Plain Python complex iteration of one pixel."""
        first_esc = None
        for n in range(n_stop + 1):
            if not abs(w) <= ESCAPE_RADIUS:
                first_esc = n
                break
            if n < n_stop:
                w = _step(sched.row(n), w)
        if code == 1:
            expect(first_esc == n_stop, f"escape pixel: escapes at {first_esc}, "
                   f"n_stop {n_stop}")
            return
        expect(first_esc is None, f"pixel with code {code} escapes at {first_esc}")
        if code >= 200:
            cid = code - 200
            expect(cid < len(cycles) and min(abs(w - p) for p in cycles[cid]) < 1e-3,
                   f"basin pixel ends at {w}, away from cycle {cid}")
        elif code >= 100:
            w_stop = abs(w)
            expect(w_stop < 0.75, f"petal pixel ends at |w|={w_stop}")
            for n in range(n_stop, 4 * n_stop + 200):
                w = _step(sched.row(min(n, n_max)), w)
                expect(abs(w) <= 1.0, "petal orbit leaves the unit disk")
            expect(abs(w) <= 0.5 * w_stop, f"petal orbit does not approach 0: "
                   f"|w|={abs(w)} from {w_stop}")

    def check(out: Path) -> list[Op]:
        state.clear()
        state["out"] = out
        try:
            state["summary"] = json.loads((out / "slice.json").read_text())
        except (OSError, ValueError):
            state["summary"] = None
        csv_result = csv_op(out / "slice.csv", SLICE_HEADER, values)
        return [json_op("slice", out / "slice.json", ppm_and_summary), csv_result]
    return check


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

ORBIT_HEADER = ["n", "re_z", "im_z", "re_w", "im_w", "dlog", "dlog_partial_sum"]


def orbit_check(fiber: list[complex], w0: complex, n_max: int, full: bool,
                k: int | None = None):
    c = [complex(x) for x in fiber]
    dc = [j * c[j] for j in range(1, len(c))]
    table = {}

    def values(a):
        expect(np.array_equal(a[:, 0], np.arange(len(a))), "n column")
        expect(np.all(a[:, 1:3] == 0), "z columns on the fiber z = 0")
        w = a[:, 3] + 1j * a[:, 4]
        expect(w[0] == w0, f"w_0 = {w[0]} != {w0}")
        # each row is one step of g from the previous one
        g = np.polyval(c[::-1], w[:-1])
        expect(np.allclose(w[1:], g, rtol=1e-12, atol=1e-300), "w_{n+1} != g(w_n)")
        dlog = np.log(np.abs(np.polyval(dc[::-1], w[:-1])))
        expect(np.allclose(a[:-1, 5], dlog, rtol=0, atol=1e-12),
               "dlog != log|g'(w_n)|")
        expect(math.isnan(a[-1, 5]), "last dlog is not NaN")
        sums = np.concatenate([[0.0], np.cumsum(a[:-1, 5])])
        expect(np.allclose(a[:, 6], sums, rtol=1e-9, atol=1e-9), "dlog partial sums")
        table["w"] = w
        if full:
            expect(len(a) == n_max + 1, f"{len(a)} rows, want {n_max + 1}")
            val = n_max ** (1.0 / k) * abs(w[n_max])
            target = k ** (-1.0 / k)
            expect(0.9 * target <= val <= 1.1 * target,
                   f"n^(1/k)|w_n| = {val:.4f}, want {target:.4f} +- 10%")
        else:
            expect(np.all(np.abs(w) <= 1.0), "Siegel orbit leaves the unit disk")

    def summary(s):
        if full:
            expect(s["verdict"] == "ParabolicPetal(0)" and s["stop_reason"] == "petal",
                   f"verdict {s['verdict']}")
            expect(1 <= s["n_stop"] < n_max, f"n_stop {s['n_stop']}")
        else:
            expect(s["verdict"] == "Undecided" and s["stop_reason"] == "n_max",
                   f"verdict {s['verdict']}")
            expect(s["n_stop"] == n_max, f"n_stop {s['n_stop']} != {n_max}")
            expect("w" in table and len(table["w"]) == n_max + 1,
                   "undecided orbit is not recorded to n_max")

    def check(out: Path) -> list[Op]:
        table.clear()
        ops = [csv_op(out / "orbit.csv", ORBIT_HEADER, values)]
        ops.insert(0, json_op("orbit", out / "orbit.json", summary))
        return ops
    return check


def hypotheses_check(fiber: list[complex], n_max: int, petal_k: int | None):
    deriv = [j * complex(fiber[j]) for j in range(len(fiber) - 1, 0, -1)]
    with mpmath.workprec(200):
        roots = [complex(r) for r in
                 mpmath.polyroots([mpmath.mpc(d.real, d.imag) for d in deriv],
                                  maxsteps=200, extraprec=200)]

    def summary(s):
        pts = s["critical_points"]
        expect(len(pts) == len(roots), f"{len(pts)} critical points, want {len(roots)}")
        left = list(roots)
        for p in pts:
            z = complex(*p["point"])
            r = min(left, key=lambda x: abs(x - z))
            expect(abs(r - z) <= 1e-12, f"critical point {z} vs mpmath {r}")
            left.remove(r)
            expect(p["root_defect"] <= 1e-12, f"root defect {p['root_defect']}")
            if petal_k is None:
                expect(p["verdict"] == "Undecided" and p["n_stop"] == n_max,
                       f"Siegel critical orbit: {p['verdict']} at {p['n_stop']}")
            else:
                j = round(cmath.phase(z) * petal_k / (2 * math.pi)) % petal_k
                expect(p["verdict"] == f"ParabolicPetal({j})" and p["n_stop"] < n_max,
                       f"critical point {z}: {p['verdict']}, want petal {j}")
        expect(s["plausible"] is (petal_k is not None), "plausible flag")

    def check(out: Path) -> list[Op]:
        return [json_op("hypotheses", out / "hypotheses.json", summary)]
    return check


def petalcheck_check(samples: int):
    def summary(s):
        fwd, rep = s["forward_invariance"], s["repelling_expansion"]
        expect(fwd["samples"] == samples and rep["samples"] == samples, "samples")
        expect(fwd["violations"] == 0, f"{fwd['violations']} invariance violations")
        expect(fwd["worst_margin"] >= 0, "negative invariance margin")
        expect(rep["violations"] == 0, f"{rep['violations']} expansion violations")
        expect(rep["min_derivative_modulus"] > 1, "min |g'| <= 1")

    def check(out: Path) -> list[Op]:
        return [json_op("petalcheck", out / "petalcheck.json", summary)]
    return check


def version_check(version: str):
    def check(stdout: str) -> list[Op]:
        got = stdout.strip()
        return [Op("version", None if got == version else f"--version printed {got!r}")]
    return check
