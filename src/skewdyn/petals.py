"""Parabolic local dynamics: petal geometry, orbit classification and
vertical-derivative diagnostics.

Petals are pullbacks of half-planes under u = 1/(k w^k): attracting petal j
is {Re u > R - eta |Im u|} inside the sector |arg w - 2 pi j / k| < pi/k,
with R = 1/(k rho^k).  Orbit verdicts come from a fixed state machine:

  escape     |w_n| > escape radius (checked before every step, n = 0 first);
  petal      |w_n| decreasing toward 0 (halving gate over the streak) with
             arg w_n within arg_tol of an attracting direction, sustained
             for `window` steps - only for maps with a parabolic fixed fiber
             point.  The sector test needs no trigonometry: with
             v = (w e^{-i base})^k it is Re v >= cos(k arg_tol) |w|^k, and
             when k arg_tol >= pi it passes every nonzero w, since every
             angle lies within pi/k of some direction;
  basin      a cycle detected by Floyd tortoise/hare comparison and then
             confirmed by stable recurrence (period <= period_cap) for
             `window` steps;
  undecided  the step budget ran out first.

Thresholds come only through OrbitConfig.  Whether the fiber map at z = 0 is
parabolic, and of which order k, is decided by one rule with its own
tolerances, normalform.detect_parabolic_order.

Grids run through a vectorized lockstep engine.  It drops all-zero top
w-degrees (0 * w is exact for the finite w of undecided points) and, every
8 steps, compacts its arrays to the undecided points once fewer than 90%
remain.  Single orbits step their trajectory first, untrimmed (they record
values past an escape), and replay the same rules over the time axis.  The
differential test tests/test_petals.py::test_single_orbit_path_matches_engine
keeps the two paths' verdicts equal.  Grid results are pure functions of
the inputs, independent of chunking or thread count.

A basin's cycle is named by one rule, for slices and single orbits alike:
its points are stepped from the verdict state on arrays by the engine's own
Horner (_step), each coordinate is keyed as rint(x 10^4), half to even
(-0 read as 0), and the key is the sorted tuple of keyed points.  A slice
keys all basin pixels of one period together and ranks the distinct keys,
so its cycle ids are canonical, never in discovery order; a single orbit's
cycle_representative is the point whose key sorts first.  A slice merges
the keys that one cycle takes on both sides of a rounding tie: where the
raw points of a key's first pixel lie within TIE_DELTA key units of a tie
in some coordinate, the key with that coordinate rounded the other way,
if present, joins it under the smaller name.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import struct
from typing import NamedTuple, Sequence

from ._np import np
from .errors import LinearFiberError
from .normalform import detect_parabolic_order
from .rotation import _CHUNK, RotationNumber, unit_column
from .series import SkewGerm, TruncatedSeries, _horner

TWO_PI = 2.0 * math.pi

# verdict kinds
UNDECIDED, ESCAPE, PETAL, BASIN = 0, 1, 2, 3
_KIND_NAMES = {UNDECIDED: "Undecided", ESCAPE: "Escape",
               PETAL: "ParabolicPetal", BASIN: "AttractingBasin"}

# CSV/pixmap verdict codes
CODE_UNDECIDED = 0
CODE_ESCAPE = 1
CODE_PETAL_BASE = 100   # + direction index
CODE_BASIN_BASE = 200   # + canonical cycle id

BASIN_COLORS = [(228, 26, 28), (55, 126, 184), (255, 127, 0), (152, 78, 163),
                (255, 255, 51), (166, 86, 40), (247, 129, 191), (0, 206, 209)]
PETAL_GREENS = [(0, 100, 0), (34, 139, 34), (60, 179, 113), (144, 238, 144)]
ESCAPE_COLOR = (255, 255, 255)
UNDECIDED_COLOR = (0, 0, 0)


class Verdict(NamedTuple):
    kind: int
    index: int = -1

    @property
    def name(self) -> str:
        return _KIND_NAMES[self.kind]

    def __repr__(self) -> str:
        if self.kind in (PETAL, BASIN):
            return f"{self.name}({self.index})"
        return self.name


class OrbitConfig(NamedTuple):
    """Classification thresholds: the only way to set them."""
    window: int = 50           # confirmation steps for petal and cycle verdicts
    arg_tol: float = 0.2       # radians around an attracting direction
    cycle_tol: float = 1e-9    # absolute recurrence tolerance
    escape_radius: float = 1e6
    period_cap: int = 64
    petal_shrink: float = 0.5  # |w| must halve over a petal streak
    petal_gate: float = 0.75   # petal bookkeeping only below this radius


DEFAULT_CONFIG = OrbitConfig()
CYCLE_ROUND = 4   # decimals for canonical cycle grouping
TIE_DELTA = 1e-4  # key units (10^-8 at 4 decimals) from a rounding tie
MAX_PETAL_ORDER = 4096


# ---------------------------------------------------------------------------
# Petal geometry
# ---------------------------------------------------------------------------

def directions_for_jet(lead: complex, k: int) -> float:
    """Base angle of the attracting directions of w -> w + lead*w^{k+1}, the
    rays with lead*v^k < 0: direction j points at base + 2 pi j/k."""
    if lead == 0:
        raise ValueError("leading jet coefficient must be nonzero")
    return (math.pi - cmath.phase(lead)) / k


def in_attracting_petal(w, k: int, rho: float, eta: float):
    """Direction index of the attracting petal containing w.

    Petal j: the sector |arg w - 2 pi j/k| < pi/k intersected with the
    pullback of {Re u > R - eta |Im u|}, u = 1/(k w^k), R = 1/(k rho^k).
    With delta = arg w - 2 pi j/k the half-plane condition reads
    cos(k delta) + eta |sin(k delta)| > (|w|/rho)^k, which is tested in that
    form so that w^k can neither overflow nor underflow.

    w is a complex scalar; the result is the index, or None when w lies in
    no petal (as every non-finite w does).  w = 0, the fixed point, is
    refused.
    """
    if rho <= 0 or not 0.0 <= eta < 1.0:
        raise ValueError("need rho > 0 and 0 <= eta < 1")
    w = complex(w)
    if w == 0:
        raise ValueError("w = 0 is the fixed point, not a petal point")
    j = _petal_index(w, k, rho, eta)
    return j if j >= 0 else None


def _petal_index(w: complex, k: int, rho: float, eta: float) -> int:
    """in_attracting_petal for a nonzero w, unchecked: -1 for no petal."""
    if not cmath.isfinite(w):
        return -1
    ang = math.atan2(w.imag, w.real)
    j = round(ang * k / TWO_PI) % k
    delta = (ang - TWO_PI * j / k + math.pi) % TWO_PI - math.pi
    if not abs(delta) < math.pi / k:
        return -1
    try:
        ratio = (abs(w) / rho) ** k
    except OverflowError:  # an infinite ratio, which no petal point reaches
        return -1
    return j if math.cos(k * delta) + eta * abs(math.sin(k * delta)) > ratio else -1


class ParabolicLocal:
    """Vertical map w - w^{k+1} + b w^{2k+1} + sum beta_m(z) w^m with petal
    parameters; `rot` is only needed when the tail makes fibers matter."""
    __slots__ = ("k", "b", "tail", "rho", "eta", "rot")

    def __init__(self, k: int, b: complex = 0j,
                 tail: tuple[TruncatedSeries, ...] = (),  # orders 2k+2, 2k+3, ...
                 rho: float = 0.1, eta: float = 0.25,
                 rot: RotationNumber | None = None):
        if k < 1:
            raise ValueError("k must be at least 1")
        if k > MAX_PETAL_ORDER:  # z_coefficients builds 2k+2 lists
            raise ValueError(f"k must be at most {MAX_PETAL_ORDER}")
        if rho <= 0 or not 0.0 <= eta < 1.0:
            raise ValueError("need rho > 0 and 0 <= eta < 1")
        try:
            scale = k * rho ** k
        except OverflowError:
            scale = math.inf
        if not (0.0 < scale < math.inf and 1.0 / scale < math.inf):
            raise ValueError(f"k * rho^k = {scale!r} (k = {k}, rho = "
                             f"{rho!r}): R = 1/(k rho^k) needs both to be "
                             "positive finite doubles")
        self.k, self.b, self.tail = k, b, tail
        self.rho, self.eta, self.rot = rho, eta, rot

    @property
    def dw(self) -> int:
        if self.tail:
            return 2 * self.k + 1 + len(self.tail)
        return 2 * self.k + 1 if self.b != 0 else self.k + 1

    def z_coefficients(self) -> list[list[complex]]:
        """Each w-coefficient as a z-polynomial, lowest order first: 1 at w,
        -1 at w^{k+1}, b at w^{2k+1}, the tail above."""
        c = [[0j] for _ in range(self.dw + 1)]
        c[1], c[self.k + 1] = [1.0 + 0j], [-1.0 + 0j]
        if self.b != 0:
            c[2 * self.k + 1] = [complex(self.b)]
        c[2 * self.k + 2:] = [s.to_complex_list() for s in self.tail]
        return c


class ConstantVerticalMap:
    """A z-independent polynomial fiber map (used for critical orbits)."""

    radius = math.inf

    def __init__(self, coeffs, rot: RotationNumber | None = None):
        self.coeffs = [complex(c) for c in coeffs]
        self.rot = rot

    def fiber_constants(self) -> list[complex]:
        return list(self.coeffs)


# ---------------------------------------------------------------------------
# Coefficient schedules
# ---------------------------------------------------------------------------

def _coeff_lists(F) -> tuple[list[list[complex]], RotationNumber | None]:
    """Vertical coefficients as plain z-polynomials, lowest order first."""
    if isinstance(F, SkewGerm):
        return [s.to_complex_list() for s in F.a], F.rot
    if isinstance(F, ParabolicLocal):
        return F.z_coefficients(), F.rot
    if isinstance(F, ConstantVerticalMap):
        return [[c] for c in F.coeffs], F.rot
    raise TypeError("expected a SkewGerm, ParabolicLocal or ConstantVerticalMap")


def _z_schedule(rot: RotationNumber | None, z0: complex, n: int) -> np.ndarray:
    """The fiber base points lam^m z0 for m = 0..n."""
    if rot is None or z0 == 0:
        return np.full(n + 1, complex(z0))
    return unit_column(rot, n).lam * z0


def _coeff_matrix(F, z0: complex, n_max: int) -> np.ndarray:
    """C[n, j] = a_j(lam^n z0) for every step of the fiber schedule."""
    radius = getattr(F, "radius", math.inf)
    if abs(z0) >= radius:
        raise ValueError(f"|z0| = {abs(z0)} outside validity radius {radius}")
    lists, rot = _coeff_lists(F)
    z_moves = z0 != 0 and any(any(x != 0 for x in c[1:]) for c in lists)
    if z_moves and rot is None:
        raise ValueError("a rotation number is required when fibers move")
    zs = _z_schedule(rot, z0, n_max) if z_moves else None
    # at least w-degree 1: a constant map g = c steps as c + 0 w, so every
    # Horner step over a row returns an array
    out = np.zeros((n_max + 1, max(2, len(lists))), dtype=complex)
    for j, c in enumerate(lists):
        if zs is not None and any(x != 0 for x in c[1:]):
            out[:, j] = np.polyval(np.array(c[::-1], dtype=complex), zs)
        else:
            out[:, j] = c[0]  # constant coefficient, or evaluation at z = 0
    return out


def _parabolic_data(F):
    """(is_parabolic, k, base_angle) for the fiber map at z = 0, by the
    rule of normalform.detect_parabolic_order."""
    if isinstance(F, ParabolicLocal):
        return True, F.k, directions_for_jet(-1.0 + 0j, F.k)
    try:
        k = detect_parabolic_order(F)
    except (ValueError, LinearFiberError):
        return False, 0, 0.0
    return True, k, directions_for_jet(F.fiber_constants()[k + 1], k)


# ---------------------------------------------------------------------------
# The classification engine
# ---------------------------------------------------------------------------

class _EngineResult(NamedTuple):
    kind: np.ndarray
    index: np.ndarray          # petal direction for PETAL verdicts
    n_stop: np.ndarray
    w_verdict: np.ndarray      # state at the step the verdict fired
    period: np.ndarray         # confirmed cycle period for BASIN verdicts


def _in_sector(w: np.ndarray, a: np.ndarray, k: int, base_angle: float,
               arg_tol: float) -> np.ndarray:
    """Whether arg w lies within arg_tol of an attracting direction, given
    a = |w| (the module docstring's test; |w|^k must not underflow)."""
    if k * arg_tol >= math.pi:
        return np.ones(len(w), dtype=bool)
    v = u = w * cmath.exp(-1j * base_angle)
    for _ in range(k - 1):
        v = v * u
    return v.real >= math.cos(k * arg_tol) * (a if k == 1 else a ** k)


def _direction_index(w: np.ndarray, k: int, base_angle: float) -> np.ndarray:
    """Index j of the attracting direction nearest to arg w."""
    return (np.rint((np.angle(w) - base_angle) * k / TWO_PI)
            .astype(np.int64) % k)


class _State:
    """Per-point engine state, compactable to the undecided subset."""

    __slots__ = ("ids", "w", "prev_abs", "streak", "streak_bound", "tort",
                 "anchored", "anchor", "anchor_step", "last_hit", "period")

    def __init__(self, w0: np.ndarray):
        m = len(w0)
        self.ids = np.arange(m, dtype=np.int32)
        # w and tort are rebound to new arrays by every step and never
        # written in place, so both may start as the caller's array
        self.w = self.tort = np.asarray(w0, dtype=complex)
        self.prev_abs = np.abs(self.w)
        self.streak = np.zeros(m, dtype=np.int32)
        self.streak_bound = np.zeros(m)  # petal_shrink |w| at streak start
        self.anchored = np.zeros(m, dtype=bool)
        self.anchor = np.zeros(m, dtype=complex)
        self.anchor_step = np.zeros(m, dtype=np.int32)
        self.last_hit = np.zeros(m, dtype=np.int32)
        self.period = np.zeros(m, dtype=np.int32)

    def compact(self, keep: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])


def _step(row: np.ndarray, w: np.ndarray) -> np.ndarray:
    """_horner(row, w) for a row of at least two coefficients, built in one
    new array (same operations in the same order: acc * w, then + c)."""
    acc = row[-1] * w
    acc += row[-2]
    for c in row[-3::-1]:
        acc *= w
        acc += c
    return acc


def _run_engine(C: np.ndarray, w0: np.ndarray, n_max: int,
                parabolic: bool, k: int, base_angle: float,
                cfg: OrbitConfig) -> _EngineResult:
    """Advance all points in lockstep through the shared fiber schedule C,
    until every point has a verdict or n_max steps are taken.

    Verdict checks run in a fixed order every step (escape, petal, cycle);
    each point's outcome is a pure function of its own start, so results do
    not depend on how callers batch the points.  Settled points are stepped
    on, never read, until the next compaction.  Step counts are held as
    int32, so n_max must be below 2^31 (fatou_slice checks it).
    """
    live = np.flatnonzero(C.any(axis=0))
    C = C[:, :max(2, live.max(initial=0) + 1)]
    m = len(w0)
    kind = np.zeros(m, dtype=np.int8)
    index = np.full(m, -1, dtype=np.int32)
    n_stop = np.full(m, n_max, dtype=np.int64)
    w_verdict = np.zeros(m, dtype=complex)
    period_out = np.zeros(m, dtype=np.int64)

    st = _State(w0)
    del w0  # then only st.w and st.tort hold it, until the first steps
    undecided = np.ones(m, dtype=bool)  # aligned with st arrays

    def settle(mask: np.ndarray, verdict: int, n: int) -> None:
        gids = st.ids[mask]
        kind[gids] = verdict
        n_stop[gids] = n
        w_verdict[gids] = w = st.w[mask]
        if verdict == PETAL:
            index[gids] = _direction_index(w, k, base_angle)
        elif verdict == BASIN:
            period_out[gids] = st.period[mask]
        undecided[mask] = False
        st.anchored[mask] = False
        st.streak[mask] = 0

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for n in range(n_max + 1):
            cur_abs = np.abs(st.w)

            # the max is NaN when any modulus is
            if not cur_abs.max(initial=0.0) <= cfg.escape_radius:
                settle(~(cur_abs <= cfg.escape_radius) & undecided, ESCAPE, n)

            if parabolic and n >= 1:
                qual = ((cur_abs < np.minimum(st.prev_abs, cfg.petal_gate,
                                              out=st.prev_abs))
                        & (cur_abs > 0.0) & undecided)
                if qual.any():
                    qual &= _in_sector(st.w, cur_abs, k, base_angle,
                                       cfg.arg_tol)
                np.multiply(cur_abs, cfg.petal_shrink, out=st.streak_bound,
                            where=st.streak == 0)
                st.streak += qual
                st.streak *= qual
                if st.streak.max(initial=0) >= max(cfg.window, 1):
                    hit = st.streak >= max(cfg.window, 1)  # >= 1: qual now
                    hit &= cur_abs <= st.streak_bound
                    if hit.any():
                        settle(hit, PETAL, n)

            if n >= 2 and n % 2 == 0:
                st.tort = _step(C[n // 2 - 1], st.tort)
            if n >= 2:
                catch = np.abs(st.w - st.tort) < cfg.cycle_tol
                if catch.any():
                    catch &= undecided & ~st.anchored
                    st.anchored |= catch
                    st.anchor[catch] = st.w[catch]
                    st.anchor_step[catch] = n
                    st.last_hit[catch] = n
                    st.period[catch] = 0
                act = st.anchored  # settle() unanchors what it settles
                if act.any():
                    near = act & (np.abs(st.w - st.anchor) < cfg.cycle_tol)
                    gap = n - st.last_hit
                    is_new = near & (gap > 0)
                    first = is_new & (st.period == 0)
                    ok_gap = first & (gap <= cfg.period_cap)
                    st.period[ok_gap] = gap[ok_gap]
                    st.anchored[first & ~ok_gap] = False
                    mism = is_new & ~first & (gap != st.period)
                    if mism.any():
                        st.anchor[mism] = st.w[mism]
                        st.anchor_step[mism] = n
                        st.period[mism] = 0
                    st.last_hit[is_new & st.anchored] = n
                    confirm = (st.anchored & near & (st.period > 0)
                               & (n - st.anchor_step >= cfg.window))
                    if confirm.any():
                        settle(confirm, BASIN, n)
                    st.anchored[st.last_hit < n - cfg.period_cap] = False

            if n == n_max or not undecided.any():
                break
            st.prev_abs = cur_abs
            if (len(st.w) > 256 and n % 8 == 7
                    and np.count_nonzero(undecided) < 0.9 * len(st.w)):
                st.compact(undecided)
                undecided = np.ones(len(st.w), dtype=bool)
            st.w = _step(C[n], st.w)

    return _EngineResult(kind, index, n_stop, w_verdict, period_out)


# ---------------------------------------------------------------------------
# Single-orbit path
#
# For one point the per-step bookkeeping above is pure overhead, so the
# trajectory is stepped first (same _horner array op, equal values: the
# engine's trimmed degrees add only exact zeros) and the verdict rules are
# replayed vectorized over the time axis.
# The tortoise needs no separate recurrence: advancing it t times applies
# exactly the map compositions that produced W[t].  Every rule is causal, so
# a replay over a prefix finds exactly the verdicts that fire inside it:
# with stop_at_verdict the trajectory grows in doubling blocks (64 steps,
# then 128, ...) and stepping ends with the first block that holds a
# verdict, which keeps early verdicts cheap.  The differential tests
# tests/test_petals.py::test_single_orbit_path_matches_engine (real maps)
# and ..._on_scripted_orbits (automaton edge cases) require the verdict,
# index, stop step, period and verdict state to equal _run_engine's.
# ---------------------------------------------------------------------------

def _first_petal_hit(ws: np.ndarray, a: np.ndarray, k: int, base_angle: float,
                     cfg: OrbitConfig) -> tuple[int, int] | None:
    n = len(ws) - 1
    qual = np.zeros(n + 1, dtype=bool)
    qual[1:] = ((a[1:] > 0.0) & (a[1:] < a[:-1]) & (a[1:] < cfg.petal_gate)
                & _in_sector(ws[1:], a[1:], k, base_angle, cfg.arg_tol))
    idx = np.arange(n + 1)
    last_nonqual = np.maximum.accumulate(np.where(qual, -1, idx))
    streak = idx - last_nonqual
    start_abs = a[np.minimum(last_nonqual + 1, n)]
    hit = qual & (streak >= cfg.window) & (a <= cfg.petal_shrink * start_abs)
    pos = np.flatnonzero(hit)
    if len(pos) == 0:
        return None
    return int(pos[0]), int(_direction_index(ws[pos[0]], k, base_angle))


def _first_cycle_confirm(ws: np.ndarray, cfg: OrbitConfig) -> tuple[int, int] | None:
    """Replay the tortoise/anchor automaton over a finished trajectory.

    The engine's tortoise equals ws[n // 2] bit for bit (same recurrence),
    so catches reduce to one vectorized comparison; the event walk below
    mirrors the per-step transitions: anchor on a catch, fix the period from
    the first recurrence gap, re-anchor on a gap mismatch, abandon the
    anchor when no recurrence comes within period_cap steps, confirm after
    `window` steps anchored.  Only the period_cap + 1 steps after the last
    recurrence can hold the next one, so each transition reads a bounded
    slice of ws.
    """
    top = len(ws) - 1
    if top < 2:
        return None
    diff = np.abs(ws - ws[np.arange(top + 1) // 2])
    catches = np.flatnonzero(diff[2:] < cfg.cycle_tol) + 2
    scan_from = 2
    while True:
        pos = np.searchsorted(catches, scan_from)
        if pos == len(catches):
            return None
        anchor_step = last_hit = int(catches[pos])
        period = 0
        while True:
            stale_at = last_hit + cfg.period_cap + 1
            near = np.flatnonzero(np.abs(ws[last_hit + 1:stale_at + 1]
                                         - ws[anchor_step]) < cfg.cycle_tol)
            if len(near) == 0:
                break
            gap = int(near[0]) + 1
            if period == 0 and gap > cfg.period_cap:
                break  # the anchor is dropped at stale_at either way
            last_hit += gap
            if period == 0:
                period = gap
            elif gap != period:
                anchor_step, period = last_hit, 0
            if period > 0 and last_hit - anchor_step >= cfg.window:
                return last_hit, period
        scan_from = stale_at + 1


def _first_verdict(ws: np.ndarray, parabolic: bool, k: int, base_angle: float,
                   cfg: OrbitConfig) -> tuple[int, int, int, int] | None:
    """(n, kind, index, period) of the first verdict along ws, or None.

    The kind codes ESCAPE < PETAL < BASIN follow the engine's check order
    within a step, so the minimum picks the verdict the engine settles."""
    a = np.abs(ws)
    found = []
    esc = np.flatnonzero(~(a <= cfg.escape_radius))
    if len(esc):
        found.append((int(esc[0]), ESCAPE, -1, 0))
    if parabolic:
        ph = _first_petal_hit(ws, a, k, base_angle, cfg)
        if ph is not None:
            found.append((ph[0], PETAL, ph[1], 0))
    cy = _first_cycle_confirm(ws, cfg)
    if cy is not None:
        found.append((cy[0], BASIN, -1, cy[1]))
    return min(found, default=None)


def _run_single(C: np.ndarray, w0: complex, n_max: int,
                parabolic: bool, k: int, base_angle: float,
                cfg: OrbitConfig, stop_at_verdict: bool):
    """Trajectory-first replay of the engine rules for one point.

    Returns (kind, index, n_stop, period, ws, dlogs).  ws ends at n_stop
    when stop_at_verdict is set and a verdict fired, at n_max otherwise;
    dlogs[n] = log |g_n'(ws[n])| for every step taken."""
    ws = np.empty(n_max + 1, dtype=complex)
    ws[0] = w0
    w = ws[:1].copy()
    done, block = 0, 64
    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        while True:
            top = min(n_max, done + block) if stop_at_verdict else n_max
            for n in range(done, top):
                w = _horner(C[n], w)
                ws[n + 1] = w[0]
                if stop_at_verdict and not abs(w[0]) <= cfg.escape_radius:
                    top = n + 1  # escape is final; the replay confirms it
                    break
            done, block = top, 2 * block
            verdict = _first_verdict(ws[:done + 1], parabolic, k, base_angle,
                                     cfg)
            if verdict is not None or done == n_max:
                break
        n_stop, kind, index, period = verdict or (n_max, UNDECIDED, -1, 0)
        cut = n_stop if stop_at_verdict else n_max
        rows = C[:cut]
        acc = _horner([rows[:, j] * j for j in range(1, C.shape[1])], ws[:cut])
        dlogs = np.log(np.abs(acc))  # -inf at 0, inf/nan past an overflow
    return kind, index, n_stop, period, ws[:cut + 1], dlogs


def _cycle_points(C: np.ndarray, w: np.ndarray, start: np.ndarray,
                  p: int) -> np.ndarray:
    """The p cycle points from each w[i] as row i of an (n, p) array: point
    j + 1 is point j stepped by _step over row start[i] + j of C (the last
    row past the schedule's end), so each point follows its own rows."""
    pts = np.empty((len(w), p), dtype=complex)
    pts[:, 0] = w
    for i in range(p - 1):
        rows = C[np.minimum(start + i, len(C) - 1)].T
        pts[:, i + 1] = _step(rows, pts[:, i])
    return pts


def _cycle_keys(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, order) of the cycles in the rows of pts: each coordinate x is
    keyed as rint(x 10^CYCLE_ROUND) (-0 read as 0), order[i] sorts row i by
    (real, imag) key, and keys[i] holds the sorted real keys, then their
    imaginary keys.  The keys stay floats: x 10^CYCLE_ROUND may overflow to
    inf."""
    scale = 10.0 ** CYCLE_ROUND
    with np.errstate(over="ignore"):
        kr = np.rint(pts.real * scale) + 0.0
        ki = np.rint(pts.imag * scale) + 0.0
    return _sorted_keys(kr, ki)


def _sorted_keys(kr: np.ndarray,
                 ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((ki, kr))
    return np.hstack([np.take_along_axis(kr, order, axis=1),
                      np.take_along_axis(ki, order, axis=1)]), order


def _tie_keys(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, keys): for each coordinate of the cycle points in the rows of
    pts that lies within TIE_DELTA key units of a rounding tie, its row and
    that row's key with this one coordinate rounded the other way,
    re-sorted as _cycle_keys sorts."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.stack([pts.real, pts.imag]) * 10.0 ** CYCLE_ROUND
        key, low = np.rint(x) + 0.0, np.floor(x)
        part, row, col = np.nonzero(np.abs(x - low - 0.5) <= TIE_DELTA)
    flipped = key[:, row]
    flipped[part, np.arange(len(row)), col] = (
        2.0 * low[part, row, col] + 1.0 - key[part, row, col] + 0.0)
    return row, _sorted_keys(*flipped)[0]


def _merge_tie_splits(names: list[tuple], distinct: np.ndarray,
                      row: np.ndarray, other: np.ndarray) -> list[tuple]:
    """names with key row[t] merged into the smaller of it and other[t],
    the key its representative cycle points take with one coordinate
    rounded the other way at a tie, wherever that key is also among the
    distinct rows.  Merges compose, so every key that a chain of ties
    joins takes the smallest name."""
    if not len(row):
        return names
    index = {r: d for d, r in enumerate(map(tuple, distinct.tolist()))}
    root = list(range(len(names)))

    def find(d: int) -> int:
        while root[d] != d:
            d = root[d]
        return d

    for d, key in zip(row.tolist(), map(tuple, other.tolist())):
        if key in index:
            lo, hi = sorted((find(d), find(index[key])), key=names.__getitem__)
            root[hi] = lo
    return [names[find(d)] for d in range(len(names))]


def _cycle_ids(C: np.ndarray, w: np.ndarray, start: np.ndarray,
               period: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Canonical cycle keys of basin points: the sorted distinct keys, each
    a tuple of (re, im) points rounded to CYCLE_ROUND decimals in sorted
    order, and each point's index into them.  Keys split by a rounding tie
    are merged (_merge_tie_splits), judged by the raw cycle points of each
    key's first point."""
    keys: list[tuple] = []
    which = np.empty(len(w), dtype=np.int64)
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for p in sorted(set(period.tolist())):
        sel = np.flatnonzero(period == p)
        pts = _cycle_points(C, w[sel], start[sel], p)
        distinct, first, inv = np.unique(_cycle_keys(pts)[0], axis=0,
                                         return_index=True,
                                         return_inverse=True)
        which[sel] = len(keys) + inv.reshape(-1)
        names = [tuple(zip(r[:p], r[p:]))
                 for r in (distinct / 10.0 ** CYCLE_ROUND).tolist()]
        keys += _merge_tie_splits(names, distinct, *_tie_keys(pts[first]))
    ordered = sorted(set(keys))
    pos = {key: c for c, key in enumerate(ordered)}
    rank = np.array([pos[key] for key in keys], dtype=np.int64)
    return ordered, rank[which]


# ---------------------------------------------------------------------------
# Orbit records
# ---------------------------------------------------------------------------

class OrbitRecord(NamedTuple):
    """A finite orbit with per-step vertical derivative logs.

    ws[n] = w_n and zs[n] = lam^n z_0; dlogs[n] = log |dg_{z_n}/dw (w_n)|
    for every step taken.  n_stop marks the step where the verdict fired
    (or the budget ran out); with stop_at_verdict=False recording continues
    past it.
    """
    z0: complex
    w0: complex
    ws: np.ndarray
    zs: np.ndarray
    dlogs: np.ndarray
    verdict: Verdict
    n_stop: int
    stop_reason: str
    cycle_period: int | None = None
    cycle_representative: complex | None = None


def iterate_orbit(F, z0: complex, w0: complex, n_max: int,
                  config: OrbitConfig | None = None,
                  stop_at_verdict: bool = True) -> OrbitRecord:
    """Iterate the vertical map over the rotating fiber and classify."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    cfg = config or DEFAULT_CONFIG
    C = _coeff_matrix(F, z0, n_max)
    parabolic, k, base = _parabolic_data(F)
    kind, index, n_stop, period, ws, dlogs = _run_single(
        C, complex(w0), n_max, parabolic, k, base, cfg, stop_at_verdict)
    rep = None
    if kind == BASIN:
        pts = _cycle_points(C, ws[n_stop:n_stop + 1], np.array([n_stop]), period)
        rep = complex(pts[0, _cycle_keys(pts)[1][0, 0]])
        verdict = Verdict(BASIN, 0)
    elif kind == PETAL:
        verdict = Verdict(PETAL, index)
    else:
        verdict = Verdict(kind)
    zs = _z_schedule(getattr(F, "rot", None), z0, len(ws) - 1)
    reason = {ESCAPE: "escape", PETAL: "petal", BASIN: "cycle"}.get(kind, "n_max")
    return OrbitRecord(z0=complex(z0), w0=complex(w0), ws=ws, zs=zs,
                       dlogs=dlogs, verdict=verdict, n_stop=n_stop,
                       stop_reason=reason,
                       cycle_period=period if kind == BASIN else None,
                       cycle_representative=rep)


def vertical_derivative_sum(orbit: OrbitRecord) -> np.ndarray:
    """Partial sums of log |dg/dw| along the orbit: entry n covers steps < n.

    The growth of these sums is the computable surrogate for vertical
    tangent-vector expansion along non-normal orbits."""
    if len(orbit.dlogs) == 0:
        raise ValueError("orbit has no recorded steps")
    out = np.empty(len(orbit.dlogs) + 1)
    out[0] = 0.0
    np.cumsum(orbit.dlogs, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# Sampling checks
# ---------------------------------------------------------------------------

class SampleReport(NamedTuple):
    samples: int
    violations: int
    worst_margin: float
    unresolved: int = 0  # forward check: images that round to their start

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _seeded(seed: int) -> random.Random:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative (got {seed})")
    return random.Random(seed)


def _uniform(rng: random.Random, n: int) -> list[float]:
    """n doubles uniform on the 2^-53 grid of [0, 1): the top 53 bits of
    each little-endian 8-byte word of randbytes."""
    return [(x >> 11) * 2.0 ** -53
            for x in struct.unpack(f"<{n}Q", rng.randbytes(8 * n))]


def _sample_attracting_petal(rng: random.Random, n: int, k: int, rho: float,
                             eta: float) -> list[complex]:
    """The first n accepted points, in draw order, of rejection sampling on
    the attracting petal union.  Candidates are uniform on the sectors
    |arg w - 2 pi j/k| < pi/k of radius 1.3 rho and are drawn _CHUNK at a
    time (indices, radii, then angles), which bounds memory whatever the
    acceptance rate.

    As cos + eta |sin| <= sqrt(1 + eta^2), no petal point has |w| above
    rho (1 + eta^2)^(1/(2k)).  A radius beyond that bound by a relative
    1e-9, far above the rounding of |w|, is rejected before its point is
    formed, so the accepted points are exactly those of the full test."""
    out: list[complex] = []
    scale, half = rho * 1.3, math.pi / k
    s_max = rho * (1.0 + eta * eta) ** (0.5 / k) * (1.0 + 1e-9)
    while len(out) < n:
        for uj, us, ua in zip(_uniform(rng, _CHUNK), _uniform(rng, _CHUNK),
                              _uniform(rng, _CHUNK)):
            s = scale * math.sqrt(us)
            if s > s_max:
                continue
            j = int(uj * k)  # u k < k for u < 1
            w = s * cmath.exp(1j * (TWO_PI * j / k + half * (2.0 * ua - 1.0)))
            if w != 0 and _petal_index(w, k, rho, eta) >= 0:
                out.append(w)
                if len(out) == n:
                    return out
    return out


def forward_invariance_check(local: ParabolicLocal, z_band: float,
                             samples: int, seed: int) -> SampleReport:
    """Sample the petal box {|z| < z_band, w in the petal union}, apply the
    map once, and count image points that leave the union.  Violations are
    data, not errors; worst_margin is the smallest half-plane clearance
    seen among images (negative when violations occurred).  `unresolved`
    counts the images that round to their start (w^{k+1} below half an ulp
    of w), which test no step.  An image that is not a finite double raises
    OverflowError; ValueError when every image is unresolved."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = _seeded(seed)
    k, rho, eta = local.k, local.rho, local.eta
    r_cut = 1.0 / (k * rho ** k)
    ws = _sample_attracting_petal(rng, samples, k, rho, eta)
    rr = _uniform(rng, 2 * samples)
    zc = local.z_coefficients()
    images = []
    for w, a, b in zip(ws, rr[0::2], rr[1::2]):
        z = z_band * math.sqrt(a) * cmath.exp(1j * TWO_PI * b)
        images.append(_horner([_horner(c, z) for c in zc], w))
    unresolved = sum(map(operator.eq, images, ws))
    if unresolved == samples:
        raise ValueError(f"petal step unresolved in doubles (k = {k}, rho "
                         f"= {rho!r}): every image equals its start")
    images = [w1 for w1 in images if w1 != 0]
    if not all(map(cmath.isfinite, images)):
        raise OverflowError("a petal image leaves the double range")
    violations, worst = 0, math.inf
    for w1 in images:
        try:
            u = 1.0 / (k * w1 ** k)
            margin = u.real - (r_cut - eta * abs(u.imag))
        except (OverflowError, ZeroDivisionError):
            margin = math.nan  # k w1^k overflowed or is 0: IEEE u is NaN
        if _petal_index(w1, k, rho, eta) < 0:
            violations += 1
            margin = -abs(margin)
        if margin < worst:  # never true for NaN, which is skipped
            worst = margin
    return SampleReport(samples, violations, worst, unresolved)


def repelling_expansion_check(local: ParabolicLocal, samples: int,
                              seed: int) -> SampleReport:
    """Verify |g'(zeta)| > 1 on the repelling petals at z = 0.

    Repelling petal points satisfy Re u < -R for u = 1/(k zeta^k), i.e.
    they are attracting half-plane samples rotated by e^{i pi/k}, which
    takes attracting direction j to the repelling direction pi (2j+1)/k;
    the samples cover every j.  There Re zeta^k < 0, so the model
    derivative 1 - (k+1) zeta^k has modulus above one and the check
    validates that the chosen rho keeps the tail from destroying the
    margin.  Expansion is decided on u = 1 - g'(zeta), formed without the
    1 (g'(0) = 1), as -2 Re u + |u|^2 = |g'|^2 - 1 > 0: at high k, u lies
    below half an ulp of 1, so |g'| itself rounds to 1.  worst_margin is
    the smallest |g'| seen; a NaN derivative counts as a violation and is
    left out of it."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = _seeded(seed)
    k, rho = local.k, local.rho
    coeffs = [_horner(c, 0j) for c in local.z_coefficients()]
    dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
    turn = cmath.exp(1j * math.pi / k)
    violations, worst = 0, math.inf
    for w in _sample_attracting_petal(rng, samples, k, rho, 0.0):
        zeta = w * turn
        u = -zeta * _horner(dcoeffs[1:], zeta)
        # x * x, as x ** 2 raises OverflowError past the double range
        if not -2.0 * u.real + (u.real * u.real + u.imag * u.imag) > 0.0:
            violations += 1
        try:
            g1 = abs(_horner(dcoeffs, zeta))
        except OverflowError:  # a finite derivative whose modulus overflows
            g1 = math.inf
        if g1 < worst:
            worst = g1
    return SampleReport(samples, violations, worst)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _code_color(c: int) -> tuple[int, int, int]:
    if c == CODE_ESCAPE:
        return ESCAPE_COLOR
    if c >= CODE_BASIN_BASE:
        return BASIN_COLORS[(c - CODE_BASIN_BASE) % 8]
    if c >= CODE_PETAL_BASE:
        return PETAL_GREENS[(c - CODE_PETAL_BASE) % 4]
    return UNDECIDED_COLOR


class FatouGrid(NamedTuple):
    """Classification of a w-rectangle at a fixed starting fiber.

    code[i, j] encodes the verdict at re[j] + i*im[i]: 0 undecided,
    1 escape, 100+direction for petals, 200+cycle for basins; cycle ids
    are assigned canonically (sorted cycle point sets), never by discovery
    order, so identical inputs give identical grids.  A cycle's key is its
    points rounded to CYCLE_ROUND decimals by rint(x 10^4), half to even,
    in sorted order (see the module docstring); cycles[c] is the key of
    id c.
    """
    re: np.ndarray
    im: np.ndarray
    code: np.ndarray
    n_stop: np.ndarray
    z0: complex
    cycles: Sequence[tuple] = ()

    def verdict_counts(self) -> dict[str, int]:
        flat = self.code.ravel()
        return {
            "undecided": int(np.sum(flat == CODE_UNDECIDED)),
            "escape": int(np.sum(flat == CODE_ESCAPE)),
            "petal": int(np.sum((flat >= CODE_PETAL_BASE)
                                & (flat < CODE_BASIN_BASE))),
            "basin": int(np.sum(flat >= CODE_BASIN_BASE)),
        }

    def to_ppm_text(self) -> str:
        h, wdt = self.code.shape
        codes, inverse = np.unique(self.code, return_inverse=True)
        palette = np.array([" ".join(map(str, _code_color(int(c))))
                            for c in codes], dtype=object)
        rows = [" ".join(r) for r in palette[inverse].reshape(h, wdt).tolist()]
        return "\n".join([f"P3\n{wdt} {h}\n255", *rows]) + "\n"

    def write_ppm(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_ppm_text())

    def write_csv(self, path) -> None:
        """Rows re_w,im_w,verdict_code,n_stop; the ",code,n_stop" suffix is
        formatted once per distinct pair (n_stop < 2^32)."""
        pairs, inverse = np.unique(self.code.astype(np.int64) << 32
                                   | self.n_stop, return_inverse=True)
        suffix = np.array([f",{v >> 32},{v & 0xFFFFFFFF}\n"
                           for v in pairs.tolist()], dtype=object)
        rows = suffix[inverse.reshape(self.code.shape)].tolist()
        re = [repr(x) + "," for x in self.re.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("re_w,im_w,verdict_code,n_stop\n")
            for y, ends in zip(self.im.tolist(), rows):
                y = repr(y)
                fh.write("".join(map(operator.add, [x + y for x in re], ends)))


def fatou_slice(F, z0: complex, grid: tuple[float, float, float, float, int],
                n_max: int = 1000, config: OrbitConfig | None = None,
                threads: int = 1) -> FatouGrid:
    """Classify every point of a w-grid via the orbit engine.

    grid = (re0, re1, im0, im1, res) with res points per axis.  Chunking
    across threads partitions rows only; every pixel is a pure function of
    its own start, so thread count cannot change the output.
    """
    re0, re1, im0, im1, res = grid
    res = int(res)
    if not 1 <= res <= 4096:
        raise ValueError("grid resolution out of range (1..4096)")
    if n_max >= 2 ** 31:  # the engine's int32 limit, checked before C is built
        raise ValueError(f"n_max = {n_max} must be below 2^31")
    cfg = config or DEFAULT_CONFIG
    re = np.linspace(float(re0), float(re1), res)
    im = np.linspace(float(im0), float(im1), res)
    C = _coeff_matrix(F, z0, n_max)
    parabolic, k, base = _parabolic_data(F)

    def run_rows(bounds: tuple[int, int]) -> _EngineResult:
        i0, i1 = bounds  # no name here holds the start array past its use
        return _run_engine(C, (re[np.newaxis, :] + 1j * im[i0:i1, np.newaxis])
                           .ravel(), n_max, parabolic, k, base, cfg)

    chunks = max(1, min(int(threads), res))
    bounds = [(res * t // chunks, res * (t + 1) // chunks)
              for t in range(chunks)]
    if chunks == 1:
        fields = run_rows(bounds[0])
    else:
        # imported here: the thread pool's modules cost every process a
        # few milliseconds at start-up
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=chunks) as ex:
            fields = [np.concatenate(f) for f in zip(*ex.map(run_rows, bounds))]

    kind, index, n_stop, w_verd, period = (f.reshape(res, res) for f in fields)

    code = np.zeros((res, res), dtype=np.int32)
    code[kind == ESCAPE] = CODE_ESCAPE
    pm = kind == PETAL
    code[pm] = CODE_PETAL_BASE + index[pm]

    bm = kind == BASIN
    ordered, ids = _cycle_ids(C, w_verd[bm], n_stop[bm], period[bm])
    code[bm] = CODE_BASIN_BASE + ids

    return FatouGrid(re=re, im=im, code=code, n_stop=n_stop, z0=complex(z0),
                     cycles=ordered)


# ---------------------------------------------------------------------------
# Critical orbits / hypothesis checker
# ---------------------------------------------------------------------------

class CriticalReport(NamedTuple):
    point: complex
    verdict: Verdict
    n_stop: int
    root_defect: float
    cycle_period: int | None = None


class HypothesisReport(NamedTuple):
    reports: list[CriticalReport]
    plausible: bool


def critical_orbit_check(g, n_max: int = 20000) -> HypothesisReport:
    """Iterate every finite critical point of the fiber polynomial.

    `g` is a coefficient list (constant first) or a SkewGerm taken at
    z = 0.  Critical points are companion-matrix eigenvalues of g'
    (numpy.roots); each root is validated through |g'(root)| and iterated.
    The overall flag is true iff every verdict is a basin or a petal.
    """
    if isinstance(g, SkewGerm):
        coeffs = g.fiber_constants()
        rot = g.rot
    else:
        coeffs = [complex(c) for c in g]
        rot = None
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 3:
        raise ValueError("fiber polynomial must have degree at least 2")
    deriv = [j * coeffs[j] for j in range(1, len(coeffs))]
    roots = np.roots(np.array(deriv[::-1], dtype=complex))
    fiber_map = ConstantVerticalMap(coeffs, rot)
    reports = []
    for r in sorted(roots.tolist(), key=lambda c: (round(c.real, 12),
                                                   round(c.imag, 12))):
        orbit = iterate_orbit(fiber_map, 0j, complex(r), n_max)
        reports.append(CriticalReport(point=complex(r), verdict=orbit.verdict,
                                      n_stop=orbit.n_stop,
                                      root_defect=abs(_horner(deriv, r)),
                                      cycle_period=orbit.cycle_period))
    plausible = all(rep.verdict.kind in (PETAL, BASIN) and rep.root_defect < 1e-6
                    for rep in reports)
    return HypothesisReport(reports=reports, plausible=plausible)
