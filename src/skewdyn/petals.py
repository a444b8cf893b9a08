"""Parabolic local dynamics: petal geometry, orbit classification and
vertical-derivative diagnostics.

Petals are pullbacks of half-planes under u = 1/(k w^k): attracting petal j
is {Re u > R - eta |Im u|} inside the sector |arg w - 2 pi j / k| < pi/k,
with R = 1/(k rho^k).  Orbit verdicts come from a fixed state machine:

  escape     |w_n| > escape radius (checked before every step, n = 0 first);
  petal      w_n (n >= 1) lies in a wedge of u = -1/(k a w^k) that every
             fiber map provably maps into itself, with |w_n| -> 0 (the
             Leau-Fatou flower theorem, _petal_region); fibers that move
             the parabolic point (a_0(z_n) != 0) have none;
  basin      a cycle detected by Floyd tortoise/hare comparison and then
             confirmed by stable recurrence (period <= PERIOD_CAP) for
             WINDOW steps;
  undecided  the step budget ran out first.

Callers set only the escape radius; the cycle thresholds are numerical
heuristics, fixed as module constants.  Whether the fiber map at z = 0 is
parabolic, and of which order k, is decided by one rule with its own
tolerances, normalform.detect_parabolic_order.

Grids run through a vectorized lockstep engine.  It drops all-zero top
w-degrees (0 * w is exact for the finite w of undecided points) and, every
8 steps, compacts its arrays to the undecided points once fewer than 90%
remain.  Single orbits step their trajectory block by block, untrimmed
(they record values past an escape), and run the engine's own step rules
(_petal_hits, _State._cycle_step) on each new block, only where a rule can
fire, until one settles the point.  A point's result is a pure function of
its start, whatever else shares its array (chunks, threads, compaction).

A fiber that does not move (z0 = 0, or no coefficient depends on z) has
one coefficient row for every step: its schedule is a read-only view of
that row with row stride 0, and every reduction over rows reads the row
once (_distinct_rows).  A single orbit steps, forms its derivative logs
and reads its verdict scans (escape, petal, cycle catches) on one block
schedule, 64 steps, then 128, ..., at most _CHUNK, in both stop modes, so
beyond its recorded ws and dlogs (24 bytes a step) no temporary spans the
orbit; with the CLI's orbit.csv, written by chunks, a full orbit peaks
about 35 bytes a recorded step above a short one, on a map with a petal
region as on one without.

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
from .rotation import _CHUNK, RotationNumber, unit_powers
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


WINDOW = 50          # confirmation steps for cycle verdicts
PERIOD_CAP = 64      # longest cycle period confirmed
CYCLE_TOL = 1e-9     # absolute recurrence tolerance
PETAL_RADIUS = 0.75  # the certified petal region lies within |w| < this
PETAL_EPS = 0.49     # bound on |u' - u - 1| sought there; invariance needs 1/2
CYCLE_ROUND = 4   # decimals for canonical cycle grouping
TIE_DELTA = 1e-4  # key units (10^-8 at 4 decimals) from a rounding tie
MAX_PETAL_ORDER = 4096


def _check_escape_radius(escape_radius: float) -> None:
    """An escape radius that is not positive (or is NaN) would label every
    start as escaping at step 0, so it is refused."""
    if not escape_radius > 0:
        raise ValueError(f"escape_radius must be positive (got {escape_radius!r})")


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
    """Direction index j of the attracting petal (module docstring) that
    holds the complex scalar w, or None (as for every non-finite w); w = 0,
    the fixed point, is refused.  With delta = arg w - 2 pi j/k the
    half-plane reads cos(k delta) + eta |sin(k delta)| > (|w|/rho)^k, tested
    in that form so that w^k can neither overflow nor underflow."""
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
    radius = math.inf

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
    """The fiber base points lam^m z0 for m = 0..n; a base point that does
    not move (z0 = 0, or no rotation) is one value, as a read-only view."""
    if rot is None or z0 == 0:
        return np.broadcast_to(np.complex128(z0), (n + 1,))
    return np.array(unit_powers(rot, n)) * z0


def _coeff_matrix(F, z0: complex, n_max: int) -> np.ndarray:
    """C[n, j] = a_j(lam^n z0) for every step n = 0..n_max of the fiber
    schedule, in one of two representations:

      moving fiber (z0 != 0 and some a_j depends on z): n_max + 1 rows;
      fixed fiber (otherwise): one row, as a read-only view of n_max + 1
          rows with row stride 0.

    Reductions over the rows read _distinct_rows(C), which is that one row
    for a fixed fiber, so no schedule's size is ever walked step by step."""
    lists, rot = _coeff_lists(F)  # TypeError first for any other map type
    if abs(z0) >= F.radius:
        raise ValueError(f"|z0| = {abs(z0)} outside validity radius {F.radius}")
    z_moves = z0 != 0 and any(any(x != 0 for x in c[1:]) for c in lists)
    if z_moves and rot is None:
        raise ValueError("a rotation number is required when fibers move")
    # at least w-degree 1: a constant map g = c steps as c + 0 w, so every
    # Horner step over a row returns an array
    width = max(2, len(lists))
    if not z_moves:  # each coefficient is constant, or evaluated at z = 0
        row = np.zeros(width, dtype=complex)
        row[:len(lists)] = [c[0] for c in lists]
        return np.broadcast_to(row, (n_max + 1, width))
    zs = _z_schedule(rot, z0, n_max)
    out = np.zeros((n_max + 1, width), dtype=complex)
    for j, c in enumerate(lists):
        if any(x != 0 for x in c[1:]):
            out[:, j] = np.polyval(np.array(c[::-1], dtype=complex), zs)
        else:
            out[:, j] = c[0]
    return out


def _distinct_rows(C: np.ndarray) -> np.ndarray:
    """The distinct rows of a schedule from _coeff_matrix: its one row when
    the fiber does not move, else every row."""
    return C[:1] if C.strides[0] == 0 else C


def _parabolic_data(F) -> tuple[int, complex]:
    """(k, a_{k+1}) for the fiber map at z = 0, by the rule of
    normalform.detect_parabolic_order; k = 0 when it is not parabolic."""
    if isinstance(F, ParabolicLocal):
        return F.k, -1.0 + 0j
    try:
        k = detect_parabolic_order(F)
    except (ValueError, LinearFiberError):
        return 0, 0j
    return k, F.fiber_constants()[k + 1]


class _Region(NamedTuple):  # see _petal_region
    k: int
    lead: complex   # a = a_{k+1} at z = 0
    base: float     # base angle of the attracting directions
    rho: float      # the region lies within |w| < rho
    eps: float      # every row maps u to u + 1 + e with |e| <= eps on it


def _petal_region(F, C: np.ndarray) -> _Region | None:
    """The wedge {|Im u| < Re u - R}, u = -1/(k a w^k), R = 1/(k |a| rho^k),
    certified for every row of C, or None unless all rows are parabolic of
    order k at w = 0 exactly (a_0 = 0, a_1 = 1, a_2..a_k = 0).

    Row n is w (1 + P), P = a w^k + T, T = (a_{k+1,n} - a) w^k + sum_{j>k+1}
    c_{n,j} w^{j-1}: it maps u to u (1 + P)^-k = u + 1 + e, |e| <= |u|
    (R2(|P|) + k |T|), with R2(p) = sum_{m>=2} C(k+m-1, m) p^m <= C(k+1, 2)
    p^2 / (1 - (k+2) p/3) and |T| / |a w^k| <= tau(|w|) from the rows'
    largest moduli (padded for rounding).  This bound on |e| grows with |w|;
    rho is the largest r <= PETAL_RADIUS where it is at most PETAL_EPS, far
    enough below 1/2 for its own rounding.  On the wedge |w| < rho, and a
    step adds at least 1 - eps to Re u and at most eps to |Im u|, so the
    wedge maps into itself and |w_n| -> 0 (the Leau-Fatou flower theorem)."""
    k, lead = _parabolic_data(F)
    C = _distinct_rows(C)
    if not k or (C[:, 0].any() or not np.all(C[:, 1] == 1.0)
                 or C[:, 2:k + 1].any()):
        return None
    a, shift = abs(lead), lead * np.eye(1, C.shape[1] - k - 1)
    top = np.max([np.abs(C[i:i + _CHUNK, k + 1:] - shift).max(axis=0)
                  for i in range(0, len(C), _CHUNK)], axis=0)  # in row blocks
    tail = (top * ((1.0 + 2.0 ** -50) / a)).tolist()

    def bound(r: float) -> float:
        x = a * r ** k  # |a w^k|
        tau = sum(m * r ** j for j, m in enumerate(tail))
        q = (k + 2) * x * (1.0 + tau) / 3.0
        if not q < 1.0:
            return math.inf
        return 0.5 * (k + 1) * (1.0 + tau) ** 2 * x / (1.0 - q) + tau

    lo, hi = 0.0, PETAL_RADIUS
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) <= PETAL_EPS else (lo, mid)
    if lo == 0.0:
        return None
    return _Region(k, lead, directions_for_jet(lead, k), lo, bound(lo))


# ---------------------------------------------------------------------------
# The classification engine
# ---------------------------------------------------------------------------

class _EngineResult(NamedTuple):
    kind: np.ndarray
    index: np.ndarray          # petal direction for PETAL verdicts
    n_stop: np.ndarray
    w_verdict: np.ndarray      # state at the step the verdict fired
    period: np.ndarray         # confirmed cycle period for BASIN verdicts


def _petal_hits(w: np.ndarray, a: np.ndarray, region: _Region,
                live: np.ndarray | None = None) -> np.ndarray:
    """The petal step rule: indices of the points of w (moduli a; `live`
    masks the undecided) in the region.  With v = (w e^{-i base}/|w|)^k,
    |Im u| < Re u - R reads Re v - |Im v| > (|w|/rho)^k, which neither
    overflows nor underflows; its rounding stays below the margin 64 (k +
    2) 2^-53, so a point that passes lies in the exact region."""
    k = region.k
    idx = np.flatnonzero(a < region.rho)
    if live is not None:
        idx = idx[live[idx]]
    if len(idx):
        r = a[idx]
        v = y = w[idx] / r * cmath.exp(-1j * region.base)
        for _ in range(k - 1):
            v = v * y
        edge = (r / region.rho) ** k + 64 * (k + 2) * 2.0 ** -53
        idx = idx[v.real - np.abs(v.imag) > edge]
    return idx


def _direction_index(w: np.ndarray, k: int, base_angle: float) -> np.ndarray:
    """Index j of the attracting direction nearest to arg w."""
    return (np.rint((np.angle(w) - base_angle) * k / TWO_PI)
            .astype(np.int64) % k)


class _State:
    """Per-point engine state, compactable to the undecided subset, and the
    cycle automaton's step rule (_first_verdict calls it only on events)."""

    __slots__ = ("ids", "w", "tort", "anchored", "anchor", "anchor_step",
                 "last_hit", "period")

    def __init__(self, w0: np.ndarray):
        m = len(w0)
        self.ids = np.arange(m, dtype=np.int32)
        # w and tort are rebound to new arrays by every step and never
        # written in place, so both may start as the caller's array
        self.w = self.tort = np.asarray(w0, dtype=complex)
        self.anchored = np.zeros(m, dtype=bool)
        self.anchor = np.zeros(m, dtype=complex)
        self.anchor_step = np.zeros(m, dtype=np.int32)
        self.last_hit = np.zeros(m, dtype=np.int32)
        self.period = np.zeros(m, dtype=np.int32)

    def compact(self, keep: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])

    def _cycle_step(self, n: int, catch, live):
        """Step n >= 2 of the anchor/period automaton, given the tortoise
        catches: anchor on a catch, take the first recurrence gap as the
        period, re-anchor on a gap mismatch, drop an anchor whose first gap
        exceeds PERIOD_CAP or that recurs not for PERIOD_CAP steps.  Returns
        the points confirmed WINDOW steps after anchoring, or None when no
        point is anchored."""
        if catch.any():
            catch = catch & live & ~self.anchored
            self.anchored |= catch
            self.anchor[catch] = self.w[catch]
            self.anchor_step[catch] = n
            self.last_hit[catch] = n
            self.period[catch] = 0
        act = self.anchored
        if not act.any():
            return None
        near = act & (np.abs(self.w - self.anchor) < CYCLE_TOL)
        gap = n - self.last_hit
        is_new = near & (gap > 0)
        first = is_new & (self.period == 0)
        ok_gap = first & (gap <= PERIOD_CAP)
        self.period[ok_gap] = gap[ok_gap]
        act[first & ~ok_gap] = False
        mism = is_new & ~first & (gap != self.period)
        if mism.any():
            self.anchor[mism] = self.w[mism]
            self.anchor_step[mism] = n
            self.period[mism] = 0
        self.last_hit[is_new & act] = n
        confirm = (act & near & (self.period > 0)
                   & (n - self.anchor_step >= WINDOW))
        act[self.last_hit < n - PERIOD_CAP] = False
        return confirm


def _step(row: np.ndarray, w: np.ndarray) -> np.ndarray:
    """_horner(row, w) for a row of at least two coefficients, built in one
    new array (same operations in the same order: acc * w, then + c)."""
    acc = row[-1] * w
    acc += row[-2]
    # numpy's FMA loops (X86_V3) fuse every complex product but an in-place
    # one on one element, so a lone point multiplies out of place to step
    # as it does among others
    single = acc.size == 1
    for c in row[-3::-1]:
        if single:
            acc = acc * w
        else:
            acc *= w
        acc += c
    return acc


def _run_engine(C: np.ndarray, w0: np.ndarray, n_max: int,
                region: _Region | None, escape_radius: float) -> _EngineResult:
    """Advance all points in lockstep through the shared fiber schedule C,
    until every point has a verdict or n_max steps are taken; the petal
    rule runs only where the rows certify a region (region not None).

    Verdict checks run in a fixed order every step (escape, petal, cycle);
    each point's outcome is a pure function of its own start, so results do
    not depend on how callers batch the points.  Settled points are stepped
    on, never read, until the next compaction.  Step counts are held as
    int32, so n_max must be below 2^31 (fatou_slice checks it).
    """
    live = np.flatnonzero(_distinct_rows(C).any(axis=0))
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

    def settle(sel: np.ndarray, verdict: int, n: int) -> None:
        gids = st.ids[sel]
        kind[gids] = verdict
        n_stop[gids] = n
        w_verdict[gids] = w = st.w[sel]
        if verdict == PETAL:
            index[gids] = _direction_index(w, region.k, region.base)
        elif verdict == BASIN:
            period_out[gids] = st.period[sel]
        undecided[sel] = False
        st.anchored[sel] = False

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for n in range(n_max + 1):
            cur_abs = np.abs(st.w)

            # the max is NaN when any modulus is
            if not cur_abs.max(initial=0.0) <= escape_radius:
                settle(~(cur_abs <= escape_radius) & undecided, ESCAPE, n)

            if region is not None and n >= 1:
                hit = _petal_hits(st.w, cur_abs, region, undecided)
                if len(hit):
                    settle(hit, PETAL, n)

            if n >= 2 and n % 2 == 0:
                st.tort = _step(C[n // 2 - 1], st.tort)
            if n >= 2:  # settle() unanchors what it settles
                confirm = st._cycle_step(n, np.abs(st.w - st.tort) < CYCLE_TOL,
                                         undecided)
                if confirm is not None and confirm.any():
                    settle(confirm, BASIN, n)

            if n == n_max or not undecided.any():
                break
            if (len(st.w) > 256 and n % 8 == 7
                    and np.count_nonzero(undecided) < 0.9 * len(st.w)):
                st.compact(undecided)
                undecided = np.ones(len(st.w), dtype=bool)
            st.w = _step(C[n], st.w)

    return _EngineResult(kind, index, n_stop, w_verdict, period_out)


# ---------------------------------------------------------------------------
# Single-orbit path
#
# For one point the per-step bookkeeping is pure overhead, so the trajectory
# is stepped a block at a time, by _horner (its out-of-place products equal
# _step's on one element, and the engine's trimmed degrees add only exact
# zeros), and the engine's step rules run only where they can fire.  The
# tortoise is ws[n // 2]: advancing it t times applies exactly the maps that
# produced ws[t].  The rules are causal, so both stop modes walk one block
# schedule (64 steps, then 128, ..., at most _CHUNK): each block is stepped,
# its derivative logs are formed, and until a verdict is found its steps are
# read once.  tests/test_petals.py holds every field equal to _run_engine's
# on real maps and on scripted orbits.
# ---------------------------------------------------------------------------

def _first_verdict(ws: np.ndarray, region: _Region | None,
                   escape_radius: float, lo: int,
                   st: _State) -> tuple[int, int, int, int] | None:
    """(n, kind, index, period) of the first verdict at a step n >= lo of
    ws, or None; st is the one-point cycle automaton after the steps below
    lo, which hold no verdict, and advances in place.  The automaton moves
    only on a catch while unanchored, a return to its anchor and the stale
    drop, so it steps from event to event.  Kind codes ESCAPE < PETAL <
    BASIN follow the engine's order within a step, so the minimum is the
    verdict it settles.  Steps lo.. are read once, each scan in one call."""
    a = np.abs(ws[lo:])
    found = []
    esc = np.flatnonzero(~(a <= escape_radius))
    if len(esc):
        found.append((lo + int(esc[0]), ESCAPE, -1, 0))
    if region is not None:
        p = max(lo, 1)
        hit = _petal_hits(ws[p:], a[p - lo:], region)
        if len(hit):
            m = p + int(hit[0])
            found.append((m, PETAL, int(_direction_index(
                ws[m], region.k, region.base)), 0))
    # only a confirmation before every other verdict counts
    last = min(found)[0] - 1 if found else len(ws) - 1
    n = max(lo, 2)  # the automaton's next step to look at
    steps = np.arange(n, last + 1)
    catches = steps[np.abs(ws[steps] - ws[steps // 2]) < CYCLE_TOL]
    while True:
        if st.anchored[0]:  # the first return to the anchor, or the drop
            h = int(st.last_hit[0]) + 1
            near = np.abs(ws[h:h + PERIOD_CAP] - st.anchor[0]) < CYCLE_TOL
            n = h + (int(near.argmax()) if near.any() else PERIOD_CAP)
        else:  # the next catch
            i = np.searchsorted(catches, n)
            n = int(catches[i]) if i < len(catches) else last + 1
        if n > last:  # an event in a later block, or none
            return min(found, default=None)
        st.w = ws[n:n + 1]
        if st._cycle_step(n, ~st.anchored, True)[0]:
            return n, BASIN, -1, int(st.period[0])
        n += 1


def _run_single(C: np.ndarray, w0: complex, n_max: int,
                region: _Region | None, escape_radius: float,
                stop_at_verdict: bool):
    """The engine rules for one point, read block by block as it steps.

    Returns (kind, index, n_stop, period, ws, dlogs).  ws ends at n_stop
    when stop_at_verdict is set and a verdict fired, at n_max otherwise;
    dlogs[n] = log |g_n'(ws[n])| for every step taken."""
    ws = np.empty(n_max + 1, dtype=complex)
    dlogs = np.empty(n_max)
    ws[0] = w0
    w = ws[:1].copy()
    st = _State(w)
    verdict = None
    done, block = 0, 64
    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        while done < n_max and (verdict is None or not stop_at_verdict):
            top = min(n_max, done + min(block, _CHUNK))
            for n in range(done, top):
                w = _horner(C[n], w)
                ws[n + 1] = w[0]
            rows = C[done:top]  # elementwise: blocks change no bit
            acc = _horner([rows[:, j] * j for j in range(1, C.shape[1])],
                          ws[done:top])
            # -inf at 0, inf/nan past an overflow
            np.log(np.abs(acc), out=dlogs[done:top])
            if verdict is None:
                verdict = _first_verdict(ws[:top + 1], region, escape_radius,
                                         done + (done > 0), st)
            done, block = top, 2 * block
    n_stop, kind, index, period = verdict or (n_max, UNDECIDED, -1, 0)
    cut = n_stop if stop_at_verdict else n_max
    return kind, index, n_stop, period, ws[:cut + 1], dlogs[:cut]


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
    for every step taken.  zs may be a read-only view: one value, when the
    base point does not move (z_0 = 0 or no rotation).  n_stop marks the
    step where the verdict fired (or the budget ran out); with
    stop_at_verdict=False recording continues past it.
    """
    ws: np.ndarray
    zs: np.ndarray
    dlogs: np.ndarray
    verdict: Verdict
    n_stop: int
    stop_reason: str
    cycle_period: int | None = None
    cycle_representative: complex | None = None


def iterate_orbit(F, z0: complex, w0: complex, n_max: int,
                  escape_radius: float = 1e6,
                  stop_at_verdict: bool = True) -> OrbitRecord:
    """Iterate the vertical map over the rotating fiber and classify."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _check_escape_radius(escape_radius)
    C = _coeff_matrix(F, z0, n_max)
    kind, index, n_stop, period, ws, dlogs = _run_single(
        C, complex(w0), n_max, _petal_region(F, C), escape_radius,
        stop_at_verdict)
    rep = None
    if kind == BASIN:
        pts = _cycle_points(C, ws[n_stop:n_stop + 1], np.array([n_stop]), period)
        rep = complex(pts[0, _cycle_keys(pts)[1][0, 0]])
    verdict = Verdict(kind, 0 if kind == BASIN else index)  # -1 off petals
    zs = _z_schedule(F.rot, z0, len(ws) - 1)
    reason = {ESCAPE: "escape", PETAL: "petal", BASIN: "cycle"}.get(kind, "n_max")
    return OrbitRecord(ws=ws, zs=zs, dlogs=dlogs, verdict=verdict,
                       n_stop=n_stop, stop_reason=reason,
                       cycle_period=period if kind == BASIN else None,
                       cycle_representative=rep)


def vertical_derivative_sum(orbit: OrbitRecord) -> np.ndarray:
    """Partial sums of log |dg/dw| along the orbit: entry n covers steps < n.

    The growth of these sums is the computable surrogate for vertical
    tangent-vector expansion along non-normal orbits; [0.0] for an orbit
    with no steps."""
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
    order, so identical inputs give identical grids; cycles[c] is the key
    of id c (see the module docstring).
    """
    re: np.ndarray
    im: np.ndarray
    code: np.ndarray
    n_stop: np.ndarray
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
                n_max: int = 1000, escape_radius: float = 1e6,
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
    _check_escape_radius(escape_radius)
    re = np.linspace(float(re0), float(re1), res)
    im = np.linspace(float(im0), float(im1), res)
    C = _coeff_matrix(F, z0, n_max)
    region = _petal_region(F, C)

    def run_rows(bounds: tuple[int, int]) -> _EngineResult:
        i0, i1 = bounds  # no name here holds the start array past its use
        return _run_engine(C, (re[np.newaxis, :] + 1j * im[i0:i1, np.newaxis])
                           .ravel(), n_max, region, escape_radius)

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

    return FatouGrid(re=re, im=im, code=code, n_stop=n_stop, cycles=ordered)


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
    else:
        coeffs = [complex(c) for c in g]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 3:
        raise ValueError("fiber polynomial must have degree at least 2")
    deriv = [j * coeffs[j] for j in range(1, len(coeffs))]
    roots = np.roots(np.array(deriv[::-1], dtype=complex))
    fiber_map = ConstantVerticalMap(coeffs)
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
