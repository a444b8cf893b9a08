"""Parabolic local dynamics: petal geometry, orbit classification and
vertical-derivative diagnostics.

A petal is the wedge {|Im u| < Re u - R}, u = -1/(k a w^k), that
_petal_region certifies: the engine settles points in it, and the sampling
checks sample it.  Orbit verdicts come from a fixed state machine:

  escape     |w_n| > escape radius (checked before every step, n = 0 first);
  petal      w_n (n >= 1) lies in a wedge of u = -1/(k a w^k) that every
             fiber map provably maps into itself, with |w_n| -> 0 (the
             Leau-Fatou flower theorem, _petal_region); fibers that move
             the parabolic point (a_0(z) != 0) have none;
  basin      w_n lies in a disk of a certified attracting cycle
             (_basin_disks): every fiber map takes each disk of the cycle
             into the next one, and around the cycle strictly into itself;
  undecided  the step budget ran out first.

Callers set only the escape radius.  Whether the fiber map at z = 0 is
parabolic, and of which order k, is decided by one rule with its own
tolerances, normalform.detect_parabolic_order.

Grids run through a vectorized lockstep engine.  It drops all-zero top
w-degrees (0 * w is exact for the finite w of undecided points) and
compacts its arrays to the undecided points once fewer than 90% remain,
checked every step.  Starts run in tiles of at most _TILE up to step
_POOL_STEP, where most pixels have settled, and the tiles' undecided
points are pooled into one lockstep for the rest of the run, so past the
early steps only the results span the grid.  The engine returns, per
start, only what fatou_slice reads: verdict kind, petal direction or cycle
id, and n_stop (int32).  Single orbits step their trajectory block by
block, untrimmed (they record values past an escape), and run the engine's
own step rules (_petal_hits, _basin_hits) on each new block until one
settles the point.  A point's result is a pure function of its start,
whatever else shares its array (chunks, threads, tiles, compaction).

A fiber that does not move (z0 = 0, or no coefficient depends on z) has
one coefficient row for every step: its schedule is a read-only view of
that row with row stride 0 (_distinct_rows).  A single orbit walks one
block schedule in both stop modes (the single-orbit section), so beyond
its recorded ws and dlogs (24 bytes a step) no temporary spans the orbit;
with the CLI's orbit.csv, written by chunks, a full orbit peaks about 35
bytes a recorded step above a short one.

The schedule only steps.  Both certificates, the petal region and the
basin disks, read the map's coefficients over the fiber circle
(_fiber_lists), so they depend neither on n_max nor on numpy.  Attracting
cycles are found once per call, from the critical orbits of the
schedule's first row (_basin_disks); no verdict rests on that search.  A
cycle is named by the key of its polished points (_cycle_key), and cycle
ids rank the keys of the certified cycles, so a slice's ids are
canonical, never in discovery order; a single orbit's
cycle_representative is the polished point whose key sorts first.
Neutral cycles (Siegel, Cremer, the identity map) get no certificate, so
their points stay undecided.
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


PERIOD_CAP = 64      # longest cycle period sought
BASIN_RADIUS = 9e-4  # the largest radius of a certified basin disk
PETAL_RADIUS = 0.75  # the certified petal region lies within |w| < this
PETAL_EPS = 0.49     # bound on |u' - u - 1| sought there; invariance needs 1/2
CYCLE_ROUND = 4      # decimals of the cycle keys
MAX_PETAL_ORDER = 4096
# The grid engine runs its starts in tiles of at most _TILE up to step
# _POOL_STEP, then pools their undecided points: on the benchmark's 300 x
# 300 parabolic and basin slices (seed 31) 1.9% and 4.1% of the pixels are
# undecided at step 16.
_TILE = 2 ** 14
_POOL_STEP = 16
_WRITE_PIXELS = 2 ** 13  # the most pixels a grid writer formats at once


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


class ParabolicLocal:
    """Vertical map w - w^{k+1} + b w^{2k+1} + sum beta_m(z) w^m; `rot` is
    only needed when the tail makes fibers matter."""
    __slots__ = ("k", "b", "tail", "rot")
    radius = math.inf

    def __init__(self, k: int, b: complex = 0j,
                 tail: tuple[TruncatedSeries, ...] = (),  # orders 2k+2, 2k+3, ...
                 rot: RotationNumber | None = None):
        if k < 1:
            raise ValueError("k must be at least 1")
        if k > MAX_PETAL_ORDER:  # z_coefficients builds 2k+2 lists
            raise ValueError(f"k must be at most {MAX_PETAL_ORDER}")
        self.k, self.b, self.tail, self.rot = k, b, tail, rot

    def z_coefficients(self) -> list[list[complex]]:
        """Each w-coefficient as a z-polynomial, lowest order first: 1 at w,
        -1 at w^{k+1}, b at w^{2k+1} (kept when b or a tail is nonzero), the
        tail above."""
        upper = [[complex(self.b)]] if self.b != 0 or self.tail else []
        upper += [s.to_complex_list() for s in self.tail]
        c = [[0j] for _ in range(2 * self.k + 1 if upper else self.k + 2)]
        c[1], c[self.k + 1] = [1.0 + 0j], [-1.0 + 0j]
        return c + upper


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
          rows with row stride 0 (_distinct_rows reads the row once)."""
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


def _fiber_lists(F, r: float) -> tuple[list[list[complex]], float, list[float]]:
    """(lists, r', slack): F's coefficients a_j as z-polynomials (constant
    terms only when r = 0); each row _coeff_matrix builds on a fiber |z0| =
    r is a_j(z), |z| <= r', within slack_j sum_i |c_ji| r'^i.  r' = r (1 +
    2^-48) covers z_n = lam^n z0 (libm's cos and sin within an ulp, one
    complex product); slack_j = 8 len(c_j) 2^-53 covers np.polyval's Horner
    steps and that sum's rounding, 0 where a_j is copied, not evaluated."""
    lists, _ = _coeff_lists(F)
    if not r:
        return [c[:1] for c in lists], 0.0, [0.0] * len(lists)
    return lists, r * (1.0 + 2.0 ** -48), [
        8 * len(c) * 2.0 ** -53 if any(c[1:]) else 0.0 for c in lists]


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
    eps: float      # each fiber map takes u to u + 1 + e, |e| <= eps, on it


def _petal_region(F, r: float, cap: float = PETAL_RADIUS) -> _Region | None:
    """The wedge {|Im u| < Re u - R}, u = -1/(k a w^k), R = 1/(k |a| rho^k),
    certified for every fiber |z| <= r, rho capped at cap, or None unless
    all are parabolic of order k at w = 0 exactly (a_0 = 0, a_1 = 1, a_2..a_k
    = 0 as z-series).  The engine and the sampling checks both read it.

    Fiber z maps w to w (1 + P), P = a w^k + T, T = (a_{k+1}(z) - a) w^k +
    sum_{j>k+1} a_j(z) w^{j-1}, so u to u (1 + P)^-k = u + 1 + e, |e| <= |u|
    (R2(|P|) + k |T|), with R2(p) = sum_{m>=2} C(k+m-1, m) p^m <= C(k+1, 2)
    p^2 / (1 - (k+2) p/3) and |T| / |a w^k| <= tau(|w|), each |a_j(z)| at
    most sum_i |c_ji| r'^i plus its slack (_fiber_lists; CPython's abs),
    padded for rounding.  This bound on |e| grows with |w|; rho is the
    largest s <= PETAL_RADIUS where it is at most PETAL_EPS, far enough
    below 1/2 for its own rounding.  On the wedge |w| < rho, and a step adds
    at least 1 - eps to Re u and at most eps to |Im u|, so the wedge maps
    into itself and |w_n| -> 0 (the Leau-Fatou flower theorem)."""
    k, lead = _parabolic_data(F)
    lists, rz, slack = _fiber_lists(F, r)
    if not k or any(any(c[1:]) or c[0] != float(j == 1)
                    for j, c in enumerate(lists[:k + 1])):
        return None
    moduli = []
    try:  # abs() raises past the double range, where no radius certifies
        for j, c in enumerate(lists[k + 1:]):
            terms = [abs(x) * rz ** i for i, x in enumerate(c)]
            m = sum(terms[1:], abs(c[0] - lead) if j == 0 else terms[0])
            moduli.append(m + slack[k + 1 + j] * sum(terms))
    except OverflowError:
        return None
    a = abs(lead)
    pad = (1.0 + 2.0 ** -50) / a
    tail = [(j, m * pad) for j, m in enumerate(moduli) if m]

    def bound(s: float) -> float:  # at |w| = s
        x = a * s ** k  # |a w^k|
        tau = sum(m * s ** j for j, m in tail)
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
    rho = min(lo, cap)
    return _Region(k, lead, directions_for_jet(lead, k), rho, bound(rho))


# ---------------------------------------------------------------------------
# Certified attracting cycles
# ---------------------------------------------------------------------------

class _Basins(NamedTuple):  # see _basin_disks
    cycles: list[tuple]     # cycle id c -> (key, points z_i, radii r_i)
    disks: list[tuple]      # (z_i, r_i^2, lo, hi, c) of every disk


def _cycle_key(pts: list[complex]) -> tuple:
    """A cycle's key: its points with each coordinate keyed as rint(x
    10^CYCLE_ROUND), half to even (-0 read as 0), sorted, and written as
    key / 10^CYCLE_ROUND (a float: x 10^CYCLE_ROUND may overflow)."""
    scale = 10.0 ** CYCLE_ROUND
    with np.errstate(over="ignore"):
        x = np.array(pts, dtype=complex).view(float) * scale
        k = (np.rint(x) + 0.0) / scale
    return tuple(sorted(zip(k[0::2].tolist(), k[1::2].tolist())))


def _basins(chains) -> _Basins:
    """The _Basins of certified chains (points, radii), cycle ids ranking
    their keys.  A disk's moduli bounds [lo, hi] widen |z| -+ r by a slack
    that covers any rounding of the moduli that _basin_hits reads."""
    cycles = sorted(((_cycle_key(pts), pts, radii) for pts, radii in chains),
                    key=lambda cycle: cycle[0])
    return _Basins(cycles, [(z, r * r, (abs(z) - r) * (1 - 2.0 ** -40),
                             (abs(z) + r) * (1 + 2.0 ** -40), c)
                            for c, (_, pts, radii) in enumerate(cycles)
                            for z, r in zip(pts, radii)])


def _polish(row: list[complex], w: complex, p: int):
    """(points, multiplier) of the cycle of the map with coefficients row
    (lowest first) that Newton's method on g^p(w) = w reaches from w, at
    the least period dividing p, or None when Newton does not settle."""
    deriv = [j * row[j] for j in range(1, len(row))]

    def orbit(w):
        pts, dw = [w], 1.0
        for _ in range(p):
            w, dw = _horner(row, w), dw * _horner(deriv, w)
            pts.append(w)
        return pts, dw

    for _ in range(40):
        pts, dw = orbit(w)
        step = (pts[-1] - w) / (dw - 1.0)
        w -= step
        if not cmath.isfinite(w):
            return None
        if abs(step) <= 2.0 ** -50 * (1.0 + abs(w)):
            break
    else:
        return None
    pts, dw = orbit(w)
    q = next((q for q in range(1, p) if p % q == 0
              and abs(pts[q] - w) <= 1e-9 * (1.0 + abs(w))), p)
    return (pts[:p], dw) if q == p else _polish(row, w, q)


def _largest(ok, lo: float, hi: float, *args) -> float:
    """The largest r in [lo, hi] with ok(r, *args), by bisection; ok holds
    at lo and fails from some point on."""
    if ok(hi, *args):
        return hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid, *args) else (lo, mid)
    return lo


def _certify_cycle(F, r: float, pts: list[complex]) -> list[float] | None:
    """Radii r_i <= BASIN_RADIUS, each as large as the others allow, such
    that every fiber map, |z| <= r, takes D(z_i, r_i) into D(z_{i+1},
    r_{i+1}) and the last disk strictly into D(z_0, r_0); None if none do.

    Fiber z maps z_i + h to sum_j c_j(z) h^j, z-order m of c_j the Taylor
    shift to z_i of z-order m of F's coefficients (_fiber_lists), so
    |g(z_i + h) - z_{i+1}| <= delta_i + sum_{j>=1} M_ij |h|^j, M_ij = sum_m
    |c_jm| r'^m and delta_i that sum for c_0 - z_{i+1} (the polish defect
    and a moving fiber's spread).  The shift runs on Python complexes, each
    real operation rounded on its own (no numpy dispatch), and each term
    adds gamma times the shifted moduli: 8 (d + 1) 2^-53 for the shift at
    the map's degree d, plus a moving fiber's largest slack.  The bounds
    are read at r (1 + 2^-40), which covers the rounding of _basin_hits.
    Then p maps take D(z_0, r_0) into a compact part of itself, and every
    orbit in a disk converges to the cycle (Earle-Hamilton)."""
    lists, rz, slack = _fiber_lists(F, r)
    p, d = len(pts), max([1] + [j for j, c in enumerate(lists) if any(c)])
    gamma = 8 * (d + 1) * 2.0 ** -53 + max(slack)
    bounds = []
    for i, z in enumerate(pts):
        top = [0.0] * len(lists)
        for m in range(max(map(len, lists)) - 1, -1, -1):  # Horner in r'
            c = [x[m] if m < len(x) else 0j for x in lists]
            ca = [math.sqrt(x.real * x.real + x.imag * x.imag) for x in c]
            for j in range(len(c) - 1):  # the Taylor shift: c_k += z c_{k+1}
                for k in range(len(c) - 2, j - 1, -1):
                    c[k] += z * c[k + 1]
                    ca[k] += abs(z) * ca[k + 1]
            if m == 0:
                c[0] -= pts[(i + 1) % p]
            t = [math.sqrt(x.real * x.real + x.imag * x.imag) + gamma * y
                 for x, y in zip(c, ca)]
            top = [x * rz + y for x, y in zip(top, t)]
        delta, *tail = [x * (1.0 + 2.0 ** -50) for x in top]
        if not delta < BASIN_RADIUS:
            return None
        bounds.append((delta, tail[::-1]))

    def image(r: float, i: int) -> float:  # disk i's image radius, bounded
        delta, tail = bounds[i]
        x, acc = r * (1.0 + 2.0 ** -40), 0.0
        for m in tail:
            acc = (acc + m) * x
        return (delta + acc) * (1.0 + 2.0 ** -40)

    def fits(r: float, i: int, target: float) -> bool:  # strict at the last
        return image(r, i) < target if i == p - 1 else image(r, i) <= target

    def closes(r0: float) -> bool:  # the least radii from r0 close the chain
        r = r0
        for i in range(p - 1):
            r = image(r, i)
            if not r <= BASIN_RADIUS:
                return False
        return fits(r, p - 1, r0)

    # the r0 that close the chain form an interval: halve down into it,
    # then take its top; then each earlier disk as large as the next allows
    r0 = next((BASIN_RADIUS / 2 ** e for e in range(60)
               if closes(BASIN_RADIUS / 2 ** e)), None)
    if r0 is None:
        return None
    radii = [_largest(closes, r0, min(2 * r0, BASIN_RADIUS))] * p
    for i in range(p - 1, 0, -1):
        radii[i] = _largest(fits, 0.0, BASIN_RADIUS, i, radii[(i + 1) % p])
    return radii


def _roots(c: list[complex]) -> list[complex]:
    """The roots of sum_j c_j w^j (c_-1 != 0) by the Durand-Kerner
    iteration on Python complexes, from distinct points on a circle of the
    Cauchy radius; numpy.roots would start LAPACK, which raised the peak
    RSS of the benchmark's orbit calls by 0.3 to 0.8 MB.  Simple roots come
    out to about their rounding within the 50 sweeps, multiple ones only
    roughly (a k-fold root converges linearly): candidates need no more,
    and critical_orbit_check reports each root's defect."""
    n = len(c) - 1
    c = [x / c[-1] for x in c]
    r = 1.0 + max(map(abs, c[:-1]))
    z = [r * cmath.exp(1j * (TWO_PI * k / n + 0.4)) for k in range(n)]
    for _ in range(50):
        moved = 0.0
        for i in range(n):
            den = 1.0
            for j in range(n):
                if j != i:
                    den *= z[i] - z[j]
            if den == 0:  # two estimates met
                return z
            step = _horner(c, z[i]) / den
            z[i] -= step
            moved = max(moved, abs(step) / (1.0 + abs(z[i])))
        if moved <= 2.0 ** -50:
            break
    return z


def _cycle_from(row: list[complex], w: complex, n_max: int,
                region: _Region | None, escape_radius: float):
    """The polished attracting cycle, as _polish gives it, that the orbit
    of w under the map with coefficients row (lowest first) finds, or None.
    The orbit runs on Python complexes, in windows of PERIOD_CAP steps, and
    stops at escape, at entry to the petal region or after n_max steps.  A
    step that comes back within tol of its window's first point tries a
    polish at that lag; a failed try shrinks tol below that distance."""
    tol, n = BASIN_RADIUS, 0
    while n < n_max:
        anchor = w
        for lag in range(1, min(PERIOD_CAP, n_max - n) + 1):
            w = _horner(row, w)
            gap = abs(w - anchor)
            if gap < tol:
                found = _polish(row, w, lag)
                if found is not None and abs(found[1]) < 1.0:
                    return found
                tol = gap / 8
        n += lag
        a = abs(w)
        if not a <= escape_radius:
            return None
        if (region is not None and 0 < a < region.rho
                and len(_petal_hits(np.array([w]), np.array([a]), region))):
            return None
    return None


def _basin_disks(F, r: float, C: np.ndarray, region: _Region | None,
                 escape_radius: float) -> _Basins:
    """The certified attracting cycles of F over |z| <= r, with their disks.

    Candidates come from the first row g of its schedule C: its critical
    points, or for a row of degree at most 1 its fixed point a_0/(1 - a_1).
    A polynomial of degree d has at most d - 1 non-repelling cycles (the
    Fatou-Shishikura inequality; M. Shishikura, Ann. Sci. ENS 20, 1987), so
    when d - 1 simple fixed points of g have |g'| <= 1 (within 1e-9) they
    are all, and its attracting fixed points are the only candidates.
    _cycle_from runs each for n_max = len(C) - 1 steps at most; a cycle with
    a point in a disk already kept is that disk's cycle.  Disks never meet:
    under the first row alone, a point in two would converge to both."""
    row = C[0].tolist()
    while len(row) > 2 and row[-1] == 0:
        row.pop()
    if len(row) == 2:
        starts = [row[0] / (1.0 - row[1])] if row[1] != 1.0 else []
    else:
        deriv = [j * row[j] for j in range(1, len(row))]
        starts = _roots(deriv)
        # a petal region's parabolic point is a multiple fixed point, and
        # then fewer than d - 1 fixed points are simple
        fixed = ([] if region is not None
                 else _roots([row[0], row[1] - 1.0, *row[2:]]))
        mult = [_horner(deriv, z) for z in fixed]
        if sum(abs(m) <= 1.0 + 1e-9 and abs(m - 1.0) > 1e-6
               for m in mult) >= len(row) - 2:
            starts = [z for z, m in zip(fixed, mult) if abs(m) < 1.0]
    chains: list[tuple] = []
    for w in starts:
        try:
            found = _cycle_from(row, w, len(C) - 1, region, escape_radius)
        except (OverflowError, ZeroDivisionError):  # from abs() or Newton
            continue
        if found is None or any(abs(z - x) < d for z in found[0]
                                for pts, radii in chains
                                for x, d in zip(pts, radii)):
            continue
        radii = _certify_cycle(F, r, found[0])
        if radii is not None:
            chains.append((found[0], radii))
    return _basins(chains)


def _setup(F, z0: complex, n_max: int, escape_radius: float):
    """(C, region, basins) of one call: the schedule, which only steps, and
    the certificates over |z| <= r, r = |z0| if the fiber moves, else 0."""
    C = _coeff_matrix(F, z0, n_max)
    r = abs(z0) if C.strides[0] else 0.0
    region = _petal_region(F, r)
    return C, region, _basin_disks(F, r, C, region, escape_radius)


def _basin_hits(w: np.ndarray, a: np.ndarray, basins: _Basins,
                live: np.ndarray | None = None):
    """The basin step rule: (indices, cycle ids) of the points of w (moduli
    a; `live` masks the undecided) that lie in a certified disk.  The
    moduli pick the points that can; on those alone, (re^2 + im^2 < r^2)
    decides, which rounds alike in numpy and in CPython.  Disks do not
    meet, so a point lies in one at most."""
    idx, cid = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for z, r2, lo, hi, c in basins.disks:
        sel = np.flatnonzero((a < hi) & (a > lo) if lo > 0.0 else a < hi)
        if live is not None:
            sel = sel[live[sel]]
        if len(sel):
            d = w[sel] - z
            idx.append(sel[d.real * d.real + d.imag * d.imag < r2])
            cid.append(np.full(len(idx[-1]), c))
    return np.concatenate(idx), np.concatenate(cid)


# ---------------------------------------------------------------------------
# The classification engine
# ---------------------------------------------------------------------------

class _EngineResult(NamedTuple):
    kind: np.ndarray
    index: np.ndarray          # petal direction or basin cycle id
    n_stop: np.ndarray         # int32


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
                region: _Region | None, basins: _Basins,
                escape_radius: float) -> _EngineResult:
    """Advance all points in lockstep through the shared fiber schedule C,
    until every point has a verdict or n_max steps are taken; the petal
    rule runs only where the rows certify a region (region not None), the
    basin rule only where they certify disks.

    Verdict checks run in a fixed order every step (escape, petal, basin);
    each point's outcome is a pure function of its own start, so results do
    not depend on how callers batch the points.  Settled points are stepped
    on, never read, until the next compaction, checked every step.  Starts
    run in tiles of at most _TILE (a smaller grid is one tile) up to step
    _POOL_STEP; the points each tile leaves undecided there, before that
    step's rules, are pooled into one lockstep for the rest of the run, so
    the whole start array lives only through the early steps.  Step counts
    are held as int32, so n_max must be below 2^31 (fatou_slice checks it).
    """
    live = np.flatnonzero(_distinct_rows(C).any(axis=0))
    C = C[:, :max(2, live.max(initial=0) + 1)]
    m = len(w0)
    kind = np.zeros(m, dtype=np.int8)
    index = np.full(m, -1, dtype=np.int32)
    n_stop = np.full(m, n_max, dtype=np.int32)

    def lockstep(ids: np.ndarray, w: np.ndarray, start: int, stop: int):
        """Run the points ids, at states w of step start, through the rules
        of steps start..stop-1, stepping after each; (ids, w) of the points
        still undecided at step stop.  w is rebound by every step and never
        written in place, so it may be a view of the starts."""
        undecided = np.ones(len(w), dtype=bool)  # aligned with ids and w

        def settle(sel: np.ndarray, verdict: int, n: int, cid=None) -> None:
            gids = ids[sel]
            kind[gids] = verdict
            n_stop[gids] = n
            if verdict == PETAL:
                index[gids] = _direction_index(w[sel], region.k, region.base)
            elif verdict == BASIN:
                index[gids] = cid
            undecided[sel] = False

        for n in range(start, stop):
            cur_abs = np.abs(w)

            # the max is NaN when any modulus is
            if not cur_abs.max(initial=0.0) <= escape_radius:
                settle(~(cur_abs <= escape_radius) & undecided, ESCAPE, n)

            if region is not None and n >= 1:
                hit = _petal_hits(w, cur_abs, region, undecided)
                if len(hit):
                    settle(hit, PETAL, n)

            if basins.disks:
                hit, cid = _basin_hits(w, cur_abs, basins, undecided)
                if len(hit):
                    settle(hit, BASIN, n, cid)

            del cur_abs  # so that it never meets the step's result
            left = np.count_nonzero(undecided)
            if n == n_max or not left:
                return ids[:0].copy(), w[:0].copy()  # views would hold them
            if len(w) > 256 and left < 0.9 * len(w):
                ids, w = ids[undecided], w[undecided]
                undecided = np.ones(len(w), dtype=bool)
            w = _step(C[n], w)
        return ids[undecided], w[undecided]

    w = np.asarray(w0, dtype=complex)
    del w0  # then only w holds the starts
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        parts = [lockstep(np.arange(i, min(i + _TILE, m), dtype=np.int32),
                          w[i:i + _TILE], 0, _POOL_STEP)
                 for i in range(0, max(m, 1), _TILE)]
        ids, w = (np.concatenate(f) for f in zip(*parts))
        del parts
        lockstep(ids, w, _POOL_STEP, n_max + 1)
    return _EngineResult(kind, index, n_stop)


# ---------------------------------------------------------------------------
# Single-orbit path
#
# For one point the per-step bookkeeping is pure overhead, so the trajectory
# is stepped a block at a time and the engine's step rules run once on each
# new block.  Each step is a Horner loop over the row's coefficients as
# one-element arrays (built once for a fixed fiber's one row, per step for a
# moving fiber), with every product and sum written into a preallocated
# one-element array that is not its own operand: such a product rounds as
# _step's array product does under both numpy dispatches (an in-place one
# does not).  The row stays untrimmed and every zero coefficient is added,
# as the engine's trimmed degrees add only exact zeros before an overflow
# and a skipped + 0 would turn a -0.0 part into +0.0.  The rules are
# causal, so both stop modes walk one block schedule (64 steps, then 128,
# ..., at most _CHUNK): each block is stepped, its derivative logs are
# formed, and until a verdict is found its steps are read once.
# ---------------------------------------------------------------------------

def _first_verdict(ws: np.ndarray, region: _Region | None, basins: _Basins,
                   escape_radius: float,
                   lo: int) -> tuple[int, int, int, int] | None:
    """(n, kind, index, period) of the first verdict at a step n >= lo of
    ws, or None; the steps below lo hold no verdict.  Kind codes ESCAPE <
    PETAL < BASIN follow the engine's order within a step, so the minimum
    is the verdict it settles.  Steps lo.. are read once, each rule in one
    call."""
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
    if basins.disks:
        hit, cid = _basin_hits(ws[lo:], a, basins)
        if len(hit):
            i = int(hit.argmin())
            c = int(cid[i])
            found.append((lo + int(hit[i]), BASIN, c,
                          len(basins.cycles[c][1])))
    return min(found, default=None)


def _run_single(C: np.ndarray, w0: complex, n_max: int,
                region: _Region | None, basins: _Basins,
                escape_radius: float, stop_at_verdict: bool):
    """The engine rules for one point, read block by block as it steps.

    Returns (kind, index, n_stop, period, ws, dlogs).  ws ends at n_stop
    when stop_at_verdict is set and a verdict fired, at n_max otherwise;
    dlogs[n] = log |g_n'(ws[n])| for every step taken.  Stopping at the
    verdict, ws and dlogs grow with the blocks (doubling, up to n_max
    steps); a full orbit sizes them for n_max at once."""
    size = min(n_max, 64) if stop_at_verdict else n_max
    ws = np.empty(size + 1, dtype=complex)
    dlogs = np.empty(size)
    ws[0] = w0
    # w, nxt and prod are one-element work arrays; each product and sum is
    # written into one that is not its own operand, and w and nxt swap
    w, nxt, prod = ws[:1].copy(), np.empty(1, complex), np.empty(1, complex)
    mul, add = np.multiply, np.add
    fixed = C.strides[0] == 0
    if fixed:  # the one row's coefficients, top first, as one-element arrays
        lead, *rest = C[0, ::-1, None]
    verdict = None
    done, block = 0, 64
    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        while done < n_max and (verdict is None or not stop_at_verdict):
            top = min(n_max, done + min(block, _CHUNK))
            if top > len(dlogs):
                size = min(n_max, max(top, 2 * len(dlogs)))
                ws = np.concatenate([ws, np.empty(size - len(dlogs), complex)])
                dlogs = np.concatenate([dlogs, np.empty(size - len(dlogs))])
            for n in range(done, top):
                if not fixed:
                    lead, *rest = C[n, ::-1, None]
                a = lead
                for c in rest:  # Horner: nxt = a * w + c
                    mul(a, w, prod)
                    add(prod, c, nxt)
                    a = nxt
                ws[n + 1] = nxt[0]
                w, nxt = nxt, w
            rows = C[done:top]  # elementwise: blocks change no bit
            acc = _horner([rows[:, j] * j for j in range(1, C.shape[1])],
                          ws[done:top])
            # -inf at 0, inf/nan past an overflow
            np.log(np.abs(acc), out=dlogs[done:top])
            if verdict is None:
                verdict = _first_verdict(ws[:top + 1], region, basins,
                                         escape_radius, done + (done > 0))
            done, block = top, 2 * block
    n_stop, kind, index, period = verdict or (n_max, UNDECIDED, -1, 0)
    cut = n_stop if stop_at_verdict else n_max
    return kind, index, n_stop, period, ws[:cut + 1], dlogs[:cut]


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
    C, region, basins = _setup(F, z0, n_max, escape_radius)
    kind, index, n_stop, period, ws, dlogs = _run_single(
        C, complex(w0), n_max, region, basins, escape_radius, stop_at_verdict)
    rep = None
    if kind == BASIN:  # the polished point whose key sorts first
        rep = min(basins.cycles[index][1], key=lambda z: _cycle_key([z]))
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
    min_log_derivative: float | None = None  # repelling check: min log |g'|


def _seeded(seed: int) -> random.Random:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative (got {seed})")
    return random.Random(seed)


def _uniform(rng: random.Random, n: int) -> list[float]:
    """n doubles uniform on the 2^-53 grid of [0, 1): the top 53 bits of
    each little-endian 8-byte word of randbytes."""
    return [(x >> 11) * 2.0 ** -53
            for x in struct.unpack(f"<{n}Q", rng.randbytes(8 * n))]


def _local_region(local: ParabolicLocal, z_band: float, rho: float) -> _Region:
    """_petal_region(local, |z_band|, rho), the engine's own wedge; ValueError
    when no radius certifies, or when rho^k, the largest |w^k| on it, lies
    below the normal doubles: the step errors keep too few bits there."""
    if not rho > 0:
        raise ValueError(f"rho must be positive (got {rho!r})")
    region = _petal_region(local, abs(z_band), rho)
    if region is None or not region.rho ** local.k >= 2.0 ** -1022:
        raise ValueError(f"no petal radius certifies |e| <= {PETAL_EPS} "
                         f"with rho^k a normal double (k = {local.k}, b = "
                         f"{local.b!r}, rho <= {rho!r})")
    return region


def _sample_petal(rng: random.Random, n: int,
                  region: _Region) -> list[complex]:
    """n points of the region's wedge, three uniform draws each: the
    direction j, t = (|w|/rho)^k on (0, 1 - g] and, given t, phi = k delta
    (delta the angle from direction j) on the interval where cos phi -
    |sin phi| > t + g.  The gap g = 256 (k + 2) 2^-53 is four times the
    margin of _petal_hits, so the rounding of w moves no point out of the
    wedge that the engine reads."""
    if n < 1:
        raise ValueError("need at least one sample")
    k, gap = region.k, 256 * (region.k + 2) * 2.0 ** -53
    u = _uniform(rng, 3 * n)
    out = []
    for uj, ut, uphi in zip(u[0::3], u[1::3], u[2::3]):
        t = (1.0 - ut) * (1.0 - gap)
        # cos phi - |sin phi| = sqrt(2) cos(|phi| + pi/4)
        half = math.acos((t + gap) * 0.5 ** 0.5) - 0.25 * math.pi
        phi = TWO_PI * int(uj * k) + half * (2.0 * uphi - 1.0)  # u k < k
        out.append(cmath.rect(region.rho * t ** (1.0 / k),
                              region.base + phi / k))
    return out


def forward_invariance_check(local: ParabolicLocal, z_band: float,
                             samples: int, seed: int,
                             rho: float = 0.1) -> SampleReport:
    """Sample the petal box {|z| < z_band, w in the wedge of
    _local_region(local, z_band, rho)}, step each point once, and count the
    steps whose error e = u' - u - 1, u = 1/(k w^k), exceeds the
    certificate's eps in modulus.  Violations are data, not errors;
    worst_margin is eps - max |e| (negative when violations occurred).

    e is formed without cancellation and without u: the map is w (1 + P),
    P = x (1 + tau), x = -w^k, tau = -w^k h(w), h = b + sum_i beta_i(z)
    w^(i+1), so e = tau - (1/k) sum_{m>=2} (-1)^m C(k+m-1, m) P^(m-1) (1 +
    tau), summed until a term no longer moves the sum (each is below a
    third of the one before on a certificate: 64 terms suffice)."""
    rng = _seeded(seed)
    region = _local_region(local, z_band, rho)
    ws = _sample_petal(rng, samples, region)
    rr = _uniform(rng, 2 * samples)
    k = local.k
    ratios = [-(k + m) / (m + 1) for m in range(2, 66)]
    lists = [[complex(local.b)], *(s.to_complex_list() for s in local.tail)]
    errs = []
    for w, a, b in zip(ws, rr[0::2], rr[1::2]):
        z = z_band * math.sqrt(a) * cmath.exp(1j * TWO_PI * b)
        wk = w ** k
        tau = -wk * _horner([_horner(c, z) for c in lists], w)
        p = -wk * (1.0 + tau)
        t, acc = 0.5 * (k + 1) * p * (1.0 + tau), 0j
        for r in ratios:
            nxt = acc + t
            if nxt == acc:
                break
            acc, t = nxt, t * p * r
        errs.append(abs(tau - acc))
    violations = sum(not x <= region.eps for x in errs)
    return SampleReport(samples, violations, region.eps - max(errs))


def repelling_expansion_check(local: ParabolicLocal, samples: int, seed: int,
                              rho: float = 0.1) -> SampleReport:
    """Verify |g'(zeta)| > 1 on the repelling petals at z = 0: the wedge of
    _local_region(local, 0, rho) turned by pi/k, from attracting direction
    j to the repelling direction pi (2j+1)/k.  There Re zeta^k < 0, so the
    model derivative 1 - (k+1) zeta^k has modulus above one; the check
    validates that the tail keeps the margin.  With g' = 1 + zeta^k sigma,
    |g'|^2 - 1 = |zeta|^k (2 Re(v sigma) + |zeta|^k |sigma|^2), v =
    (zeta/|zeta|)^k, and expansion is decided on the bracket, which stays
    positive where zeta^k underflows.  For the least x = |zeta|^k bracket,
    worst_margin is |g'| = sqrt(1 + x), 1.0 once x is below an ulp (k >= 15
    at rho = 0.1), and min_log_derivative log |g'| = log1p(x) / 2 keeps it;
    a NaN derivative counts as a violation and is left out of both."""
    rng = _seeded(seed)
    k = local.k
    # ParabolicLocal attracts along 2 pi j/k, so base pi/k repels
    region = _local_region(local, 0.0, rho)._replace(base=math.pi / k)
    # the derivative of the terms above zeta^{k+1}, over zeta^{2k}
    dh = [(2 * k + 1 + i) * c for i, c in enumerate(
        [complex(local.b), *(s.to_complex_list()[0] for s in local.tail)])]
    violations, least = 0, math.inf
    for zeta in _sample_petal(rng, samples, region):
        r = abs(zeta)
        v, rk = (zeta / r) ** k, r ** k
        sigma = (v * rk) * _horner(dh, zeta) - (k + 1)
        # x * x, as x ** 2 raises OverflowError past the double range
        bracket = (2.0 * (v * sigma).real
                   + rk * (sigma.real * sigma.real + sigma.imag * sigma.imag))
        if not bracket > 0.0:
            violations += 1
        x = rk * bracket  # |g'|^2 - 1
        if x < least:  # never true for NaN, which is skipped
            least = x
    return SampleReport(samples, violations, math.sqrt(1.0 + least),
                        0.5 * math.log1p(least) if least > -1.0 else -math.inf)


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

    def _row_blocks(self) -> list[tuple[int, int]]:
        """Row ranges [i0, i1) of at most _WRITE_PIXELS pixels each (one
        row at least), which the writers format one at a time."""
        h, wdt = self.code.shape
        step = max(1, _WRITE_PIXELS // max(wdt, 1))
        return [(i, min(i + step, h)) for i in range(0, h, step)]

    def _ppm_blocks(self):
        """The PPM text in pieces: the header, then each row block."""
        h, wdt = self.code.shape
        yield f"P3\n{wdt} {h}\n255\n"
        for i0, i1 in self._row_blocks():
            codes, inverse = np.unique(self.code[i0:i1], return_inverse=True)
            palette = np.array([" ".join(map(str, _code_color(int(c))))
                                for c in codes], dtype=object)
            rows = palette[inverse].reshape(i1 - i0, wdt).tolist()
            yield "".join(" ".join(r) + "\n" for r in rows)

    def to_ppm_text(self) -> str:
        return "".join(self._ppm_blocks())

    def write_ppm(self, path) -> None:
        with open(path, "w") as fh:
            fh.writelines(self._ppm_blocks())

    def write_csv(self, path) -> None:
        """Rows re_w,im_w,verdict_code,n_stop; the ",code,n_stop" suffix is
        formatted once per distinct pair of a row block (n_stop < 2^32)."""
        re = [repr(x) + "," for x in self.re.tolist()]
        ims = self.im.tolist()
        with open(path, "w", newline="") as fh:
            fh.write("re_w,im_w,verdict_code,n_stop\n")
            for i0, i1 in self._row_blocks():
                code, n_stop = self.code[i0:i1], self.n_stop[i0:i1]
                pairs, inverse = np.unique(code.astype(np.int64) << 32 | n_stop,
                                           return_inverse=True)
                suffix = np.array([f",{v >> 32},{v & 0xFFFFFFFF}\n"
                                   for v in pairs.tolist()], dtype=object)
                rows = suffix[inverse].reshape(i1 - i0, len(re)).tolist()
                for y, ends in zip(ims[i0:i1], rows):
                    y = repr(y)
                    fh.write("".join(map(operator.add, [x + y for x in re],
                                         ends)))


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
    C, region, basins = _setup(F, z0, n_max, escape_radius)

    def run_rows(bounds: tuple[int, int]) -> _EngineResult:
        i0, i1 = bounds  # no name here holds the start array past its use
        return _run_engine(C, (re[np.newaxis, :] + 1j * im[i0:i1, np.newaxis])
                           .ravel(), n_max, region, basins, escape_radius)

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

    kind, index, n_stop = (f.reshape(res, res) for f in fields)

    code = np.zeros((res, res), dtype=np.int32)
    code[kind == ESCAPE] = CODE_ESCAPE
    pm = kind == PETAL
    code[pm] = CODE_PETAL_BASE + index[pm]
    bm = kind == BASIN
    code[bm] = CODE_BASIN_BASE + index[bm]

    return FatouGrid(re=re, im=im, code=code, n_stop=n_stop,
                     cycles=[c[0] for c in basins.cycles])


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
    z = 0.  Critical points are the roots of g' by _roots, the root finder
    of _basin_disks; each is validated through |g'(root)| and iterated.
    The overall flag is true iff every verdict is a basin or a petal.
    """
    coeffs = (g.fiber_constants() if isinstance(g, SkewGerm)
              else [complex(c) for c in g])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 3:
        raise ValueError("fiber polynomial must have degree at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    deriv = [j * coeffs[j] for j in range(1, len(coeffs))]
    # one certificate for every orbit
    C, region, basins = _setup(ConstantVerticalMap(coeffs), 0j, n_max, 1e6)
    reports = []
    for r in sorted(_roots(deriv), key=lambda c: (round(c.real, 12),
                                                  round(c.imag, 12))):
        kind, index, n_stop, period = _run_single(C, r, n_max, region, basins,
                                                  1e6, True)[:4]
        reports.append(CriticalReport(
            point=complex(r),
            verdict=Verdict(kind, 0 if kind == BASIN else index),
            n_stop=n_stop, root_defect=abs(_horner(deriv, r)),
            cycle_period=period if kind == BASIN else None))
    plausible = all(rep.verdict.kind in (PETAL, BASIN) and rep.root_defect < 1e-6
                    for rep in reports)
    return HypothesisReport(reports=reports, plausible=plausible)
