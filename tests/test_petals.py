import cmath
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import skewdyn as sd
from skewdyn import petals
from skewdyn.petals import (BASIN, CODE_BASIN_BASE, CODE_ESCAPE, ESCAPE,
                            PETAL, UNDECIDED)

from conftest import germ_from_coeffs, random_parabolic_germ

ESCAPE_RADIUS = 1e6  # iterate_orbit's and fatou_slice's default


# -- directions and membership -------------------------------------------------

def test_directions_for_jet():
    # w + w^2 attracts along -1; w - w^2 along +1
    assert cmath.exp(1j * sd.directions_for_jet(1.0, 1)) == pytest.approx(-1)
    assert cmath.exp(1j * sd.directions_for_jet(-1.0, 1)) == pytest.approx(1)


def test_petal_membership_examples():
    rho = 0.1
    assert sd.in_attracting_petal(rho / 2, 1, rho, 0.25) == 0
    assert sd.in_attracting_petal(-rho / 2, 1, rho, 0.25) is None
    # k = 2, w = 0.9 rho i sits on the sector boundary with Re u < 0
    w = 0.9 * rho * 1j
    u = 1.0 / (2 * w ** 2)
    assert u.real < 0
    assert sd.in_attracting_petal(w, 2, rho, 0.25) is None
    # a genuine second-sector point for k = 2
    assert sd.in_attracting_petal(-rho / 2, 2, rho, 0.25) == 1
    # non-finite points lie in no petal, with no RuntimeWarning; |w| and
    # (|w|/rho)^k may overflow (None) or underflow (harmless at high order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([sd.in_attracting_petal(w, 1, rho, 0.25) for w in
                        [rho / 2, -rho / 2, np.nan, np.inf, complex(np.nan, 1),
                         1.5e308 + 1.5e308j]])
        assert sd.in_attracting_petal(rho / 2, 320, rho, 0.25) == 0
        assert sd.in_attracting_petal(1e300, 2, rho, 0.25) is None
    assert got.tolist() == [0, None, None, None, None, None]
    with pytest.raises(ValueError):
        sd.in_attracting_petal(0j, 1, rho, 0.25)
    with pytest.raises(ValueError):
        sd.in_attracting_petal(np.complex128(0), 1, rho, 0.25)
    with pytest.raises(ValueError):
        sd.in_attracting_petal(0.05, 1, rho, 1.5)


def test_membership_against_direct_halfplane_evaluation():
    rng = np.random.default_rng(3)
    for k, rho, eta in ((1, 0.1, 0.25), (2, 0.1, 0.1), (3, 0.2, 0.0)):
        r_cut = 1.0 / (k * rho ** k)
        ws = [(rng.random() * 1.4 * rho) * cmath.exp(2j * math.pi * rng.random())
              for _ in range(200)]
        ws = [w for w in ws if w != 0]
        got = np.array([sd.in_attracting_petal(w, k, rho, eta) for w in ws])
        assert got.shape == (len(ws),)
        for w, g in zip(ws, got):
            ang = cmath.phase(w)
            j = int(round(ang * k / (2 * math.pi))) % k
            delta = (ang - 2 * math.pi * j / k + math.pi) % (2 * math.pi) - math.pi
            u = 1.0 / (k * w ** k)
            inside = (abs(delta) < math.pi / k
                      and u.real > r_cut - eta * abs(u.imag))
            assert g == (j if inside else None)


# -- orbits -----------------------------------------------------------------

def test_verdict_repr_and_equality():
    # repr(verdict) is written into orbit.json and hypotheses.json
    assert repr(sd.Verdict(PETAL, 1)) == "ParabolicPetal(1)"
    assert repr(sd.Verdict(BASIN, 0)) == "AttractingBasin(0)"
    assert [repr(sd.Verdict(k)) for k in (UNDECIDED, ESCAPE)] == ["Undecided", "Escape"]
    assert sd.Verdict(PETAL, 1) == sd.Verdict(PETAL, 1)
    assert sd.Verdict(PETAL, 1) != sd.Verdict(PETAL, 0)
    assert sd.Verdict(PETAL, 1) != sd.Verdict(BASIN, 1)
    assert sd.Verdict(ESCAPE) == sd.Verdict(ESCAPE, -1)


def test_model_petal_orbit_and_decay():
    orb = sd.iterate_orbit(sd.ParabolicLocal(k=1), 0, 0.1, 10000,
                           stop_at_verdict=False)
    assert orb.verdict == sd.Verdict(PETAL, 0)
    assert 0.95 <= 10000 * abs(orb.ws[10000]) <= 1.05


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decay_law_bracket(k):
    loc = sd.ParabolicLocal(k=k)
    orb = sd.iterate_orbit(loc, 0, 0.2, 2000, stop_at_verdict=False)
    assert orb.verdict.kind == PETAL
    target = k ** (-1.0 / k)
    for n in (1000, 1500, 2000):
        assert 0.9 * target <= n ** (1.0 / k) * abs(orb.ws[n]) <= 1.1 * target


@pytest.mark.parametrize("k,j", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_petal_direction_index(k, j):
    w0 = 0.1 * cmath.exp(2j * math.pi * j / k)
    orb = sd.iterate_orbit(sd.ParabolicLocal(k=k), 0, w0, 20000)
    assert orb.verdict == sd.Verdict(PETAL, j)


def test_escape_at_step_zero():
    orb = sd.iterate_orbit(sd.ParabolicLocal(k=1), 0, 10.0, 100,
                           escape_radius=5.0)
    assert orb.verdict.kind == sd.ESCAPE and orb.n_stop == 0
    assert sd.vertical_derivative_sum(orb).tolist() == [0.0]  # no steps


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan])
def test_escape_radius_must_be_positive(radius):
    # such a radius would label every start as escaping at step 0
    F = sd.ConstantVerticalMap([0, 0, 1])
    with pytest.raises(ValueError, match="escape_radius must be positive"):
        sd.iterate_orbit(F, 0, 0.1, 50, escape_radius=radius)
    with pytest.raises(ValueError, match="escape_radius must be positive"):
        sd.fatou_slice(F, 0, (-0.5, 0.5, -0.5, 0.5, 5), n_max=50,
                       escape_radius=radius)


def test_superattracting_basin():
    orb = sd.iterate_orbit(sd.ConstantVerticalMap([0, 0, 1]), 0, 0.5, 2000)
    assert orb.verdict.kind == BASIN
    assert orb.cycle_period == 1
    assert orb.cycle_representative == pytest.approx(0, abs=1e-8)


def test_attracting_two_cycle():
    orb = sd.iterate_orbit(sd.ConstantVerticalMap([-1, 0, 1]), 0, 0.1, 5000)
    assert orb.verdict.kind == BASIN and orb.cycle_period == 2
    assert orb.cycle_representative == pytest.approx(-1, abs=1e-6)


def test_one_coefficient_map_paths_agree():
    # the constant fiber map g = 0.5: a start escapes at step 0 or lands on
    # the fixed point 0.5 in one step; grid engine and single path agree
    F = sd.ConstantVerticalMap([0.5])
    grid = sd.fatou_slice(F, 0, (-2e6, 2e6, -1.0, 1.0, 5), n_max=200)
    assert grid.cycles == [((0.5, 0.0),)]
    codes = {ESCAPE: CODE_ESCAPE, BASIN: CODE_BASIN_BASE}
    for i, y in enumerate(grid.im):
        for j, x in enumerate(grid.re):
            orb = sd.iterate_orbit(F, 0, complex(x, y), 200)
            assert grid.code[i, j] == codes[orb.verdict.kind]
            assert grid.n_stop[i, j] == orb.n_stop
            if orb.verdict.kind == BASIN:
                assert orb.cycle_period == 1 and orb.cycle_representative == 0.5
                assert np.all(orb.ws[1:] == 0.5)
                assert np.all(orb.dlogs == -np.inf)  # g' vanishes
    assert set(np.unique(grid.code)) == {CODE_ESCAPE, CODE_BASIN_BASE}


def test_orbit_stepping_matches_direct_recomputation(golden):
    # independent pointwise oracle for the engine's stepping
    F = random_parabolic_germ(golden, 6, 4, seed=12, scale=0.2)
    orb = sd.iterate_orbit(F, 0.05, 0.3 + 0.1j, 50, stop_at_verdict=False)
    for n in (0, 7, 23, 49):
        z = orb.zs[n]
        coeffs = [np.polyval(s.to_complex_list()[::-1], z) for s in F.a]
        direct = sum(c * orb.ws[n] ** j for j, c in enumerate(coeffs))
        assert orb.ws[n + 1] == pytest.approx(direct, rel=1e-12, abs=1e-15)
        dpoly = sum(j * c * orb.ws[n] ** (j - 1)
                    for j, c in enumerate(coeffs) if j >= 1)
        assert orb.dlogs[n] == pytest.approx(math.log(abs(dpoly)), abs=1e-9)


def test_orbit_fiber_rotation(golden):
    F = random_parabolic_germ(golden, 4, 3, seed=2, scale=0.1)
    orb = sd.iterate_orbit(F, 0.05, 0.01, 10, stop_at_verdict=False)
    lam = sd.lam_power(golden, 1)
    assert orb.zs[3] == pytest.approx(0.05 * sd.lam_power(golden, 3), rel=1e-12)
    assert abs(orb.zs[7]) == pytest.approx(0.05, rel=1e-12)


def test_orbit_radius_validation(golden):
    F = random_parabolic_germ(golden, 4, 3, seed=2)
    with pytest.raises(ValueError):
        sd.iterate_orbit(F, 0.5, 0.1, 10)  # |z0| >= default radius 0.1
    with pytest.raises(TypeError, match="expected a SkewGerm"):
        sd.iterate_orbit([0, 1, 1], 0.5, 0.1, 10)  # not a map type


# -- single-orbit path against the grid engine --------------------------------

# Starts that drive the cycle automaton through its rarer transitions, found
# once by scanning radii on the golden rotation maps below (|w0| is near the
# 1e-9 recurrence tolerance, so returns to an anchor come at irregular gaps):
REANCHOR_BASIN_W0 = 6e-10      # slow rotation: re-anchors, then period-1 basin
STALE_BASIN_W0 = 2e-8          # slow rotation: stale anchor, period-55 basin
REANCHOR_UNDECIDED_W0 = 1e-9   # Siegel: re-anchors until n_max
STALE_UNDECIDED_W0 = 1e-7      # Siegel: anchors go stale until n_max

# n_max values on and next to the single path's block edges (64, 64 + 128)
BLOCK_EDGE_N_MAX = (1, 2, 7, 63, 64, 65, 192)
# and on the edges of its first block capped at _CHUNK = 1024 steps (960 to
# 1984), which only the scripted orbits cross
CAPPED_EDGE_N_MAX = (960, 1984)


def _differential_corpus(golden):
    """name -> (map, z0, radius of seeded starts, pinned starts, largest
    n_max, verdict kind that must occur at the largest n_max)."""
    lam = sd.lam_power(golden, 1)
    cvm = sd.ConstantVerticalMap
    return {
        "petal_k1": (sd.ParabolicLocal(k=1), 0, 0.3, [0.1], 300, PETAL),
        "petal_k2": (sd.ParabolicLocal(k=2), 0, 0.3, [0.1, -0.1], 300, PETAL),
        "petal_k3": (sd.ParabolicLocal(k=3), 0, 0.3, [0.1], 2400, PETAL),
        "parabolic_w_plus_w2": (cvm([0, 1, 1]), 0, 0.6, [], 300, PETAL),
        "basin_period1": (cvm([0, 0, 1]), 0, 1.3, [0.0], 300, BASIN),
        "basin_period2": (cvm([-1, 0, 1]), 0, 1.0, [], 300, BASIN),
        "basin_period3": (cvm([-0.1226 + 0.7449j, 0, 1]), 0, 0.8, [], 300,
                          BASIN),
        "siegel": (cvm([0, lam, 1], golden), 0, 0.3,
                   [REANCHOR_UNDECIDED_W0, STALE_UNDECIDED_W0], 1000,
                   UNDECIDED),
        "slow_rotation": (cvm([0, 0.9999 * lam, 1], golden), 0, 0.3,
                          [REANCHOR_BASIN_W0, STALE_BASIN_W0], 1900, BASIN),
        "moving_fiber": (germ_from_coeffs(golden, [[0], [1], [1],
                                                   [0, 0.05]], 8, 3),
                         0.05, 0.5, [], 300, PETAL),
    }


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@pytest.mark.parametrize("name", ["petal_k1", "petal_k2", "petal_k3",
                                  "parabolic_w_plus_w2", "basin_period1",
                                  "basin_period2", "basin_period3", "siegel",
                                  "slow_rotation", "moving_fiber"])
def test_single_orbit_path_matches_engine(golden, name):
    corpus = _differential_corpus(golden)
    F, z0, radius, pinned, n_big, expect = corpus[name]
    rng = np.random.default_rng([11, list(corpus).index(name)])
    seeded = (radius * np.sqrt(rng.random(6))
              * np.exp(2j * np.pi * rng.random(6)))
    starts = [complex(w) for w in pinned] + seeded.tolist() + [2e6]
    for n_max in BLOCK_EDGE_N_MAX + (n_big,):
        C = petals._coeff_matrix(F, z0, n_max)
        region = petals._petal_region(F, C)
        eng = petals._run_engine(C, np.array(starts), n_max, region,
                                 ESCAPE_RADIUS)
        kinds = set()
        for i, w0 in enumerate(starts):
            want = (int(eng.kind[i]), int(eng.index[i]), int(eng.n_stop[i]),
                    int(eng.period[i]))
            # the engine holding this start alone gives the same fields
            alone = petals._run_engine(C, np.array([w0]), n_max, region,
                                       ESCAPE_RADIUS)
            assert ([_bits(f) for f in alone]
                    == [_bits(f[i:i + 1]) for f in eng]), (name, n_max, w0)
            stop = petals._run_single(C, w0, n_max, region, ESCAPE_RADIUS,
                                      stop_at_verdict=True)
            full = petals._run_single(C, w0, n_max, region, ESCAPE_RADIUS,
                                      stop_at_verdict=False)
            for got in (stop, full):
                assert got[:4] == want, (name, n_max, w0)
            kind, n_stop, ws = stop[0], stop[2], stop[4]
            kinds.add(kind)
            if kind != UNDECIDED:
                assert _bits(ws[n_stop]) == _bits(eng.w_verdict[i])
            assert len(ws) == n_stop + 1 and len(stop[5]) == n_stop
            assert len(full[4]) == n_max + 1 and len(full[5]) == n_max
            assert _bits(full[4][:n_stop + 1]) == _bits(ws)
            assert full[5][:n_stop].tobytes() == stop[5].tobytes()
        assert ESCAPE in kinds  # the 2e6 start escapes at n = 0
    assert expect in kinds


def _schedule_for(seq: np.ndarray) -> np.ndarray:
    """A degree-1 fiber schedule whose orbit from seq[0] is exactly seq."""
    C = np.zeros((len(seq), 2), dtype=complex)
    C[:-1, 0] = seq[1:]
    return C


def _scripted_region(k, base, rho):
    """A petal region with the given geometry for scripted orbits, whose
    degree-1 schedules certify none: lead a = -e^{-i k base}, so that the
    attracting directions start at base."""
    return petals._Region(k, -cmath.exp(-1j * k * base), base, rho,
                          petals.PETAL_EPS)


@pytest.mark.parametrize("seed", range(8))
def test_single_orbit_path_matches_engine_on_scripted_orbits(monkeypatch,
                                                             seed):
    # Scripted orbits reach the automata's edge cases far more often than
    # real maps: near-repeats that are not transitive (0 ~ 6e-10 ~ 1.2e-9),
    # first gaps past a small period cap, stale anchors, late escapes, and
    # orbits that pass the petal region's edges.
    monkeypatch.setattr(petals, "WINDOW", 4)
    monkeypatch.setattr(petals, "PERIOD_CAP", 6)
    rng = np.random.default_rng([29, seed])
    pool = np.array([0, 6e-10, 1.2e-9, 0.5, 1.0])
    for trial in range(40):
        n_max = int(rng.choice([40, 63, 64, 65, 130]))
        if trial % 2:
            region = _scripted_region(2, 0.3, 0.2)
            mod = 0.5 * np.cumprod(rng.uniform(0.55, 1.08, n_max + 1))
            ang = (0.3 + np.pi * rng.integers(0, 2, n_max + 1)
                   + rng.normal(0.0, 0.6, n_max + 1))
            seq = mod * np.exp(1j * ang)
        else:
            region = None
            pick = rng.integers(0, len(pool) + 3, n_max + 1)
            fresh = 10.0 + np.arange(n_max + 1)  # never near anything
            seq = np.where(pick < len(pool),
                           pool[np.minimum(pick, len(pool) - 1)], fresh)
        if trial % 3 == 0:
            seq[rng.integers(1, n_max + 1)] = 2e6
        seq = seq.astype(complex)
        C = _schedule_for(seq)
        eng = petals._run_engine(C, seq[:1], n_max, region, ESCAPE_RADIUS)
        want = (int(eng.kind[0]), int(eng.index[0]), int(eng.n_stop[0]),
                int(eng.period[0]))
        # both paths call the same step rules, so the plain-Python walks
        # are the oracle of the rules themselves
        assert _reference_verdict(seq, region) == want, (seed, trial)
        for stop_at_verdict in (True, False):
            got = petals._run_single(C, seq[0], n_max, region,
                                     ESCAPE_RADIUS, stop_at_verdict)
            assert got[:4] == want, (seed, trial)
            assert _bits(got[4]) == _bits(seq[:len(got[4])])
            if want[0] != UNDECIDED:
                assert _bits(got[4][want[2]]) == _bits(eng.w_verdict[0])


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_single_orbit_path_reads_in_chunks_as_in_one(monkeypatch, chunk):
    # the verdict scans and the derivative logs a few steps at a time:
    # scripted orbits (escapes, petal entries, catches, re-anchors and stale
    # drops on every chunk edge) give the plain-Python walks' fields, their
    # own trajectory and a derivative log for each step taken (-inf: the
    # scripted maps are constant in w)
    monkeypatch.setattr(petals, "WINDOW", 4)
    monkeypatch.setattr(petals, "PERIOD_CAP", 6)
    monkeypatch.setattr(petals, "_CHUNK", chunk)
    rng = np.random.default_rng([37, chunk])
    pool = np.array([0, 6e-10, 1.2e-9, 0.5, 1.0])
    for trial in range(60):
        n_max = int(rng.choice([40, 63, 64, 65, 130]))
        if trial % 2:
            region = _scripted_region(2, 0.3, 0.2)
            mod = 0.5 * np.cumprod(rng.uniform(0.55, 1.08, n_max + 1))
            ang = (0.3 + np.pi * rng.integers(0, 2, n_max + 1)
                   + rng.normal(0.0, 0.6, n_max + 1))
            seq = mod * np.exp(1j * ang)
        else:
            region = None
            pick = rng.integers(0, len(pool) + 3, n_max + 1)
            seq = np.where(pick < len(pool),
                           pool[np.minimum(pick, len(pool) - 1)],
                           10.0 + np.arange(n_max + 1))
        if trial % 3 == 0:
            seq[rng.integers(1, n_max + 1)] = 2e6
        seq = seq.astype(complex)
        C = _schedule_for(seq)
        want = _reference_verdict(seq, region)
        for stop_at_verdict in (True, False):
            got = petals._run_single(C, seq[0], n_max, region, ESCAPE_RADIUS,
                                     stop_at_verdict)
            assert got[:4] == want, (chunk, trial)
            ws = got[4]
            assert _bits(ws) == _bits(seq[:len(ws)])
            assert got[5].tobytes() == np.full(len(ws) - 1, -np.inf).tobytes()


def _cycle_walk(ws):
    """The engine's cycle automaton for one point, step by step in plain
    Python: ((n, period) of the confirmation or None, transition counts).
    Anchors, recurrences and stale drops are the steps that change its
    state."""
    tol, cap, window = petals.CYCLE_TOL, petals.PERIOD_CAP, petals.WINDOW
    pts = ws.tolist()
    anchored, anchor, anchor_step, last_hit, period = False, 0j, 0, 0, 0
    seen = {"anchor": 0, "recur": 0, "reanchor": 0, "stale": 0}
    for n in range(2, len(pts)):
        w = pts[n]
        if not anchored and abs(w - pts[n // 2]) < tol:
            anchored, anchor, anchor_step, last_hit, period = True, w, n, n, 0
            seen["anchor"] += 1
        if not anchored:
            continue
        near = abs(w - anchor) < tol
        if near and last_hit != n:
            seen["recur"] += 1
            gap = n - last_hit
            if period == 0 and gap > cap:
                anchored = False
            elif period == 0:
                period = gap
            elif gap != period:
                anchor, anchor_step, period = w, n, 0
                seen["reanchor"] += 1
            if anchored:
                last_hit = n
        if anchored and near and period > 0 and n - anchor_step >= window:
            return (n, period), seen
        if anchored and n - last_hit > cap:
            anchored = False
            seen["stale"] += 1
    return None, seen


def _region_walk(ws, region):
    """The petal rule for one point, step by step in plain Python and read
    in u = -1/(k a w^k): (n, direction) of the first step n >= 1 with
    |Im u| < Re u - R, R = 1/(k |a| rho^k), or None."""
    k, lead = region.k, region.lead
    r_cut = 1.0 / (k * abs(lead) * region.rho ** k)
    for n, w in enumerate(ws.tolist()[1:], 1):
        if w == 0 or not abs(w) < region.rho:  # |w| < rho on the region
            continue
        u = -1.0 / (k * lead * w ** k)
        if abs(u.imag) < u.real - r_cut:
            off = (cmath.phase(w) - region.base) * k / (2 * math.pi)
            return n, round(off) % k
    return None


# the constants of the retired petal rule, a 50-step streak
STREAK_WINDOW, STREAK_ARG_TOL, STREAK_GATE, STREAK_SHRINK = 50, 0.2, 0.75, 0.5


def _streak_walk(ws, k, base):
    """The retired petal rule for one point, step by step in plain Python,
    with the sector read from the angle of w: ((n, direction) of the first
    hit or None, [start, length] of each qualifying run up to the hit).  A
    step qualified below STREAK_GATE with |w| falling and arg w within
    STREAK_ARG_TOL of a direction; STREAK_WINDOW qualifying steps in a row
    with |w| shrunk by STREAK_SHRINK since the run's start were a hit."""
    a = np.abs(ws).tolist()  # the moduli as the engine read them
    streak, bound, runs = 0, 0.0, []
    for n in range(1, len(a)):
        qual = 0.0 < a[n] < min(a[n - 1], STREAK_GATE)
        if qual:
            off = (cmath.phase(ws[n]) - base) * k / (2 * math.pi)
            qual = abs(off - round(off)) * 2 * math.pi / k <= STREAK_ARG_TOL
        if streak == 0:
            bound = STREAK_SHRINK * a[n]
        streak = streak + 1 if qual else 0
        if streak == 1:
            runs.append([n, 0])
        if streak:
            runs[-1][1] = streak
        if streak >= STREAK_WINDOW and a[n] <= bound:
            return (n, round(off) % k), runs
    return None, runs


def _reference_verdict(ws, region, petal=None):
    """(kind, index, n_stop, period) of one orbit from plain-Python walks of
    the rules, taken in the engine's check order within a step; petal
    replaces the region walk's (n, direction) when given."""
    found = [(int(n), ESCAPE, -1, 0)
             for n in np.flatnonzero(~(np.abs(ws) <= ESCAPE_RADIUS))[:1]]
    if petal is None and region is not None:
        petal = _region_walk(ws, region)
    if petal is not None:
        found.append((petal[0], PETAL, petal[1], 0))
    cycle = _cycle_walk(ws)[0]
    if cycle is not None:
        found.append((cycle[0], BASIN, -1, cycle[1]))
    n, kind, index, period = min(found, default=(len(ws) - 1, UNDECIDED, -1, 0))
    return kind, index, n, period


def _paths_agree(seq, region):
    """The engine, the single path (both stop modes) and the plain-Python
    walks give the same fields on seq and on its prefixes at the block-edge
    n_max values; returns the fields on the whole of seq."""
    C = _schedule_for(seq)
    edges = BLOCK_EDGE_N_MAX + CAPPED_EDGE_N_MAX
    for n_max in [n for n in edges if n < len(seq) - 1] + [len(seq) - 1]:
        eng = petals._run_engine(C, seq[:1], n_max, region, ESCAPE_RADIUS)
        want = (int(eng.kind[0]), int(eng.index[0]), int(eng.n_stop[0]),
                int(eng.period[0]))
        assert _reference_verdict(seq[:n_max + 1], region) == want, n_max
        for stop_at_verdict in (True, False):
            got = petals._run_single(C, seq[0], n_max, region, ESCAPE_RADIUS,
                                     stop_at_verdict)
            assert got[:4] == want, (n_max, stop_at_verdict)
    return want


def _fresh(top: int) -> np.ndarray:
    """10 + n at step n: no petal step and no tortoise catch."""
    return (10.0 + np.arange(top + 1)).astype(complex)


# (run length, modulus factor per step, step of the hit within the run)
# with rho = 0.36 on the attracting axis: from 0.7, the run's fourth step
# (0.345) is the first inside at 0.79, its fifth (0.332) at 0.83, and none
# is at 0.9
PETAL_RUNS = [(3, 0.79, None), (4, 0.79, 3), (5, 0.79, 3), (5, 0.83, 4),
              (4, 0.9, None)]


@pytest.mark.parametrize("start", [1, 5, 60, 61, 62, 189])
@pytest.mark.parametrize("length,factor,hit", PETAL_RUNS)
def test_petal_runs_at_run_and_block_edges(start, length, factor, hit):
    # scripted runs toward the region: entries on a run's last step, entries
    # across the single path's block edges (64, 192) and runs that end on
    # the trajectory's last step
    region = _scripted_region(2, 0.3, 0.36)
    for top in (200, start + length - 1):
        seq = _fresh(top)
        seq[start:start + length] = (0.7 * factor ** np.arange(length)
                                     * np.exp(1j * (0.3 + math.pi)))
        want = ((PETAL, 1, start + hit, 0) if hit is not None
                else (UNDECIDED, -1, top, 0))
        assert _paths_agree(seq, region) == want


@pytest.mark.parametrize("edge", [960, 1984])
@pytest.mark.parametrize("length,factor,hit", PETAL_RUNS[1:4])
def test_petal_entries_at_capped_block_edges(edge, length, factor, hit):
    # entries on the last step of a block capped at _CHUNK steps (960, the
    # first one's start, and 1984, its end) and on the step after it, by
    # runs that end on the trajectory's last step
    region = _scripted_region(2, 0.3, 0.36)
    start = edge - 3
    seq = _fresh(start + length - 1)
    seq[start:] = 0.7 * factor ** np.arange(length) * np.exp(1j * (0.3 + math.pi))
    assert _paths_agree(seq, region) == (PETAL, 1, start + hit, 0)


@pytest.mark.parametrize("mods,sign,want", [
    # a point on the region's outer radius is outside: the test is strict
    ([0.75, 0.5, 0.25], 1.0, (PETAL, 0, 3, 0)),
    # the second attracting axis, with a modulus on each side of rho
    ([0.6, 0.4, 0.3], -1.0, (PETAL, 1, 2, 0)),
    # the fixed point 0 is in no region
    ([0.0, 0.3], 1.0, (PETAL, 0, 2, 0)),
])
def test_petal_runs_on_exact_moduli(mods, sign, want):
    # real starts on the attracting axes of k = 2, rho = 0.5, whose moduli
    # every path reads exactly
    seq = _fresh(7)
    seq[1:1 + len(mods)] = sign * np.array(mods)
    assert _paths_agree(seq, _scripted_region(2, 0.0, 0.5)) == want


def test_petal_runs_before_a_hit_are_each_read_once(monkeypatch):
    # stopping at the verdict, the single path reads each block's new steps
    # once (64, then 128, then 256 of them) and carries the cycle automaton
    # over; the entry at step 300 lies in the third block
    seq = _fresh(1000)
    seq[300] = 0.1 * cmath.exp(0.3j)
    region = _scripted_region(2, 0.3, 0.36)
    calls = []
    hits = petals._petal_hits

    def counted(w, *args):
        calls.append(len(w))
        return hits(w, *args)

    monkeypatch.setattr(petals, "_petal_hits", counted)
    got = petals._run_single(_schedule_for(seq), seq[0], 1000, region,
                             ESCAPE_RADIUS, True)
    assert got[:4] == (PETAL, 0, 300, 0)
    assert calls == [64, 128, 256]


@pytest.mark.parametrize("catch", [2, 7, 63, 64, 65, 192, 960, 1984])
def test_catches_at_trajectory_and_block_edges(monkeypatch, catch):
    # a catch on the trajectory's last step, at the single path's block
    # edges, and a confirmation WINDOW steps later on the last step
    monkeypatch.setattr(petals, "WINDOW", 4)
    monkeypatch.setattr(petals, "PERIOD_CAP", 6)
    for top, recur, want in ((catch, 0, (UNDECIDED, -1, catch, 0)),
                             (catch + 3, 0, (UNDECIDED, -1, catch + 3, 0)),
                             (catch + 4, 4, (BASIN, -1, catch + 4, 1))):
        seq = _fresh(top)
        seq[catch:catch + 1 + recur] = seq[catch // 2]
        assert _paths_agree(seq, None) == want


@pytest.mark.parametrize("recatch", [10, 63, 64, 65, 192, 960])
@pytest.mark.parametrize("caught_at_drop", [False, True])
def test_recatch_right_after_a_stale_drop(monkeypatch, recatch,
                                          caught_at_drop):
    # an anchor with no recurrence goes stale at the end of step c + 7
    # (PERIOD_CAP = 6); a catch on that step is ignored, as the point is
    # still anchored, and the catch on the next step anchors again
    monkeypatch.setattr(petals, "WINDOW", 4)
    monkeypatch.setattr(petals, "PERIOD_CAP", 6)
    c = recatch - 8
    seq = _fresh(recatch + 10)
    seq[c] = seq[c // 2]
    if caught_at_drop:
        seq[c + 7] = seq[(c + 7) // 2]
    seq[recatch:recatch + 5] = seq[recatch // 2]
    # the first anchor and its drop are real: stopped before the re-catch,
    # the orbit is undecided
    assert _paths_agree(seq[:recatch], None)[0] == UNDECIDED
    assert _cycle_walk(seq[:recatch])[1]["stale"] == 1
    assert _paths_agree(seq, None) == (BASIN, -1, recatch + 4, 1)


def test_single_path_evaluates_each_petal_run_in_one_call(monkeypatch):
    # the benchmark's orbit-k3 map from a start near a repelling direction,
    # whose entry comes late (step 346): in both stop modes the single path
    # reads each block's new steps in one call of the petal rule (64, then
    # 128, then the 256 that hold the entry), never once per step, and
    # reads nothing after the entry, also when it goes on stepping
    g = sd.ConstantVerticalMap([0, 1, 0, 0, -1])
    w0, n_max = 0.1 * cmath.exp(1j * (math.pi / 3 - 0.01)), 10 ** 4
    C = petals._coeff_matrix(g, 0, n_max)
    region = petals._petal_region(g, C)
    calls = []
    hits = petals._petal_hits

    def counted(w, *args):
        calls.append(len(w))
        return hits(w, *args)

    monkeypatch.setattr(petals, "_petal_hits", counted)
    for stop_at_verdict in (True, False):
        calls.clear()
        got = petals._run_single(C, w0, n_max, region, ESCAPE_RADIUS,
                                 stop_at_verdict)
        ws = got[4]
        hit = _region_walk(ws, region)
        assert got[:4] == (PETAL, hit[1], hit[0], 0) == (PETAL, 0, 346, 0)
        assert len(ws) == (347 if stop_at_verdict else n_max + 1)
        assert calls == [64, 128, 256]


@pytest.mark.parametrize("which,w0", [
    ("siegel", REANCHOR_UNDECIDED_W0), ("siegel", STALE_UNDECIDED_W0),
    ("slow_rotation", REANCHOR_BASIN_W0), ("slow_rotation", STALE_BASIN_W0)])
def test_single_path_steps_the_cycle_automaton_only_on_events(
        golden, monkeypatch, which, w0):
    # the cycle rule is called on the steps that change the automaton's
    # state (an anchor, a recurrence, a stale drop), never on the steps
    # between them
    F = _differential_corpus(golden)[which][0]
    orb = sd.iterate_orbit(F, 0, w0, 3000, stop_at_verdict=False)
    calls = []
    step = petals._State._cycle_step

    def counted(self, n, *args):
        calls.append(n)
        return step(self, n, *args)

    monkeypatch.setattr(petals._State, "_cycle_step", counted)
    got = petals._first_verdict(orb.ws, None, ESCAPE_RADIUS, 0,
                                petals._State(orb.ws[:1]))
    confirmed, seen = _cycle_walk(orb.ws)
    want = None if confirmed is None else (confirmed[0], BASIN, -1,
                                           confirmed[1])
    assert got == want
    assert len(calls) == seen["anchor"] + seen["recur"] + seen["stale"]
    assert calls == sorted(set(calls))
    # stopping at the verdict, the blocks carry the automaton over: no
    # event is stepped twice
    calls.clear()
    stop = sd.iterate_orbit(F, 0, w0, 3000)
    seen = _cycle_walk(orb.ws[:stop.n_stop + 1])[1]
    assert len(calls) == seen["anchor"] + seen["recur"] + seen["stale"]
    assert calls == sorted(set(calls))


@pytest.mark.parametrize("which,w0,n_max,transition,confirmed", [
    ("slow_rotation", REANCHOR_BASIN_W0, 3000, "reanchor", (1870, 1)),
    ("slow_rotation", STALE_BASIN_W0, 3000, "stale", (342, 55)),
    ("siegel", REANCHOR_UNDECIDED_W0, 1000, "reanchor", None),
    ("siegel", STALE_UNDECIDED_W0, 1000, "stale", None),
])
def test_pinned_starts_take_rare_cycle_transitions(golden, which, w0, n_max,
                                                   transition, confirmed):
    F = _differential_corpus(golden)[which][0]
    orb = sd.iterate_orbit(F, 0, w0, n_max)
    got, seen = _cycle_walk(orb.ws)
    assert seen[transition] > 0
    assert got == confirmed
    if confirmed is None:
        assert orb.verdict.kind == UNDECIDED and orb.n_stop == n_max
    else:
        assert orb.verdict.kind == BASIN
        assert (orb.n_stop, orb.cycle_period) == confirmed


def test_single_orbit_path_emits_no_warnings():
    # an escaping full orbit overflows to inf and nan after the verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = sd.iterate_orbit(sd.ConstantVerticalMap([0, 0, 1]), 0, 2.0, 200,
                               stop_at_verdict=False)
    assert orb.verdict.kind == ESCAPE and len(orb.ws) == 201


def test_dlog_is_minus_inf_only_where_the_derivative_vanishes():
    g = sd.ConstantVerticalMap([0, 0, 1])   # g(w) = w^2, g'(w) = 2w
    # from 2 the orbit overflows to inf, then nan: dlog is inf or nan there
    esc = sd.iterate_orbit(g, 0, 2.0, 200, stop_at_verdict=False)
    lost = ~np.isfinite(esc.ws[:-1])
    assert lost.any() and not np.any(esc.dlogs == -np.inf)
    assert np.all(np.isnan(esc.dlogs[lost]) | (esc.dlogs[lost] == np.inf))
    # from 0.5 the orbit underflows to exactly 0, and so does g'
    sup = sd.iterate_orbit(g, 0, 0.5, 100, stop_at_verdict=False)
    zero = sup.ws[:-1] == 0
    assert zero.any() and np.all(sup.dlogs[zero] == -np.inf)
    assert np.all(np.isfinite(sup.dlogs[~zero]))


# -- vertical derivative sums ---------------------------------------------------

def test_derivative_sum_constant_multiplier():
    orb = sd.iterate_orbit(sd.ConstantVerticalMap([0, 0.5]), 0, 0.3, 200,
                           stop_at_verdict=False)
    sums = sd.vertical_derivative_sum(orb)
    for n in (1, 50, 200):
        assert sums[n] == pytest.approx(n * math.log(0.5), rel=1e-12)


def test_derivative_sum_superattracting_diverges_down():
    orb = sd.iterate_orbit(sd.ConstantVerticalMap([0, 0, 1]), 0, 0.5, 100,
                           stop_at_verdict=False)
    sums = sd.vertical_derivative_sum(orbit=orb)
    assert sums[100] == -math.inf or sums[100] < -1e4


def test_derivative_sum_slope_matches_multiplier():
    orb = sd.iterate_orbit(sd.ConstantVerticalMap([0.1, 0, 1]), 0, 0.4, 10000,
                           stop_at_verdict=False)
    assert orb.verdict.kind == BASIN
    sums = sd.vertical_derivative_sum(orb)
    wstar = (1 - math.sqrt(0.6)) / 2
    slope = (sums[10000] - sums[5000]) / 5000
    assert slope == pytest.approx(math.log(2 * wstar), abs=1e-3)


# -- sampling checks -------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_forward_invariance_defaults(k):
    rep = sd.forward_invariance_check(sd.ParabolicLocal(k=k), z_band=0.05,
                                      samples=10000, seed=42)
    assert rep.violations == 0 and rep.ok
    assert rep.worst_margin > 0


def test_forward_invariance_negative_control():
    bad = sd.ParabolicLocal(k=1, rho=1.5, eta=0.0)
    rep = sd.forward_invariance_check(bad, z_band=0.05, samples=2000, seed=42)
    assert rep.violations > 0
    assert rep.worst_margin < 0


def test_forward_invariance_refuses_an_unresolved_step():
    # rho = 0.1, k = 20: w^{k+1} lies below half an ulp of every sample w, so
    # each image w - w^{k+1} rounds to its start and no petal is tested
    local = sd.ParabolicLocal(k=20)
    w = np.array(petals._sample_attracting_petal(petals._seeded(1), 500, 20,
                                                 local.rho, local.eta))
    assert np.array_equal(w - w ** 21, w)
    with pytest.raises(ValueError, match="unresolved"):
        sd.forward_invariance_check(local, z_band=0.1, samples=500, seed=1)


def test_forward_invariance_deterministic():
    a = sd.forward_invariance_check(sd.ParabolicLocal(k=1), 0.05, 500, seed=9)
    b = sd.forward_invariance_check(sd.ParabolicLocal(k=1), 0.05, 500, seed=9)
    assert (a.violations, a.worst_margin) == (b.violations, b.worst_margin)


@pytest.mark.parametrize("k", [1, 2])
def test_repelling_expansion_defaults(k):
    rep = sd.repelling_expansion_check(sd.ParabolicLocal(k=k),
                                       samples=10000, seed=42)
    assert rep.violations == 0
    assert rep.worst_margin > 1.0


@pytest.mark.parametrize("k", [1, 2, 10, 20, 30, 50])
def test_repelling_expansion_at_high_order_matches_mpmath(k):
    # at these orders (k+1) zeta^k lies near or below an ulp of 1, so |g'|
    # can round to 1 in doubles; mpmath at 1000 digits resolves
    # |g'|^2 - 1 = |1 - (k+1) zeta^k|^2 - 1 on the same samples
    mpmath = pytest.importorskip("mpmath")
    local = sd.ParabolicLocal(k=k)
    rep = sd.repelling_expansion_check(local, samples=100, seed=1)
    zeta = (np.array(petals._sample_attracting_petal(petals._seeded(1), 100, k,
                                                     local.rho, 0.0))
            * cmath.exp(1j * math.pi / k))
    with mpmath.workdps(1000):
        expanding = [abs(1 - (k + 1) * mpmath.mpc(z) ** k) ** 2 - 1 > 0
                     for z in zeta.tolist()]
    assert all(expanding)
    assert rep.violations == 0


def test_repelling_direction_formulas():
    # zeta on the repelling ray: |g'| = |1 + 0.2| = 1.2; attracting ray < 1
    assert abs(1 - 2 * (-0.1)) == pytest.approx(1.2)
    assert abs(1 - 2 * 0.1) == pytest.approx(0.8)
    rep = sd.repelling_expansion_check(sd.ParabolicLocal(k=1, rho=0.1),
                                       samples=100, seed=1)
    assert rep.worst_margin > 1.0


def test_sampler_only_emits_petal_members():
    from skewdyn.petals import _sample_attracting_petal
    for k, eta, n in ((1, 0.25, 500), (3, 0.0, 500), (2, 0.25, 1), (2, 0.0, 3000)):
        w = np.array(_sample_attracting_petal(random.Random(1), n, k, 0.1, eta))
        assert w.shape == (n,)
        assert all(sd.in_attracting_petal(x, k, 0.1, eta) is not None for x in w)
        again = np.array(_sample_attracting_petal(random.Random(1), n, k, 0.1, eta))
        assert np.array_equal(w, again)


def test_sampler_fills_every_direction_evenly():
    from skewdyn.petals import _sample_attracting_petal
    w = _sample_attracting_petal(random.Random(7), 30000, 3, 0.1, 0.25)
    counts = np.bincount([sd.in_attracting_petal(x, 3, 0.1, 0.25) for x in w],
                         minlength=3)
    assert counts.sum() == 30000
    assert np.all(np.abs(counts / 30000 - 1 / 3) <= 0.02)


def test_uniform_draws_lie_on_the_53_bit_grid():
    u = np.array(petals._uniform(random.Random(11), 5000))
    assert u.dtype == np.float64 and u.shape == (5000,)
    assert ((u >= 0.0) & (u < 1.0)).all()
    scaled = u * 2.0 ** 53
    assert np.array_equal(scaled, np.floor(scaled))
    assert np.array_equal(u, petals._uniform(random.Random(11), 5000))
    assert not np.array_equal(u, petals._uniform(random.Random(12), 5000))
    assert abs(u.mean() - 0.5) < 0.02


# float.hex (real, imag) of samples 1-4 and 2000 of
# _sample_attracting_petal(random.Random(1), 2000, k, 0.1, eta), recorded
# from the array sampler this scalar one replaced
SAMPLE_PINS = {
    (1, 0.25): [("0x1.28c1fc5d90b14p-5", "-0x1.fe5f6e1fdbdfap-6"),
                ("0x1.de4351c24f470p-6", "-0x1.7375f1821dce3p-5"),
                ("0x1.3c83dba37c3b9p-5", "0x1.632886ecc308fp-6"),
                ("0x1.7157353e588adp-4", "0x1.313b1c3f2e2a4p-5"),
                ("0x1.8a79806d7fe3ep-5", "0x1.c40c1ce8c7b15p-6")],
    (1, 0.0): [("0x1.28c1fc5d90b14p-5", "-0x1.fe5f6e1fdbdfap-6"),
               ("0x1.de4351c24f470p-6", "-0x1.7375f1821dce3p-5"),
               ("0x1.3c83dba37c3b9p-5", "0x1.632886ecc308fp-6"),
               ("0x1.d7cfa63f9933cp-6", "-0x1.1eebe01b115fbp-5"),
               ("0x1.29d468cc8c975p-7", "-0x1.49ed0e2f6e89bp-6")],
    (2, 0.25): [("-0x1.6ef8248f99ad0p-5", "0x1.102ae0970ca57p-6"),
                ("-0x1.83d21684bba37p-5", "0x1.a724162e66ac9p-6"),
                ("0x1.5f21ebcab4090p-5", "0x1.6f1695d4e95acp-7"),
                ("-0x1.87fc0187c668cp-4", "-0x1.372f2af0a8dd3p-6"),
                ("-0x1.7ddc877fbe823p-5", "-0x1.99571bbd9aae4p-11")],
    (2, 0.0): [("-0x1.6ef8248f99ad0p-5", "0x1.102ae0970ca57p-6"),
               ("-0x1.83d21684bba37p-5", "0x1.a724162e66ac9p-6"),
               ("0x1.5f21ebcab4090p-5", "0x1.6f1695d4e95acp-7"),
               ("-0x1.4fdbe62703954p-5", "0x1.3d53a4cebe30cp-6"),
               ("0x1.5c87e807a5fdcp-4", "-0x1.759646862e279p-6")],
    (3, 0.25): [("-0x1.baf55d86ac430p-7", "0x1.7765523dde306p-5"),
                ("-0x1.4dcc3e2d45a22p-5", "-0x1.21638fcb9a1eep-5"),
                ("0x1.65ab5166d58a0p-5", "0x1.ec6e5db7d542fp-8"),
                ("-0x1.3212ffe315de6p-5", "-0x1.712a882e8b1dfp-4"),
                ("-0x1.e1971309b0d92p-5", "-0x1.059cce3670169p-4")],
    (3, 0.0): [("-0x1.baf55d86ac430p-7", "0x1.7765523dde306p-5"),
               ("-0x1.4dcc3e2d45a22p-5", "-0x1.21638fcb9a1eep-5"),
               ("0x1.65ab5166d58a0p-5", "0x1.ec6e5db7d542fp-8"),
               ("-0x1.0f081318c288dp-5", "-0x1.fc013b638af21p-6"),
               ("-0x1.136d32c39b6d2p-5", "-0x1.99c4d69cf3e83p-5")],
}


@pytest.mark.parametrize("k, eta", list(SAMPLE_PINS))
def test_sample_stream_is_pinned(k, eta):
    w = petals._sample_attracting_petal(random.Random(1), 2000, k, 0.1, eta)
    got = [(x.real.hex(), x.imag.hex()) for x in [*w[:4], w[1999]]]
    assert len(w) == 2000 and got == SAMPLE_PINS[k, eta]


def _plain_candidates(rng, k, rho):
    """The sampler's candidate stream, drawn as it draws it, unfiltered."""
    while True:
        draws = [petals._uniform(rng, 1024) for _ in range(3)]
        for uj, us, ua in zip(*draws):
            ang = 2.0 * math.pi * int(uj * k) / k + (math.pi / k) * (2.0 * ua - 1.0)
            yield rho * 1.3 * math.sqrt(us) * cmath.exp(1j * ang)


@pytest.mark.parametrize("k, rho, eta", [(1, 0.1, 0.25), (2, 0.1, 0.0),
                                         (3, 0.3, 0.99), (7, 1.0, 0.5),
                                         (50, 0.9, 0.25)])
def test_sampler_is_a_plain_filter_of_its_candidates(k, rho, eta):
    # the sampler rejects large radii before forming a point; a filter of
    # every candidate through in_attracting_petal must keep the same points
    n = 3000
    kept = (w for w in _plain_candidates(random.Random(17), k, rho)
            if w != 0 and sd.in_attracting_petal(w, k, rho, eta) is not None)
    plain = [next(kept) for _ in range(n)]
    assert petals._sample_attracting_petal(random.Random(17), n, k, rho, eta) == plain


def test_forward_invariance_counts_unresolved_images():
    # rho = 0.1, seed 1: at k = 10, 15 of 500 images round to their start
    # (w^{11} below half an ulp of w); at k = 1 none does
    rep = sd.forward_invariance_check(sd.ParabolicLocal(k=10), z_band=0.1,
                                      samples=500, seed=1)
    assert rep.unresolved == 15 and rep.violations == 0
    rep = sd.forward_invariance_check(sd.ParabolicLocal(k=1), z_band=0.1,
                                      samples=500, seed=1)
    assert rep.unresolved == 0


@pytest.mark.parametrize("k, b", [(1, 0j), (2, 0j), (1, 0.3 - 0.2j), (2, 0.3 - 0.2j)])
def test_forward_invariance_matches_mpmath(k, b):
    # each image of the same samples and its half-plane margin at 50 digits;
    # inside means the sector test and a positive margin, a form apart from
    # the trigonometric one the check uses.  The map has no z-dependent
    # tail, so the z draws move no image.
    mpmath = pytest.importorskip("mpmath")
    local = sd.ParabolicLocal(k=k, b=b)
    rep = sd.forward_invariance_check(local, z_band=0.1, samples=2000, seed=7)
    ws = petals._sample_attracting_petal(petals._seeded(7), 2000, k,
                                         local.rho, local.eta)
    violations, worst = 0, mpmath.inf
    with mpmath.workdps(50):
        r_cut = 1 / (k * mpmath.mpf(local.rho) ** k)
        for w in map(mpmath.mpc, ws):
            w1 = w - w ** (k + 1) + b * w ** (2 * k + 1)
            u = 1 / (k * w1 ** k)
            margin = u.real - (r_cut - local.eta * abs(u.imag))
            ang = mpmath.arg(w1)
            j = int(mpmath.nint(ang * k / (2 * mpmath.pi))) % k
            delta = ang - 2 * mpmath.pi * j / k
            delta = (delta + mpmath.pi) % (2 * mpmath.pi) - mpmath.pi
            if not (abs(delta) < mpmath.pi / k and margin > 0):
                violations += 1
                margin = -abs(margin)
            worst = min(worst, margin)
    assert rep.violations == violations == 0
    assert rep.unresolved == 0
    assert rep.worst_margin == pytest.approx(float(worst), rel=1e-12)


def test_local_model_from_reduced_normal_form(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1, 1], [0, 1]], 16, 8)
    nf, log = sd.normalize(F, 2)
    red = sd.reduce_parabolic_tail(nf, changelog=log)
    assert red.jet[0] == pytest.approx(-1, abs=1e-8)
    loc = sd.ParabolicLocal(k=red.k, b=red.b, tail=tuple(red.tail),
                            rho=0.08, eta=0.2, rot=red.germ.rot)
    assert loc.k == 1 and loc.rot is not None and len(loc.tail) == 5
    orb = sd.iterate_orbit(loc, 0.02, 0.05, 8000, stop_at_verdict=False)
    assert orb.verdict.kind == PETAL
    assert 0.95 <= 8000 * abs(orb.ws[8000]) <= 1.05
    fwd = sd.forward_invariance_check(loc, z_band=0.02, samples=3000, seed=3)
    rep = sd.repelling_expansion_check(loc, samples=3000, seed=3)
    assert fwd.violations == 0 and rep.violations == 0
    assert rep.worst_margin > 1.0


def test_petal_membership_stable_under_model_map():
    # invariance restated: membership index is preserved by one application
    loc = sd.ParabolicLocal(k=2)
    from skewdyn.petals import _sample_attracting_petal
    w = np.array(_sample_attracting_petal(random.Random(5), 10000, 2, loc.rho,
                                          loc.eta))
    j = [sd.in_attracting_petal(x, 2, loc.rho, loc.eta) for x in w]
    assert None not in j
    assert [sd.in_attracting_petal(x, 2, loc.rho, loc.eta) for x in w - w ** 3] == j


# -- the petal region's membership test -------------------------------------------

def _angle_sector(w, k, base):
    """Distance delta of arg w to the nearest direction base + 2 pi j / k,
    and that j, from the angle of w."""
    ang = np.angle(w)
    jdir = np.rint((ang - base) * k / (2 * np.pi)).astype(np.int64) % k
    delta = np.abs((ang - (base + 2 * np.pi * jdir / k) + np.pi)
                   % (2 * np.pi) - np.pi)
    return delta, jdir


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sector_test_matches_angle_formula(k):
    # the trig-free region test against its angle form: with delta the
    # angle to the nearest direction, |Im u| < Re u - R reads cos(k delta)
    # - |sin(k delta)| > (|w|/rho)^k
    rng = np.random.default_rng([41, k])
    bases = [0.0, np.pi, np.pi / k, -2.5] + list(rng.uniform(-np.pi, np.pi, 4))
    for base in bases:
        for rho in (0.3, *rng.uniform(1e-3, 0.75, 3)):
            region = _scripted_region(k, base, rho)
            w = (rho * 10.0 ** rng.uniform(-4, 0.2, 20000)
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, 20000)))
            delta, jdir = _angle_sector(w, k, base)
            gap = (np.cos(k * delta) - np.abs(np.sin(k * delta))
                   - (np.abs(w) / rho) ** k)
            clear = np.abs(gap) > 1e-9
            got = np.zeros(len(w), dtype=bool)
            got[petals._petal_hits(w, np.abs(w), region)] = True
            assert np.array_equal(got[clear], (gap > 0)[clear])
            assert clear.mean() > 0.999 and got.any() and not got.all()
            assert np.array_equal(petals._direction_index(w, k, base), jdir)


@pytest.mark.parametrize("k", [1, 16])
def test_region_test_at_extreme_moduli(k):
    # v = (w e^{-i base}/|w|)^k stays on the unit circle, so tiny moduli are
    # tested by angle alone and nothing overflows; 0, inf and nan are in no
    # region, and no warning is raised
    region = _scripted_region(k, 0.0, 0.5)
    w = np.array([1e-300, 1e-300j, 1e-300 * cmath.exp(0.5j / k), 0.0,
                  np.inf, complex(np.nan, 1.0), 1e300, -1e-300])
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        got = petals._petal_hits(w, np.abs(w), region).tolist()
    # 1e-300 i and -1e-300 point along repelling directions for k = 1 and
    # along attracting ones for k = 16
    assert got == ([0, 2] if k == 1 else [0, 1, 2, 7])
    # on the axis, a point of the exact region within the rounding margin
    # of its edge is not certified; one 2^-40 inside it is
    w = 0.5 * np.array([1 - 2.0 ** -52, 1 - 2.0 ** -40])
    assert petals._petal_hits(w, np.abs(w), region).tolist() == [1]


# -- grid engine: degree trimming and writers -----------------------------------------

@pytest.mark.parametrize("fiber,z0", [([-1, 0, 1, 0, 0], 0.0),
                                      ([0, 1, 1, 0], 0.0),
                                      (None, 0.05)])
def test_engine_trims_zero_top_degrees_exactly(golden, fiber, z0):
    if fiber is None:  # moving fibers, D_w = 6 above a degree-3 polynomial
        F = random_parabolic_germ(golden, 6, 6, seed=31, scale=0.2)
        span = 0.5
    else:
        F = sd.ConstantVerticalMap(fiber, golden)
        span = 1.6
    n_max = 400
    C = petals._coeff_matrix(F, z0, n_max)
    region = petals._petal_region(F, C)
    assert not C[:, -1].any()
    padded = np.hstack([C, np.zeros((n_max + 1, 3), dtype=complex)])
    axis = np.linspace(-span, span, 24)
    w0 = (axis[np.newaxis, :] + 1j * axis[:, np.newaxis]).ravel()
    a = petals._run_engine(C, w0, n_max, region, ESCAPE_RADIUS)
    b = petals._run_engine(padded, w0, n_max, region, ESCAPE_RADIUS)
    for x, y in zip(a, b):
        assert _bits(x) == _bits(y)
    assert len(set(a.kind.tolist())) >= 2
    # against the untrimmed single-orbit stepping
    for i in range(0, len(w0), 23):
        got = petals._run_single(padded, w0[i], n_max, region,
                                 ESCAPE_RADIUS, True)
        assert got[:4] == (a.kind[i], a.index[i], a.n_stop[i], a.period[i])
        if a.kind[i] != UNDECIDED:
            assert _bits(got[4][a.n_stop[i]]) == _bits(a.w_verdict[i])


def test_engine_compacted_to_one_survivor_steps_as_before():
    # the 299 starts at 50 escape by step 2, so at step 7 the engine
    # compacts to the one undecided start; it must step as it does beside a
    # copy of itself (no compaction) and as the single-orbit path steps it
    F = sd.ConstantVerticalMap([-0.8 + 0.156j, 0, 1])
    w0, n_max = -1.079283 + 0.241198j, 3000
    C = petals._coeff_matrix(F, 0, n_max)
    region = petals._petal_region(F, C)
    crowd = petals._run_engine(C, np.array([w0] + [50.0] * 299), n_max,
                               region, ESCAPE_RADIUS)
    assert np.all(crowd.n_stop[1:] < 7)
    assert crowd.kind[0] == ESCAPE and crowd.n_stop[0] > 1000
    pair = petals._run_engine(C, np.array([w0, w0]), n_max, region,
                              ESCAPE_RADIUS)
    assert [_bits(f[:1]) for f in crowd] == [_bits(f[:1]) for f in pair]
    got = petals._run_single(C, w0, n_max, region, ESCAPE_RADIUS, True)
    assert got[:4] == (crowd.kind[0], crowd.index[0], crowd.n_stop[0],
                       crowd.period[0])


def _ppm_oracle(g) -> str:
    h, wdt = g.code.shape
    rows = [f"P3\n{wdt} {h}\n255"]
    for i in range(h):
        px = []
        for j in range(wdt):
            c = int(g.code[i, j])
            if c == CODE_ESCAPE:
                rgb = petals.ESCAPE_COLOR
            elif c >= CODE_BASIN_BASE:
                rgb = petals.BASIN_COLORS[(c - CODE_BASIN_BASE) % 8]
            elif c >= petals.CODE_PETAL_BASE:
                rgb = petals.PETAL_GREENS[(c - petals.CODE_PETAL_BASE) % 4]
            else:
                rgb = petals.UNDECIDED_COLOR
            px.append(f"{rgb[0]} {rgb[1]} {rgb[2]}")
        rows.append(" ".join(px))
    return "\n".join(rows) + "\n"


def _writer_grids():
    codes = ([petals.CODE_UNDECIDED, CODE_ESCAPE]
             + [petals.CODE_PETAL_BASE + j for j in range(6)]
             + [CODE_BASIN_BASE + c for c in range(10)] + [CODE_ESCAPE, 0])
    code = np.array(codes, dtype=np.int32).reshape(4, 5)
    rng = np.random.default_rng(47)
    yield sd.FatouGrid(re=np.array([-1.5, -0.1, 0.0, 1e-300, 0.7]),
                       im=np.array([-1.0, -1 / 3, 2.5e-8, 1.0]), code=code,
                       n_stop=rng.integers(0, 5000, code.shape))
    # signed zeros, the extreme step counts, (code, n_stop) pairs repeated
    # within and across rows
    code = np.array([[1, 1, 200, 0], [1, 200, 200, 103], [0, 1, 200, 1]],
                    dtype=np.int32)
    n_stop = np.array([[0, 0, 2 ** 31 - 1, 7], [0, 2 ** 31 - 1, 7, 7],
                       [7, 0, 2 ** 31 - 1, 0]], dtype=np.int64)
    yield sd.FatouGrid(re=np.array([-0.0, 0.0, 0.25, -0.0]),
                       im=np.array([-0.0, 0.5, 0.0]), code=code,
                       n_stop=n_stop)
    yield sd.FatouGrid(re=np.array([-0.0]), im=np.array([-0.0]),
                       code=np.array([[CODE_BASIN_BASE + 3]], dtype=np.int32),
                       n_stop=np.array([[2 ** 31 - 1]]))


def test_grid_writers_match_per_pixel_oracle(tmp_path):
    for g in _writer_grids():
        assert g.to_ppm_text() == _ppm_oracle(g)
        g.write_csv(tmp_path / "g.csv")
        want = ["re_w,im_w,verdict_code,n_stop"]
        for i in range(len(g.im)):
            for j in range(len(g.re)):
                want.append(f"{float(g.re[j])!r},{float(g.im[i])!r},"
                            f"{int(g.code[i, j])},{int(g.n_stop[i, j])}")
        assert (tmp_path / "g.csv").read_text() == "\n".join(want) + "\n"


# -- grids ------------------------------------------------------------------------

def test_slice_unit_disk_dichotomy():
    cm = sd.ConstantVerticalMap([0, 0, 1])
    g = sd.fatou_slice(cm, 0, (-1.2, 1.2, -1.2, 1.2, 41), n_max=3000)
    W = g.re[np.newaxis, :] + 1j * g.im[:, np.newaxis]
    inner = np.abs(W) < 0.9
    outer = np.abs(W) > 1.1
    assert np.all(g.code[inner] >= CODE_BASIN_BASE)
    assert np.all(g.code[outer] == CODE_ESCAPE)


def test_slice_z_independent_grid(golden):
    F = germ_from_coeffs(golden, [[0], [0], [1]], 4, 2)  # w^2, z-free
    a = sd.fatou_slice(F, 0.0, (-1.1, 1.1, -1.1, 1.1, 31), n_max=1500)
    b = sd.fatou_slice(F, 0.05, (-1.1, 1.1, -1.1, 1.1, 31), n_max=1500)
    assert np.array_equal(a.code, b.code)
    assert np.array_equal(a.n_stop, b.n_stop)


def test_slice_thread_count_invariance(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 6, 3)
    grids = [sd.fatou_slice(F, 1e-3, (-1.5, 0.5, -1, 1, 60), n_max=600,
                            threads=t) for t in (1, 2, 5)]
    for g in grids[1:]:
        assert np.array_equal(grids[0].code, g.code)
        assert np.array_equal(grids[0].n_stop, g.n_stop)
    assert grids[0].to_ppm_text() == grids[2].to_ppm_text()


def test_slice_outputs(tmp_path, golden):
    F = germ_from_coeffs(golden, [[0], [1], [1]], 4, 2)
    g = sd.fatou_slice(F, 0, (-1.5, 0.5, -1, 1, 12), n_max=500)
    ppm = tmp_path / "s.ppm"
    csv = tmp_path / "s.csv"
    g.write_ppm(ppm)
    g.write_csv(csv)
    text = ppm.read_text().splitlines()
    assert text[0] == "P3" and text[1] == "12 12" and text[2] == "255"
    assert len(text) == 3 + 12
    lines = csv.read_text().splitlines()
    assert lines[0] == "re_w,im_w,verdict_code,n_stop"
    assert len(lines) == 1 + 144
    counts = g.verdict_counts()
    assert counts["petal"] > 0 and counts["escape"] > 0


def test_engine_memory_budget_per_point(golden):
    # the benchmark's parabolic slice at 200 x 200; 174 bytes per point is
    # the traced peak (158.2, numpy 2.4) plus 10%, outputs included
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3)
    re, im = np.linspace(-1.5, 0.5, 200), np.linspace(-1, 1, 200)
    w0 = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    C = petals._coeff_matrix(F, 0.0, 200)
    tracemalloc.start()
    try:
        r = petals._run_engine(C, w0, 200, petals._petal_region(F, C),
                               ESCAPE_RADIUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(r.kind == PETAL) > 10000
    assert peak <= 174 * len(w0), peak / len(w0)


def _per_pixel_slice(F, z0, grid, n_max):
    """(code, cycles) of fatou_slice keyed pixel by pixel in plain Python:
    each basin pixel's cycle points are stepped on Python complexes by
    Horner over its own rows, each coordinate keyed as round(x * 1e4) (half
    to even), and ids ranked by sorted key.  Keys split by a rounding tie
    are joined: where the first pixel with a key has a raw coordinate within
    1e-4 key units of a tie, the key with that one coordinate rounded the
    other way names the same cycle, if some pixel has it; every group of
    joined keys takes its smallest."""
    re0, re1, im0, im1, res = grid
    re, im = np.linspace(re0, re1, res), np.linspace(im0, im1, res)
    C = petals._coeff_matrix(F, z0, n_max)
    r = petals._run_engine(C, (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel(),
                           n_max, petals._petal_region(F, C), ESCAPE_RADIUS)
    code = np.zeros(res * res, dtype=np.int32)
    code[r.kind == ESCAPE] = CODE_ESCAPE
    pm = r.kind == PETAL
    code[pm] = petals.CODE_PETAL_BASE + r.index[pm]
    rows = C.tolist()

    def cycle(w, start, p):
        pts = [w]
        for i in range(p - 1):
            row = rows[min(start + i, len(rows) - 1)]
            acc = row[-1]
            for c in row[-2::-1]:
                acc = acc * pts[-1] + c
            pts.append(acc)
        return pts

    def keys(pts):
        """The key of pts, then one key per coordinate within 1e-4 key
        units of a tie, with that coordinate rounded the other way."""
        ts = [t for x in pts for t in (x.real * 1e4, x.imag * 1e4)]
        base = [round(t) for t in ts]
        variants = [base]
        for c, t in enumerate(ts):
            if abs(t - math.floor(t) - 0.5) <= 1e-4:
                variants.append(base[:c] + [2 * math.floor(t) + 1 - base[c]]
                                + base[c + 1:])
        return [tuple(sorted(zip([k / 1e4 for k in v[0::2]],
                                 [k / 1e4 for k in v[1::2]])))
                for v in variants]

    cycles = {i: cycle(complex(r.w_verdict[i]), int(r.n_stop[i]), int(r.period[i]))
              for i in np.flatnonzero(r.kind == BASIN).tolist()}
    around = {i: keys(pts) for i, pts in cycles.items()}
    key = {i: ks[0] for i, ks in around.items()}
    first = {}
    for i, k in key.items():  # pixels in ascending order
        first.setdefault(k, i)
    joined = {k: {k} for k in first}
    for k, i in first.items():
        for o in around[i][1:]:
            if o in joined and joined[o] is not joined[k]:
                group = joined[k] | joined[o]
                for m in group:
                    joined[m] = group
    name = {k: min(group) for k, group in joined.items()}
    ordered = sorted(set(name.values()))
    for i, k in key.items():
        code[i] = CODE_BASIN_BASE + ordered.index(name[k])
    return code.reshape(res, res), ordered


def _bench_shaped_slices(golden, seed):
    """The three benchmark slice germs at reduced resolution, each grid
    moved by a seeded sub-pixel offset, plus a period-2 cycle on a moving
    fiber: w^2 - 1 + 0.5 z w (w + 1) keeps {0, -1} on every fiber while
    the rows C[n_stop + i] differ."""
    rng = np.random.default_rng(seed)
    dx, dy = rng.uniform(-0.01, 0.01, 2)
    yield (germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3),
           0.0, (-1.5 + dx, 0.5 + dx, -1 + dy, 1 + dy, 48), 1500)
    yield (sd.ConstantVerticalMap([-1, 0, 1]), 0.0,
           (-1.7 + dx, 1.7 + dx, -1 + dy, 1 + dy, 48), 1500)
    yield (random_parabolic_germ(golden, 8, 6, seed=seed), 0.05,
           (-0.5, 0.5, -0.5, 0.5, 32), 500)
    yield (germ_from_coeffs(golden, [[-1], [0, 0.5], [1, 0.5]], 4, 2),
           0.05 + 0.02j, (-1.7 + dx, 1.7 + dx, -1 + dy, 1 + dy, 32), 1500)


@pytest.mark.parametrize("seed", [31, 4242, 90210, 6007, 1])
def test_grouped_cycle_keys_match_per_pixel_reference(golden, seed):
    basins = []
    for F, z0, grid, n_max in _bench_shaped_slices(golden, seed):
        g = sd.fatou_slice(F, z0, grid, n_max=n_max)
        code, cycles = _per_pixel_slice(F, z0, grid, n_max)
        assert np.array_equal(g.code, code)
        assert g.cycles == cycles
        basins.append(np.count_nonzero(code >= CODE_BASIN_BASE))
    assert basins[1] > 100 and basins[3] > 100  # the two period-2 basins


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_scaled_cycle_keys_follow_each_points_own_rows(p):
    # rows that differ at every step, starts up to past the schedule's end;
    # the array stepping equals a per-point loop on one-element arrays
    rng = np.random.default_rng(p)
    C = 0.4 * (rng.standard_normal((40, 4))
               + 1j * rng.standard_normal((40, 4)))
    w = 0.5 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
    start = rng.integers(0, 45, 300)
    pts = petals._cycle_points(C, w, start, p)
    assert pts.shape == (300, p)
    # a point alone in its array steps as it does among the others
    assert _bits(petals._cycle_points(C, w[:1], start[:1], p)) == _bits(pts[:1])
    for i in range(300):
        want = [w[i:i + 1]]
        for j in range(p - 1):
            want.append(petals._horner(C[min(start[i] + j, 39)], want[-1]))
        assert np.array_equal(pts[i], np.concatenate(want))


def test_cycle_keys_round_half_to_even_with_positive_zeros():
    # x 10^4 is exactly 2.5, -2.5, 0.5 and 1234.5 for these doubles: rint
    # takes the even neighbor, where round(x, 4) rounds the true decimal
    # (0.12345 is a little above its tie); -0 keys read as 0
    pts = np.array([[0.12345 - 0.5e-9j, 2.5e-4 - 2.5e-4j, -0.5e-4 + 0.5e-4j]])
    keys, order = petals._cycle_keys(pts)
    assert order.tolist() == [[2, 1, 0]]
    assert keys.tolist() == [[0.0, 2.0, 1234.0, 0.0, -2.0, 0.0]]
    assert all(math.copysign(1.0, x) == 1.0 for x in keys.ravel() if x == 0)
    # g(w) = p + (w - p) / 2 attracts every start to p
    p = 0.12345 - 0.5e-9j
    F = sd.ConstantVerticalMap([0.5 * p, 0.5])
    g = sd.fatou_slice(F, 0.0, (p.real - 0.1, p.real + 0.1, -0.1, 0.1, 5),
                       n_max=400)
    assert np.all(g.code == CODE_BASIN_BASE)
    assert g.cycles == [((0.1234, 0.0),)]
    assert math.copysign(1.0, g.cycles[0][0][1]) == 1.0


def test_slice_on_a_rounding_tie_matches_per_pixel_reference():
    # g(w) = p + (w - p) / 2 attracts every start to p, whose real part
    # sits on a 4-decimal tie (between -0.0001 and -0.0) and whose
    # imaginary part rounds to -0.0: every pixel is a basin pixel, keyed as
    # the plain-Python reference keys it, and no key carries a -0
    p = -0.00005 - 0.00004j
    F = sd.ConstantVerticalMap([0.5 * p, 0.5])
    grid = (p.real - 0.1, p.real + 0.1, -0.1, 0.1, 5)
    code, cycles = _per_pixel_slice(F, 0.0, grid, 400)
    g = sd.fatou_slice(F, 0.0, grid, n_max=400)
    assert np.array_equal(g.code, code) and g.cycles == cycles
    assert np.all(code >= CODE_BASIN_BASE)
    assert all(math.copysign(1.0, x) == 1.0
               for key in g.cycles for pt in key for x in pt if x == 0)


def test_ties_in_both_coordinates_match_per_pixel_reference():
    # the identity map fixes every pixel.  The grid's first column and
    # first row sit on ties, so the first pixel has two coordinates at a
    # tie; only rounding its real part the other way names a key that some
    # pixel has (all rows key as -0.1234), and the grid is one cell.
    # Rounding both coordinates at once would find no such key
    h = 6.7e-6
    grid = (0.12345, 0.12345 + 11 * h, -0.12345, -0.12345 + 11 * h, 12)
    F = sd.ConstantVerticalMap([0, 1])
    code, cycles = _per_pixel_slice(F, 0.0, grid, 400)
    g = sd.fatou_slice(F, 0.0, grid, n_max=400)
    assert np.array_equal(g.code, code) and g.cycles == cycles
    assert np.all(code == CODE_BASIN_BASE)
    assert cycles == [((0.1234, -0.1234),)]


@pytest.mark.parametrize("m", [0.5, 0.99])
def test_fixed_point_on_a_rounding_tie_is_one_cycle(m):
    # g(w) = p + m (w - p); p's real part sits between the keys -1 and -0
    # (x 10^4 = -0.5): pixels that settle from either side key it
    # differently, and the two keys are merged into the smaller, also under
    # the weak contraction m = 0.99
    p = -0.00005 - 0.00004j
    F = sd.ConstantVerticalMap([(1 - m) * p, m])
    g = sd.fatou_slice(F, 0.0, (p.real - 0.1, p.real + 0.1, -0.1, 0.1, 5),
                       n_max=5000)
    assert np.unique(g.code).tolist() == [CODE_BASIN_BASE]
    assert g.cycles == [((-0.0001, 0.0),)]


@pytest.mark.parametrize("x0, cells", [(0.01, 21), (0.12345, 22)])
def test_tie_merge_keeps_the_cells_of_a_dense_grid(x0, cells):
    # the identity map fixes every pixel of a 300 x 300 grid with spacing
    # 6.7e-6 (1/15 of a key unit), so every key is its own cycle.  At
    # x0 = 0.01 no key's first pixel lies near a tie: all 21^2 cells stay.
    # At 0.12345 the first row and column sit on a tie and each merges with
    # its neighbor only: 22^2 keys become 21^2 cells, not a chain of them
    h = 6.7e-6
    g = sd.fatou_slice(sd.ConstantVerticalMap([0, 1]), 0.0,
                       (x0, x0 + 299 * h, x0, x0 + 299 * h, 300), n_max=200)
    assert len(set(np.rint(g.re * 1e4).tolist())) == cells
    assert g.verdict_counts()["basin"] == 300 * 300
    assert len(g.cycles) == 21 ** 2
    assert np.array_equal(np.unique(g.code), CODE_BASIN_BASE + np.arange(441))


def test_grid_resolution_cap():
    with pytest.raises(ValueError):
        sd.fatou_slice(sd.ConstantVerticalMap([0, 0, 1]), 0,
                       (-1, 1, -1, 1, 5000), n_max=10)


# -- hypothesis checker ------------------------------------------------------------

def test_critical_orbit_superattracting():
    rep = sd.critical_orbit_check([0, 0, 1], n_max=2000)
    assert len(rep.reports) == 1
    assert rep.reports[0].point == pytest.approx(0)
    assert rep.reports[0].verdict.kind == BASIN
    assert rep.plausible


def test_critical_orbit_parabolic():
    rep = sd.critical_orbit_check([0, 1, 1], n_max=2000)
    assert rep.reports[0].point == pytest.approx(-0.5)
    assert rep.reports[0].verdict.kind == PETAL
    assert rep.reports[0].verdict.index == 0
    assert rep.plausible


def test_critical_orbit_basilica():
    rep = sd.critical_orbit_check([-1, 0, 1], n_max=5000)
    assert rep.reports[0].verdict.kind == BASIN
    assert rep.reports[0].cycle_period == 2
    assert rep.plausible


def test_critical_orbit_escape_not_plausible():
    # w^2 + 3: the critical orbit escapes, so the hypotheses fail
    rep = sd.critical_orbit_check([3, 0, 1], n_max=2000)
    assert rep.reports[0].verdict.kind == sd.ESCAPE
    assert not rep.plausible


def test_critical_orbit_from_germ(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 6, 3)
    rep = sd.critical_orbit_check(F, n_max=2000)
    assert rep.plausible
    assert any(r.verdict.kind == PETAL for r in rep.reports)


def test_critical_orbit_degree_validation():
    with pytest.raises(ValueError):
        sd.critical_orbit_check([0, 1])


def test_z_schedule_reads_the_unit_column_lam_bits(golden):
    zs = petals._z_schedule(golden, 0.05, 10_000)
    want = np.array(sd.unit_column(golden, 10_000).lam) * 0.05
    assert zs.tobytes() == want.tobytes()


# -- fixed and moving fiber schedules -----------------------------------------

def _fixed_fiber_cases(golden):
    """name -> (map, z0) of fibers that do not move."""
    return {
        "z_terms_at_0": (germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]],
                                          8, 3), 0j),
        "z_free_at_z0": (sd.ConstantVerticalMap([0, 1, 0, 3, -2j], golden),
                         0.05),
        "parabolic_k2": (sd.ParabolicLocal(k=2, b=0.3 - 0.2j), 0),
        "basin": (sd.ConstantVerticalMap([-1, 0, 1]), 0),
        "constant": (sd.ConstantVerticalMap([0.25]), 0),
    }


@pytest.mark.parametrize("name", ["z_terms_at_0", "z_free_at_z0",
                                  "parabolic_k2", "basin", "constant"])
def test_fixed_fiber_schedule_is_one_read_only_row(golden, name):
    F, z0 = _fixed_fiber_cases(golden)[name]
    C = petals._coeff_matrix(F, z0, 10 ** 6)
    assert C.shape[0] == 10 ** 6 + 1 and C.shape[1] >= 2
    assert C.strides[0] == 0 and not C.flags.writeable
    lo, hi = np.lib.array_utils.byte_bounds(C)
    assert hi - lo == C.shape[1] * C.itemsize  # one row of data
    with pytest.raises(ValueError):
        C[7, 0] = 1.0
    assert petals._distinct_rows(C).shape == (1, C.shape[1])
    # the one row is the stored schedule's every row
    full = petals._coeff_matrix(F, z0, 3)
    assert _bits(np.array(full)) == _bits(np.tile(petals._distinct_rows(C), (4, 1)))


def test_moving_fiber_schedule_has_every_row(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3)
    C = petals._coeff_matrix(F, 0.05, 1000)
    assert C.shape == (1001, 4) and C.flags.writeable and C.flags.owndata
    assert C.strides[0] == 4 * C.itemsize and petals._distinct_rows(C) is C
    assert len(set(C[:, 3].tolist())) == 1001


@pytest.mark.parametrize("name", ["z_terms_at_0", "z_free_at_z0",
                                  "parabolic_k2", "basin", "constant"])
def test_fixed_fiber_rules_read_both_representations_alike(golden, name):
    # the region and the engine give the same results on the one-row view
    # and on the schedule with every row stored
    F, z0 = _fixed_fiber_cases(golden)[name]
    n_max = 300
    view = petals._coeff_matrix(F, z0, n_max)
    full = np.array(view)
    assert full.strides[0] != 0
    region = petals._petal_region(F, view)
    assert region == petals._petal_region(F, full)
    assert (region is None) == (name in ("basin", "constant"))
    axis = np.linspace(-1.2, 1.2, 16)
    w0 = (axis[np.newaxis, :] + 1j * axis[:, np.newaxis]).ravel()
    a = petals._run_engine(view, w0, n_max, region, ESCAPE_RADIUS)
    b = petals._run_engine(full, w0, n_max, region, ESCAPE_RADIUS)
    assert [_bits(x) for x in a] == [_bits(x) for x in b]
    for i in (0, 37, 100, 255):
        for stop_at_verdict in (True, False):
            x = petals._run_single(view, w0[i], n_max, region, ESCAPE_RADIUS,
                                   stop_at_verdict)
            y = petals._run_single(full, w0[i], n_max, region, ESCAPE_RADIUS,
                                   stop_at_verdict)
            assert x[:4] == y[:4] and _bits(x[4]) == _bits(y[4])
            assert x[5].tobytes() == y[5].tobytes()


def test_orbit_record_zs_of_a_fixed_base_is_one_value(golden):
    F = sd.ConstantVerticalMap([0, 1, 1])
    orb = sd.iterate_orbit(F, 0, 0.1, 500, stop_at_verdict=False)
    assert orb.zs.shape == (501,) and orb.zs.strides == (0,)
    assert not orb.zs.flags.writeable and not orb.zs.any()


@pytest.mark.parametrize("coeffs,w0,kind", [
    ("siegel", 0.15, UNDECIDED), ([0, 1, -1], 0.1, PETAL),
    ([0, 1, 0, 0, -1], 0.1, PETAL)], ids=["siegel", "w-w^2", "w-w^4"])
def test_single_orbit_memory_per_recorded_step(golden, coeffs, w0, kind):
    # full orbits, recorded past the verdict: a Siegel orbit that stays
    # undecided, so that the catch scan reads it all, and two parabolic
    # orbits that enter their petal region at once; the traced peak is 26
    # to 27 bytes a step (numpy 2.4): ws, dlogs and one chunk's temporaries
    if coeffs == "siegel":
        coeffs = [0, sd.lam_power(golden, 1), 1]
    F = sd.ConstantVerticalMap(coeffs, golden)
    n_max = 50_000
    tracemalloc.start()
    try:
        orb = sd.iterate_orbit(F, 0, w0, n_max, stop_at_verdict=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orb.verdict.kind == kind and len(orb.ws) == n_max + 1
    assert peak <= 32 * n_max, peak / n_max


# -- the certified petal region ----------------------------------------------------

def _region_cases(golden):
    """name -> (map, z0) of the maps whose rows certify a region."""
    tail = (sd.TruncatedSeries([0.2, 0.5j]), sd.TruncatedSeries([-0.1, 0.0, 0.3]))
    return {
        "k1": (sd.ParabolicLocal(k=1), 0),
        "k2": (sd.ParabolicLocal(k=2), 0),
        "k3": (sd.ParabolicLocal(k=3), 0),
        "b_and_z_tail": (sd.ParabolicLocal(k=2, b=0.3 - 0.2j, tail=tail,
                                           rot=golden), 0.08),
        "moving_fiber": _differential_corpus(golden)["moving_fiber"][:2],
        # a tail that dominates |e| near rho
        "strong_tail": (sd.ConstantVerticalMap([0, 1, 1, 3, -2j]), 0),
    }


@pytest.mark.parametrize("name", ["k1", "k2", "k3", "b_and_z_tail",
                                  "moving_fiber", "strong_tail"])
def test_petal_region_is_invariant_at_50_digits(golden, name):
    # points on the wedge's boundary |Im u| = Re u - R and inside it, on
    # every attracting branch, stepped at 50 digits by each of the
    # schedule's rows: every image is inside, and u' = u + 1 + e with |e|
    # at most the derived bound eps < 1/2, so Re u grows by at least 1 - eps
    mpmath = pytest.importorskip("mpmath")
    F, z0 = _region_cases(golden)[name]
    C = petals._coeff_matrix(F, z0, 24)
    region = petals._petal_region(F, C)
    assert region is not None and 0 < region.rho <= petals.PETAL_RADIUS
    assert region.eps <= petals.PETAL_EPS < 0.5
    k = region.k
    with mpmath.workdps(50):
        lead = mpmath.mpc(region.lead)
        r_cut = 1 / (k * abs(lead) * mpmath.mpf(region.rho) ** k)
        rows = [[mpmath.mpc(c) for c in row] for row in C.tolist()]
        checked = 0
        for t in [mpmath.mpf(10) ** e for e in (-6, -2, -1, 0, 1, 2, 4, 6)]:
            for slope in (1, -1, 0.5, 0):
                u = r_cut + t + 1j * slope * t
                root = (-1 / (k * lead * u)) ** (mpmath.mpf(1) / k)
                for j in range(k):
                    w = root * mpmath.expjpi(mpmath.mpf(2 * j) / k)
                    assert abs(w) < region.rho
                    for row in rows:
                        w1 = mpmath.polyval(row[::-1], w)
                        u1 = -1 / (k * lead * w1 ** k)
                        assert abs(u1.imag) < u1.real - r_cut, (t, slope, j)
                        assert abs(u1 - u - 1) <= region.eps, (t, slope, j)
                        assert u1.real - u.real >= 1 - region.eps, (t, slope, j)
                        checked += 1
    assert checked >= 8 * 4 * k * len(rows)


def test_petal_region_needs_parabolic_rows(golden):
    # rows with a_0 != 0 (a moving fiber whose a_0 has z-terms), a_1 != 1
    # or a_2 != 0 below the order certify no region; neither do maps that
    # are not parabolic at z = 0
    cases = [
        (germ_from_coeffs(golden, [[0, 0.05], [1], [1]], 4, 2), 0.05),
        (germ_from_coeffs(golden, [[0], [1, 0.05], [1]], 4, 2), 0.05),
        (germ_from_coeffs(golden, [[0], [1], [0, 0.05], [1]], 4, 3),
         0.05),
        (sd.ConstantVerticalMap([1e-12, 1, 1]), 0),
        (sd.ConstantVerticalMap([0, 0, 1]), 0),
        (random_parabolic_germ(golden, 6, 6, seed=31, scale=0.2), 0.05),
    ]
    for F, z0 in cases:
        assert petals._petal_region(F, petals._coeff_matrix(F, z0, 50)) is None
    # the same fibers at z0 = 0 are certified where the map is parabolic
    for F, _ in cases[:3]:
        assert petals._petal_region(F, petals._coeff_matrix(F, 0, 50))
    # the benchmark's parabolic germ w + w^2 gets rho from eps = r/(1 - r)
    F = sd.ConstantVerticalMap([0, 1, 1])
    region = petals._petal_region(F, petals._coeff_matrix(F, 0, 50))
    assert region.rho == pytest.approx(0.49 / 1.49, rel=1e-12)


def _gate_verdicts(F, z0, starts, n_max, ws):
    """(old, new) verdict tuples of each start: the retired streak rule by
    the plain-Python walks on its trajectory ws[:, i], and the engine."""
    C = petals._coeff_matrix(F, z0, n_max)
    k, lead = petals._parabolic_data(F)
    base = sd.directions_for_jet(lead, k) if k else 0.0
    eng = petals._run_engine(C, np.asarray(starts), n_max,
                             petals._petal_region(F, C), ESCAPE_RADIUS)
    out = []
    for i in range(len(starts)):
        traj = ws[:, i]
        esc = np.flatnonzero(~(np.abs(traj) <= ESCAPE_RADIUS))
        traj = traj[:esc[0] + 1] if len(esc) else traj
        streak = _streak_walk(traj, k, base)[0] if k else None
        old = _reference_verdict(traj, None, petal=streak)
        if len(esc) == 0 or old[2] < esc[0]:
            old = old if old[0] != UNDECIDED else (UNDECIDED, -1, n_max, 0)
        new = (int(eng.kind[i]), int(eng.index[i]), int(eng.n_stop[i]),
               int(eng.period[i]))
        out.append((old, new))
    return out


def _assert_gate(pairs):
    for old, new in pairs:
        if old[0] == PETAL:
            assert new[:2] == old[:2], (old, new)
        elif old[0] in (ESCAPE, BASIN):
            assert new == old, (old, new)
        else:
            assert new[0] in (UNDECIDED, PETAL), (old, new)


@pytest.mark.parametrize("name", ["petal_k1", "petal_k2", "petal_k3",
                                  "parabolic_w_plus_w2", "basin_period1",
                                  "basin_period2", "basin_period3", "siegel",
                                  "slow_rotation", "moving_fiber"])
def test_region_rule_keeps_every_streak_petal_on_the_corpus(golden, name):
    # the retired 50-step streak rule as the gate: every start it labels a
    # petal is certified petal with the same direction, and no escape or
    # basin verdict or step moves
    corpus = _differential_corpus(golden)
    F, z0, radius, pinned, n_big, expect = corpus[name]
    rng = np.random.default_rng([13, list(corpus).index(name)])
    seeded = (radius * np.sqrt(rng.random(8))
              * np.exp(2j * np.pi * rng.random(8)))
    starts = [complex(w) for w in pinned] + seeded.tolist() + [2e6]
    C = petals._coeff_matrix(F, z0, n_big)
    ws = np.stack([petals._run_single(C, w0, n_big, None, ESCAPE_RADIUS,
                                      False)[4] for w0 in starts], axis=1)
    pairs = _gate_verdicts(F, z0, starts, n_big, ws)
    _assert_gate(pairs)
    assert expect in {old[0] for old, _ in pairs}


def test_region_rule_keeps_every_streak_petal_on_the_benchmark_germ(golden):
    # the benchmark's parabolic germ w + w^2 + 0.05 z w^3 at z0 = 0 on a
    # 60 x 60 grid of its slice, stepped in lockstep by the engine's _step
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3)
    n_max = 300
    axis_re, axis_im = np.linspace(-1.5, 0.5, 60), np.linspace(-1, 1, 60)
    starts = (axis_re[np.newaxis, :] + 1j * axis_im[:, np.newaxis]).ravel()
    C = petals._coeff_matrix(F, 0, n_max)
    ws = np.empty((n_max + 1, len(starts)), dtype=complex)
    ws[0] = starts
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max):
            ws[n + 1] = petals._step(C[n], ws[n])
    pairs = _gate_verdicts(F, 0, starts, n_max, ws)
    _assert_gate(pairs)
    old_kinds = [old[0] for old, _ in pairs]
    assert old_kinds.count(PETAL) > 2000 and ESCAPE in old_kinds
