import cmath
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import skewdyn as sd
from skewdyn import petals
from skewdyn.petals import (BASIN, CODE_BASIN_BASE, CODE_ESCAPE, ESCAPE,
                            PETAL, UNDECIDED)

from conftest import (dispatches_x86_v3, germ_from_coeffs,
                      random_parabolic_germ)

ESCAPE_RADIUS = 1e6  # iterate_orbit's and fatou_slice's default


# -- directions and membership -------------------------------------------------

def test_directions_for_jet():
    # w + w^2 attracts along -1; w - w^2 along +1
    assert cmath.exp(1j * sd.directions_for_jet(1.0, 1)) == pytest.approx(-1)
    assert cmath.exp(1j * sd.directions_for_jet(-1.0, 1)) == pytest.approx(1)


def _hits(w, region):
    """The engine's petal rule on the points w: (indices, directions)."""
    w = np.asarray(w, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        idx = petals._petal_hits(w, np.abs(w), region)
    return (idx.tolist(),
            petals._direction_index(w[idx], region.k, region.base).tolist())


def test_petal_membership_examples():
    # one petal definition: the wedge of the certificate, read by the
    # engine's rule; ParabolicLocal(k) attracts along the directions
    # 2 pi j / k
    region = petals._local_region(sd.ParabolicLocal(k=1), 0.0, 0.1)
    rho = region.rho
    assert rho == 0.1
    assert _hits([rho / 2, -rho / 2, rho * (1 - 2.0 ** -40), rho], region) \
        == ([0, 2], [0, 0])
    # k = 2, w = 0.9 rho i sits on the sector boundary with Re u < 0
    region = petals._local_region(sd.ParabolicLocal(k=2), 0.0, 0.1)
    w = 0.9 * rho * 1j
    assert (1.0 / (2 * w ** 2)).real < 0
    # a genuine second-direction point for k = 2, and none off the axes
    assert _hits([w, -rho / 2, rho / 2 * cmath.exp(0.35j)], region) == ([1], [1])
    # non-finite points lie in no petal, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _hits([np.nan, np.inf, complex(np.nan, 1), 1.5e308 + 1.5e308j,
                      1e300], region) == ([], [])


def test_membership_against_direct_halfplane_evaluation():
    # the wedge {|Im u| < Re u - R}, u = -1/(k a w^k), is the meet of the
    # half-planes Re u - Im u > R and Re u + Im u > R: read directly in u,
    # it agrees with the engine's trig-free rule off a thin boundary layer
    rng = np.random.default_rng(3)
    for k, base in itertools.product((1, 2, 3, 7), (0.0, 1.0, -2.5)):
        region = _scripted_region(k, base, rng.uniform(0.05, 0.75))
        lead, rho = region.lead, region.rho
        r_cut = 1.0 / (k * abs(lead) * rho ** k)
        w = (rng.uniform(0, 1.4 * rho, 4000)
             * np.exp(1j * rng.uniform(-np.pi, np.pi, 4000)))
        u = -1.0 / (k * lead * w ** k)
        gap = np.minimum(u.real - u.imag, u.real + u.imag) - r_cut
        inside = (gap > 0) & (np.abs(w) < rho)
        clear = np.abs(gap) > 1e-9 * np.abs(u)
        got = np.zeros(len(w), dtype=bool)
        got[_hits(w, region)[0]] = True
        assert np.array_equal(got[clear], inside[clear])
        assert clear.mean() > 0.999 and got.any() and not got.all()


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

# Starts next to the fixed point 0 of the golden rotation maps below, where
# the retired recurrence heuristic re-anchored and went stale at irregular
# gaps (and read the slow rotation's fixed point from 2e-8 as "period 55"):
SIEGEL_W0 = (1e-9, 1e-7)          # neutral: undecided until n_max
SLOW_ROTATION_W0 = (6e-10, 2e-8)  # attracting: in the disk of 0 at once

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
        "siegel": (cvm([0, lam, 1], golden), 0, 0.3, list(SIEGEL_W0), 1000,
                   UNDECIDED),
        "slow_rotation": (cvm([0, 0.9999 * lam, 1], golden), 0, 0.3,
                          list(SLOW_ROTATION_W0), 1900, BASIN),
        "moving_fiber": (germ_from_coeffs(golden, [[0], [1], [1],
                                                   [0, 0.05]], 8, 3),
                         0.05, 0.5, [], 300, PETAL),
    }


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


def _fields(eng, i: int, basins) -> tuple[int, int, int, int]:
    """(kind, index, n_stop, period) of start i of an engine result, the
    period read from its basin's certified cycle (0 off basins)."""
    kind, index = int(eng.kind[i]), int(eng.index[i])
    period = len(basins.cycles[index][1]) if kind == BASIN else 0
    return kind, index, int(eng.n_stop[i]), period


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
        C, region, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
        eng = petals._run_engine(C, np.array(starts), n_max, region, basins,
                                 ESCAPE_RADIUS)
        kinds = set()
        for i, w0 in enumerate(starts):
            want = _fields(eng, i, basins)
            # the engine holding this start alone gives the same fields
            alone = petals._run_engine(C, np.array([w0]), n_max, region,
                                       basins, ESCAPE_RADIUS)
            assert ([_bits(f) for f in alone]
                    == [_bits(f[i:i + 1]) for f in eng]), (name, n_max, w0)
            stop = petals._run_single(C, w0, n_max, region, basins,
                                      ESCAPE_RADIUS, stop_at_verdict=True)
            full = petals._run_single(C, w0, n_max, region, basins,
                                      ESCAPE_RADIUS, stop_at_verdict=False)
            for got in (stop, full):
                assert got[:4] == want, (name, n_max, w0)
            kind, n_stop, ws = stop[0], stop[2], stop[4]
            kinds.add(kind)
            assert len(ws) == n_stop + 1 and len(stop[5]) == n_stop
            assert len(full[4]) == n_max + 1 and len(full[5]) == n_max
            assert _bits(full[4][:n_stop + 1]) == _bits(ws)
            assert full[5][:n_stop].tobytes() == stop[5].tobytes()
        assert ESCAPE in kinds  # the 2e6 start escapes at n = 0
    assert expect in kinds


def _random_pairs(n: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(30)
    z = rng.standard_normal((2, 2, n)) * np.exp(rng.uniform(-20, 20, (2, 2, n)))
    return z[0, 0] + 1j * z[0, 1], z[1, 0] + 1j * z[1, 1]


def _one_element_products(a, b, in_place: bool) -> list[complex]:
    got, out = [], np.empty(1, complex)
    for i in range(len(a)):
        if in_place:
            out[0] = a[i]
            out *= b[i:i + 1]
        else:
            np.multiply(a[i:i + 1], b[i:i + 1], out)
        got.append(out[0])
    return got


def test_one_element_product_into_its_own_out_rounds_as_an_array_product():
    # _run_single multiplies one-element arrays into a work array that is
    # not an operand; that must round as _step's in-place product on many
    # points, whichever loops numpy dispatches
    a, b = _random_pairs()
    many = a.copy()
    many *= b
    assert _bits(_one_element_products(a, b, in_place=False)) == _bits(many)


@pytest.mark.skipif(not dispatches_x86_v3(),
                    reason="numpy dispatches no X86_V3 (AVX2 + FMA3) loops "
                           "here, so every product rounds unfused")
def test_in_place_one_element_product_rounds_unfused():
    # the exception that _step and _run_single step around: with X86_V3 an
    # in-place product on one element rounds as CPython's, each operation
    # on its own, while the array product is fused
    a, b = _random_pairs()
    cpython = [x * y for x, y in zip(a.tolist(), b.tolist())]
    assert (_bits(_one_element_products(a, b, in_place=True))
            == _bits(cpython))
    assert _bits(a * b) != _bits(cpython)


def _stepped_among_others(C: np.ndarray, w0: complex, n_max: int):
    """ws and dlogs of w0 stepped by _step on a 3-point array holding it,
    as the engine steps a point among others, on C's untrimmed rows."""
    w = np.full(3, w0)
    ws, dlogs = np.empty(n_max + 1, dtype=complex), np.empty(n_max)
    ws[0] = w0
    D = C[:n_max, 1:] * np.arange(1, C.shape[1])
    with np.errstate(all="ignore"):
        for n in range(n_max):
            d = petals._step(D[n], w) if D.shape[1] > 1 else D[n, :1]
            dlogs[n] = np.log(np.abs(d))[0]
            w = petals._step(C[n], w)
            ws[n + 1] = w[0]
    return ws, dlogs


def _single_stepping_cases(golden):
    """(C, starts, region, basins) for every kind of row the single path
    steps."""
    n_max = 200  # across the block edges at 64 and 192
    rng = np.random.default_rng(31)
    cases = []

    def fixed(row, starts):  # the one-row view and every row stored
        C = np.broadcast_to(row, (n_max + 1, len(row)))
        basins = petals._basin_disks(sd.ConstantVerticalMap(row), 0.0, C,
                                     None, ESCAPE_RADIUS)
        return [(C, starts, None, basins), (np.array(C), starts, None, basins)]

    for d in range(1, 7):  # a_0 = 0, |a_1| < 1, small higher coefficients
        row = (rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)) / 4
        row[:2] = 0, (0.5, 0.99)[d % 2] * cmath.exp(2j * np.pi * rng.random())
        cases += fixed(row, [0.3 * cmath.exp(2j * np.pi * rng.random()),
                             4.0 - 1j])
    # zero interior coefficients, -0.0 parts and two all-zero top columns:
    # skipping a + 0 or trimming a zero top would move bits, past an
    # overflow to inf and NaN too
    signed = np.array([complex(-0.0, 0.0), 1, 0, complex(0.0, -0.0), -1,
                       complex(-0.0, -0.0), 0, 0])
    cases += fixed(signed, [complex(0.25, -0.0), complex(-0.0, 0.25),
                            complex(-0.3, -0.0), complex(3.0, -0.0)])
    # a moving fiber: the corpus germ, and rows drawn afresh at every step,
    # which no map's certificate covers
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3)
    C, region, basins = petals._setup(F, 0.05, n_max, ESCAPE_RADIUS)
    cases.append((C, [0.1, -0.2 + 0.1j, 2.0], region, basins))
    C = (rng.standard_normal((n_max + 1, 4))
         + 1j * rng.standard_normal((n_max + 1, 4))) / 3
    cases.append((C, [0.2j, 5.0], None, NO_BASINS))
    return cases


def test_single_path_steps_bit_for_bit_as_among_others(golden):
    # the single path's one-element work arrays against the engine's own
    # step on several points, in both stop modes
    seen = set()
    for C, starts, region, basins in _single_stepping_cases(golden):
        n_max = len(C) - 1
        for w0 in starts:
            want_ws, want_dlogs = _stepped_among_others(C, w0, n_max)
            for stop_at_verdict in (True, False):
                kind, _, n_stop, _, ws, dlogs = petals._run_single(
                    C, w0, n_max, region, basins, ESCAPE_RADIUS,
                    stop_at_verdict)
                cut = n_stop if stop_at_verdict else n_max
                assert _bits(ws) == _bits(want_ws[:cut + 1]), (C[0], w0)
                assert dlogs.tobytes() == want_dlogs[:cut].tobytes()
            seen.add(kind)
            parts = want_ws.view(float)
            if np.isnan(parts).any():
                seen.add("nan")
            if (np.signbit(parts) & (parts == 0)).any():
                seen.add("-0.0")
    assert {ESCAPE, PETAL, BASIN, UNDECIDED, "nan", "-0.0"} <= seen, seen


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


NO_BASINS = petals._basins([])


def _scripted_basins():
    """Basin disks for scripted orbits, whose schedules certify none, built
    as _basins builds certified chains: D(0, 2^-11) is cycle 0 and
    D(0.5, 2^-10) cycle 1 (keys ((0, 0),) and ((0.5, 0),))."""
    return petals._basins([([0.5 + 0j], [2.0 ** -10]), ([0j], [2.0 ** -11])])


# scripted points near the disks: inside, on a boundary (2^-11 and
# 0.5 + 2^-10 are outside: the test is strict) and at the modulus of a
# center but far from it (0.5j passes the moduli prefilter only)
SCRIPTED_POOL = np.array([0, 6e-10, 2.0 ** -11, 0.5j, 0.5 + 2.0 ** -10,
                          0.5 + 2.0 ** -11, 1.0])


def _scripted_orbit(rng, n_max):
    """(seq, region) of one scripted orbit: an orbit spiralling in toward
    the petal region, or one drawn from SCRIPTED_POOL and fresh points,
    with an escape at a random step every third draw or so."""
    if rng.integers(0, 2):
        region = _scripted_region(2, 0.3, 0.2)
        mod = 0.5 * np.cumprod(rng.uniform(0.55, 1.08, n_max + 1))
        ang = (0.3 + np.pi * rng.integers(0, 2, n_max + 1)
               + rng.normal(0.0, 0.6, n_max + 1))
        seq = mod * np.exp(1j * ang)
    else:
        region = None
        # pool points are rare, so that entries come late as often as early
        pick = rng.integers(0, 4 * len(SCRIPTED_POOL), n_max + 1)
        seq = np.where(pick < len(SCRIPTED_POOL),
                       SCRIPTED_POOL[np.minimum(pick, len(SCRIPTED_POOL) - 1)],
                       10.0 + np.arange(n_max + 1))  # never near anything
    if rng.integers(0, 3) == 0:
        seq[rng.integers(1, n_max + 1)] = 2e6
    return seq.astype(complex), region


@pytest.mark.parametrize("seed", range(8))
def test_single_orbit_path_matches_engine_on_scripted_orbits(seed):
    # Scripted orbits reach the rules' edge cases far more often than real
    # maps: disk entries at any step, points on a disk's boundary or at its
    # center's modulus, late escapes, and orbits that pass the petal
    # region's edges.
    rng = np.random.default_rng([29, seed])
    basins = _scripted_basins()
    for trial in range(40):
        n_max = int(rng.choice([40, 63, 64, 65, 130]))
        seq, region = _scripted_orbit(rng, n_max)
        C = _schedule_for(seq)
        eng = petals._run_engine(C, seq[:1], n_max, region, basins,
                                 ESCAPE_RADIUS)
        want = _fields(eng, 0, basins)
        # both paths call the same step rules, so the plain-Python walks
        # are the oracle of the rules themselves
        assert _reference_verdict(seq, region, basins) == want, (seed, trial)
        for stop_at_verdict in (True, False):
            got = petals._run_single(C, seq[0], n_max, region, basins,
                                     ESCAPE_RADIUS, stop_at_verdict)
            assert got[:4] == want, (seed, trial)
            assert _bits(got[4]) == _bits(seq[:len(got[4])])


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_single_orbit_path_reads_in_chunks_as_in_one(monkeypatch, chunk):
    # the verdict scans and the derivative logs a few steps at a time:
    # scripted orbits (escapes, petal entries and disk entries on every
    # chunk edge) give the plain-Python walks' fields, their own trajectory
    # and a derivative log for each step taken (-inf: the scripted maps are
    # constant in w)
    monkeypatch.setattr(petals, "_CHUNK", chunk)
    rng = np.random.default_rng([37, chunk])
    basins = _scripted_basins()
    for trial in range(60):
        n_max = int(rng.choice([40, 63, 64, 65, 130]))
        seq, region = _scripted_orbit(rng, n_max)
        C = _schedule_for(seq)
        want = _reference_verdict(seq, region, basins)
        for stop_at_verdict in (True, False):
            got = petals._run_single(C, seq[0], n_max, region, basins,
                                     ESCAPE_RADIUS, stop_at_verdict)
            assert got[:4] == want, (chunk, trial)
            ws = got[4]
            assert _bits(ws) == _bits(seq[:len(ws)])
            assert got[5].tobytes() == np.full(len(ws) - 1, -np.inf).tobytes()


def _disk_walk(ws, basins):
    """The basin rule for one point, step by step in plain Python and read
    from each cycle's points and radii: (n, cycle id, period) of the first
    step n with (re^2 + im^2) of w_n - z_i below r_i^2, or None."""
    for n, w in enumerate(ws.tolist()):
        for c, (_, pts, radii) in enumerate(basins.cycles):
            for z, r in zip(pts, radii):
                d = w - z
                if d.real * d.real + d.imag * d.imag < r * r:
                    return n, c, len(pts)
    return None


# the retired cycle heuristic: Floyd catches within RETIRED_TOL confirmed by
# recurrence for RETIRED_WINDOW steps, periods up to petals.PERIOD_CAP
RETIRED_WINDOW, RETIRED_TOL = 50, 1e-9


def _cycle_walk(ws, seen=None):
    """The retired cycle heuristic for one point, step by step in plain
    Python: (n, -1, period) of its confirmation, or None.  A dict seen
    counts its transitions up to the confirmation: anchors, recurrences,
    re-anchors and stale drops."""
    cap = petals.PERIOD_CAP
    pts = ws.tolist()
    anchored, anchor, anchor_step, last_hit, period = False, 0j, 0, 0, 0
    seen = {} if seen is None else seen
    seen.update(anchor=0, recur=0, reanchor=0, stale=0)
    for n in range(2, len(pts)):
        w = pts[n]
        if not anchored and abs(w - pts[n // 2]) < RETIRED_TOL:
            anchored, anchor, anchor_step, last_hit, period = True, w, n, n, 0
            seen["anchor"] += 1
        if not anchored:
            continue
        near = abs(w - anchor) < RETIRED_TOL
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
        if anchored and near and period > 0 and n - anchor_step >= RETIRED_WINDOW:
            return n, -1, period
        if anchored and n - last_hit > cap:
            anchored = False
            seen["stale"] += 1
    return None


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


def _reference_verdict(ws, region, basins, petal=None, basin=None):
    """(kind, index, n_stop, period) of one orbit from plain-Python walks of
    the rules, taken in the engine's check order within a step; petal and
    basin replace the region walk's (n, direction) and the disk walk's (n,
    cycle id, period) when given."""
    found = [(int(n), ESCAPE, -1, 0)
             for n in np.flatnonzero(~(np.abs(ws) <= ESCAPE_RADIUS))[:1]]
    if petal is None and region is not None:
        petal = _region_walk(ws, region)
    if petal is not None:
        found.append((petal[0], PETAL, petal[1], 0))
    if basin is None:
        basin = _disk_walk(ws, basins)
    if basin is not None:
        found.append((basin[0], BASIN, basin[1], basin[2]))
    n, kind, index, period = min(found, default=(len(ws) - 1, UNDECIDED, -1, 0))
    return kind, index, n, period


def _paths_agree(seq, region, basins=NO_BASINS):
    """The engine, the single path (both stop modes) and the plain-Python
    walks give the same fields on seq and on its prefixes at the block-edge
    n_max values; returns the fields on the whole of seq."""
    C = _schedule_for(seq)
    edges = BLOCK_EDGE_N_MAX + CAPPED_EDGE_N_MAX
    for n_max in [n for n in edges if n < len(seq) - 1] + [len(seq) - 1]:
        eng = petals._run_engine(C, seq[:1], n_max, region, basins,
                                 ESCAPE_RADIUS)
        want = _fields(eng, 0, basins)
        assert _reference_verdict(seq[:n_max + 1], region, basins) == want, n_max
        for stop_at_verdict in (True, False):
            got = petals._run_single(C, seq[0], n_max, region, basins,
                                     ESCAPE_RADIUS, stop_at_verdict)
            assert got[:4] == want, (n_max, stop_at_verdict)
    return want


def _fresh(top: int) -> np.ndarray:
    """10 + n at step n: no petal step and no disk entry."""
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
    # once (64, then 128, then 256 of them); the entry at step 300 lies in
    # the third block
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
                             NO_BASINS, ESCAPE_RADIUS, True)
    assert got[:4] == (PETAL, 0, 300, 0)
    assert calls == [64, 128, 256]


@pytest.mark.parametrize("catch", [2, 7, 63, 64, 65, 192, 960, 1984])
def test_catches_at_trajectory_and_block_edges(catch):
    # a disk catches the orbit on the trajectory's last step, at the single
    # path's block edges, and three steps before the last step; a point on
    # the disk's boundary is not caught
    basins = _scripted_basins()
    inside = 0.5 + 2.0 ** -10 * (1 - 2.0 ** -20)
    for top in (catch, catch + 3):
        seq = _fresh(top)
        seq[catch] = 0.5 + 2.0 ** -10
        assert _paths_agree(seq, None, basins) == (UNDECIDED, -1, top, 0)
        seq[catch] = inside
        assert _paths_agree(seq, None, basins) == (BASIN, 1, catch, 1)


@pytest.mark.parametrize("recatch", [10, 63, 64, 65, 192, 960])
@pytest.mark.parametrize("caught_at_drop", [False, True])
def test_recatch_right_after_a_stale_drop(recatch, caught_at_drop):
    # 0.5j and 0.5 + 2^-10 lie in the moduli band of D(0.5, 2^-10): the
    # prefilter picks them as candidates and the exact test drops them.
    # A candidate dropped eight steps before the entry, and with
    # caught_at_drop one on the step right before it (on the disk's
    # boundary), leaves the orbit undecided; the entry after the drop
    # settles it at its own step, on and next to the block edges
    basins = _scripted_basins()
    seq = _fresh(recatch + 10)
    seq[recatch - 8] = 0.5j
    if caught_at_drop:
        seq[recatch - 1] = 0.5 + 2.0 ** -10
    assert (_paths_agree(seq[:recatch], None, basins)
            == (UNDECIDED, -1, recatch - 1, 0))
    seq[recatch] = 0.5 + 2.0 ** -11
    assert _paths_agree(seq, None, basins) == (BASIN, 1, recatch, 1)


def test_single_path_evaluates_each_petal_run_in_one_call(monkeypatch):
    # the benchmark's orbit-k3 map from a start near a repelling direction,
    # whose entry comes late (step 346): in both stop modes the single path
    # reads each block's new steps in one call of the petal rule (64, then
    # 128, then the 256 that hold the entry), never once per step, and
    # reads nothing after the entry, also when it goes on stepping
    g = sd.ConstantVerticalMap([0, 1, 0, 0, -1])
    w0, n_max = 0.1 * cmath.exp(1j * (math.pi / 3 - 0.01)), 10 ** 4
    C, region, basins = petals._setup(g, 0, n_max, ESCAPE_RADIUS)
    calls = []
    hits = petals._petal_hits

    def counted(w, *args):
        calls.append(len(w))
        return hits(w, *args)

    monkeypatch.setattr(petals, "_petal_hits", counted)
    for stop_at_verdict in (True, False):
        calls.clear()
        got = petals._run_single(C, w0, n_max, region, basins, ESCAPE_RADIUS,
                                 stop_at_verdict)
        ws = got[4]
        hit = _region_walk(ws, region)
        assert got[:4] == (PETAL, hit[1], hit[0], 0) == (PETAL, 0, 346, 0)
        assert len(ws) == (347 if stop_at_verdict else n_max + 1)
        assert calls == [64, 128, 256]


def test_single_path_evaluates_the_disk_rule_once_per_block(monkeypatch):
    # 0.99 w + w^2 from 0.005 enters the disk of its attracting fixed point
    # 0 in the third block: in both stop modes the single path reads each
    # block's new steps in one call of the basin rule (65 with step 0, then
    # 128, then 256), never once per step, and reads nothing after the
    # entry, also when it goes on stepping
    g = sd.ConstantVerticalMap([0, 0.99, 1])
    n_max = 10 ** 4
    C, _, basins = petals._setup(g, 0, n_max, ESCAPE_RADIUS)
    assert [c[0] for c in basins.cycles] == [((0.0, 0.0),)]
    calls = []
    hits = petals._basin_hits

    def counted(w, *args):
        calls.append(len(w))
        return hits(w, *args)

    monkeypatch.setattr(petals, "_basin_hits", counted)
    for stop_at_verdict in (True, False):
        calls.clear()
        got = petals._run_single(C, 0.005, n_max, None, basins, ESCAPE_RADIUS,
                                 stop_at_verdict)
        n, cid, period = _disk_walk(got[4], basins)
        assert got[:4] == (BASIN, cid, n, period)
        assert (cid, period) == (0, 1) and 192 < n <= 448
        assert calls == [65, 128, 256]


@pytest.mark.parametrize("which,w0", [
    ("siegel", SIEGEL_W0[0]), ("siegel", SIEGEL_W0[1]),
    ("slow_rotation", SLOW_ROTATION_W0[0]),
    ("slow_rotation", SLOW_ROTATION_W0[1])])
def test_single_path_steps_the_cycle_automaton_only_on_events(
        golden, monkeypatch, which, w0):
    # the pinned starts on which the retired cycle automaton stepped at
    # irregular events: the basin rule that replaces it is read once per
    # block, on the block's new steps.  The slow rotation's starts lie in
    # the disk of 0 and settle on the first block's read (65 steps with
    # step 0), and nothing is read after it, also when the orbit goes on
    # stepping; the Siegel map certifies no cycle, so its 3000 undecided
    # steps never call the rule
    F = _differential_corpus(golden)[which][0]
    n_max = 3000
    C, _, basins = petals._setup(F, 0, n_max, ESCAPE_RADIUS)
    calls = []
    hits = petals._basin_hits

    def counted(w, *args):
        calls.append(len(w))
        return hits(w, *args)

    monkeypatch.setattr(petals, "_basin_hits", counted)
    for stop_at_verdict in (True, False):
        calls.clear()
        got = petals._run_single(C, w0, n_max, None, basins, ESCAPE_RADIUS,
                                 stop_at_verdict)
        if which == "siegel":
            assert basins.cycles == []
            assert got[:4] == (UNDECIDED, -1, n_max, 0) and calls == []
        else:
            n, cid, period = _disk_walk(got[4], basins)
            assert got[:4] == (BASIN, cid, n, period) == (BASIN, 0, 0, 1)
            assert calls == [65]


@pytest.mark.parametrize("which,w0,n_max,transition,confirmed", [
    ("slow_rotation", SLOW_ROTATION_W0[0], 3000, "reanchor", (1870, 1)),
    ("slow_rotation", SLOW_ROTATION_W0[1], 3000, "stale", (342, 55)),
    ("siegel", SIEGEL_W0[0], 1000, "reanchor", None),
    ("siegel", SIEGEL_W0[1], 1000, "stale", None),
])
def test_pinned_starts_take_rare_cycle_transitions(golden, which, w0, n_max,
                                                   transition, confirmed):
    # on these starts the retired cycle heuristic took its rare
    # transitions (re-anchors, stale anchors) and confirmed the slow
    # rotation's fixed point late, from 2e-8 as "period 55"; the certified
    # disks settle both slow-rotation starts at step 0 as the period-1
    # basin of 0 and leave both Siegel starts undecided
    F = _differential_corpus(golden)[which][0]
    orb = sd.iterate_orbit(F, 0, w0, n_max, stop_at_verdict=False)
    seen = {}
    retired = _cycle_walk(orb.ws, seen)
    assert seen[transition] > 0
    assert (None if retired is None else retired[::2]) == confirmed
    if confirmed is None:
        assert orb.verdict.kind == UNDECIDED and orb.n_stop == n_max
    else:
        assert orb.verdict == sd.Verdict(BASIN, 0)
        assert (orb.n_stop, orb.cycle_period) == (0, 1)
        assert abs(orb.cycle_representative) < 1e-15


@pytest.mark.parametrize("w0", [2e-8, 6e-10, 1e-3, 0.05])
def test_slow_rotation_starts_settle_in_the_disk_of_0(golden, w0):
    # the only attracting cycle of 0.9999 lam w + w^2 near 0 is the fixed
    # point 0, multiplier modulus 0.9999; the retired heuristic read the
    # start 2e-8 as "period 55" (from a point 1.9e-8 off 0) and left 1e-3
    # and 0.05 undecided, though their orbits end 2e-12 and 1e-10 from 0
    F = _differential_corpus(golden)["slow_rotation"][0]
    orb = sd.iterate_orbit(F, 0, w0, 2 * 10 ** 5)
    assert orb.verdict == sd.Verdict(BASIN, 0) and orb.stop_reason == "cycle"
    assert orb.cycle_period == 1 and abs(orb.cycle_representative) < 1e-15
    assert orb.n_stop < 2 * 10 ** 5
    assert (orb.n_stop == 0) == (w0 < 1e-4)


def test_constant_map_settles_at_its_value_in_one_step():
    # g = 0.5 takes every start to 0.5 in one step, on both paths; a start
    # already in the disk of 0.5 settles at step 0
    F = sd.ConstantVerticalMap([0.5])
    g = sd.fatou_slice(F, 0, (-1, 1, -1, 1, 4), n_max=50)
    assert g.cycles == [((0.5, 0.0),)]
    assert np.all(g.code == CODE_BASIN_BASE) and np.all(g.n_stop == 1)
    orb = sd.iterate_orbit(F, 0, -0.25, 50)
    assert (orb.verdict, orb.n_stop) == (sd.Verdict(BASIN, 0), 1)
    assert (orb.cycle_period, orb.cycle_representative) == (1, 0.5)
    assert sd.iterate_orbit(F, 0, 0.5 + 1e-4j, 50).n_stop == 0


def test_identity_map_is_undecided():
    # every point is a neutral fixed point: no cycle attracts, none is
    # certified, and no point settles
    F = sd.ConstantVerticalMap([0, 1])
    g = sd.fatou_slice(F, 0, (-1, 1, -1, 1, 5), n_max=200)
    assert g.cycles == [] and np.all(g.code == petals.CODE_UNDECIDED)
    orb = sd.iterate_orbit(F, 0, 0.3, 200)
    assert orb.verdict.kind == UNDECIDED and orb.n_stop == 200


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
    assert rep.violations == 0
    assert rep.worst_margin > 0


def test_forward_invariance_negative_control(monkeypatch):
    # at k = 1, b = 0 the bound is tight: |e| = |w|/|1 - w| reaches eps =
    # rho/(1 - rho) on the direction ray, so a smaller eps is violated
    local = sd.ParabolicLocal(k=1)
    region = petals._local_region(local, 0.0, 1.0)  # the certified radius
    rep = sd.forward_invariance_check(local, 0.05, 2000, seed=42, rho=1.0)
    assert rep.violations == 0 and rep.worst_margin >= 0
    with monkeypatch.context() as m:
        m.setattr(petals, "_local_region",
                  lambda *args: region._replace(eps=0.9 * region.eps))
        rep = sd.forward_invariance_check(local, 0.05, 2000, seed=42, rho=1.0)
    assert rep.violations > 0
    assert rep.worst_margin < 0
    # one step on the ray, just inside the radius, with the true eps
    w = region.rho * (1 - 2.0 ** -40)
    monkeypatch.setattr(petals, "_sample_petal", lambda rng, n, reg: [w] * n)
    rep = sd.forward_invariance_check(local, 0.0, 1, seed=0, rho=1.0)
    assert region.eps - rep.worst_margin == pytest.approx(w / (1 - w),
                                                          rel=1e-14)
    assert 0 <= rep.worst_margin < 1e-11


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


def _oracle_digits(k, rho):
    """Digits that resolve u' - u - 1 and |g'|^2 - 1 against u ~ rho^-k."""
    return int(2 * k * math.log10(1 / rho)) + 50


@pytest.mark.parametrize("k", [1, 2, 10, 20, 30, 50, 200])
def test_repelling_expansion_at_high_order_matches_mpmath(k):
    # |g'|^2 - 1 straight from g'(zeta) = 1 - (k+1) zeta^k + (2k+1) b
    # zeta^{2k} on the same samples: at these orders (k+1) zeta^k lies
    # near or below an ulp of 1, or underflows, so |g'| rounds to 1 in
    # doubles; the check decides on |g'|^2 - 1 over |zeta|^k
    mpmath = pytest.importorskip("mpmath")
    for b in (0j, 0.3 - 0.2j):
        local = sd.ParabolicLocal(k=k, b=b)
        rep = sd.repelling_expansion_check(local, samples=300, seed=1)
        region = petals._local_region(local, 0.0, 0.1)
        zeta = petals._sample_petal(petals._seeded(1), 300,
                                    region._replace(base=math.pi / k))
        assert all(abs(cmath.phase((z / abs(z)) ** k)) > 3 * math.pi / 4
                   for z in zeta)  # about the repelling directions
        with mpmath.workdps(_oracle_digits(k, region.rho)):
            g1 = [abs(1 - (k + 1) * z ** k + (2 * k + 1) * b * z ** (2 * k))
                  for z in map(mpmath.mpc, zeta)]
            violations = sum(not x ** 2 - 1 > 0 for x in g1)
            least = float(min(g1))
        assert rep.violations == violations == 0
        assert rep.worst_margin == pytest.approx(least, rel=1e-12)


@pytest.mark.parametrize("k", [15, 20, 50])
def test_min_log_derivative_stays_above_zero_at_high_order(k):
    # from k = 15 at rho = 0.1, |g'| rounds to 1 (worst_margin 1.0); log
    # |g'| = log1p(|g'|^2 - 1) / 2 keeps the expansion, within 1e-12 of
    # mpmath on the same samples
    mpmath = pytest.importorskip("mpmath")
    local = sd.ParabolicLocal(k=k)
    rep = sd.repelling_expansion_check(local, samples=500, seed=1)
    region = petals._local_region(local, 0.0, 0.1)
    zeta = petals._sample_petal(petals._seeded(1), 500,
                                region._replace(base=math.pi / k))
    with mpmath.workdps(_oracle_digits(k, region.rho)):
        least = min(abs(1 - (k + 1) * z ** k) for z in map(mpmath.mpc, zeta))
        want = float(mpmath.log(least))
    assert rep.worst_margin == 1.0 and rep.min_log_derivative > 0
    assert rep.min_log_derivative == pytest.approx(want, rel=1e-12)


def test_repelling_direction_formulas():
    # zeta on the repelling ray: |g'| = |1 + 0.2| = 1.2; attracting ray < 1
    assert abs(1 - 2 * (-0.1)) == pytest.approx(1.2)
    assert abs(1 - 2 * 0.1) == pytest.approx(0.8)
    rep = sd.repelling_expansion_check(sd.ParabolicLocal(k=1),
                                       samples=100, seed=1, rho=0.1)
    assert rep.worst_margin > 1.0


SAMPLER_CASES = [  # (map, z_band, cap)
    (sd.ParabolicLocal(k=1), 0.0, 0.1),
    (sd.ParabolicLocal(k=2, b=0.3 - 0.2j), 0.0, 1.0),
    (sd.ParabolicLocal(k=3), 0.0, 0.05),
    (sd.ParabolicLocal(k=7, b=2.0), 0.0, 1.0),
    (sd.ParabolicLocal(k=50), 0.0, 1.0),
    (sd.ParabolicLocal(k=200), 0.0, 0.1),
    (sd.ParabolicLocal(k=2, tail=(sd.TruncatedSeries([0.2, 0.5j]),)), 0.1, 1.0),
]


def test_sampler_only_emits_petal_members():
    # every point the checks draw passes the engine's petal rule for the
    # same region, and the draws are a function of the seed
    for local, z_band, cap in SAMPLER_CASES:
        region = petals._local_region(local, z_band, cap)
        for n in (1, 3000):
            w = petals._sample_petal(random.Random(1), n, region)
            assert len(w) == n and len(_hits(w, region)[0]) == n
            assert w == petals._sample_petal(random.Random(1), n, region)
        assert w != petals._sample_petal(random.Random(2), n, region)


def test_sampler_fills_every_direction_evenly():
    region = petals._local_region(sd.ParabolicLocal(k=3), 0.0, 0.1)
    w = np.array(petals._sample_petal(random.Random(7), 30000, region))
    counts = np.bincount(petals._direction_index(w, 3, region.base),
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


@pytest.mark.parametrize("k", [1, 2, 3, 10, 50, 200])
@pytest.mark.parametrize("b", [0j, 0.3 - 0.2j, 2.0])
def test_check_certificate_is_the_engine_region(k, b):
    # one petal definition: with the cap at or above the certified radius
    # the checks' certificate is the engine's at z = 0, bit for bit; a
    # lower cap moves rho to the cap and eps to the bound there
    local = sd.ParabolicLocal(k=k, b=b)
    engine = petals._setup(local, 0, 10, ESCAPE_RADIUS)[1]
    for cap in (engine.rho, petals.PETAL_RADIUS, 1.0, math.inf):
        assert petals._local_region(local, 0.0, cap) == engine
    low = petals._local_region(local, 0.0, engine.rho / 2)
    assert low[:3] == engine[:3] and low.rho == engine.rho / 2
    assert 0 < low.eps < engine.eps


def _random_wedges():
    """(engine, check) wedges of 300 random ParabolicLocal(k, b), k in 1..5
    and b's parts standard normal, at z = 0: the engine's from its setup,
    the sampling checks' from _local_region; each as (rho, eps) hex."""
    rng = random.Random(5)
    out = []
    for _ in range(300):
        local = sd.ParabolicLocal(k=rng.randint(1, 5),
                                  b=complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        out.append(tuple((r.rho.hex(), r.eps.hex()) for r in (
            petals._setup(local, 0, 24, ESCAPE_RADIUS)[1],
            petals._local_region(local, 0.0, petals.PETAL_RADIUS))))
    return out


def test_engine_wedge_is_the_check_certificate_bit_for_bit():
    # one wedge function: the engine and the checks read b's modulus alike
    # (CPython's abs); numpy's modulus, which the engine once read, differs
    # from it in the last bit for 52 of these 300 b
    wedges = _random_wedges()
    assert all(engine == check for engine, check in wedges)
    assert len(set(wedges)) > 250


@pytest.mark.skipif(not dispatches_x86_v3(),
                    reason="numpy dispatches no X86_V3 (AVX2 + FMA3) loops on "
                           "this CPU, so there is no second dispatch to compare")
def test_wedges_do_not_depend_on_the_numpy_dispatch():
    assert _in_baseline_dispatch("_random_wedges()") == _random_wedges()


@pytest.mark.parametrize("k, b", list(itertools.product(
    [1, 2, 10, 20, 50, 200], [0j, 0.3 - 0.2j])))
def test_forward_invariance_matches_mpmath(k, b):
    # u' - u - 1 straight from u = 1/(k w^k) and the image w - w^{k+1} + b
    # w^{2k+1}, at enough digits to resolve the cancellation, on the same
    # samples: the same violation count, and the same largest |e| (eps -
    # worst_margin).  The map has no z-dependent tail, so the band moves
    # no image.
    mpmath = pytest.importorskip("mpmath")
    local = sd.ParabolicLocal(k=k, b=b)
    for cap in (0.1, 1.0):  # the default cap, and the certified radius
        rep = sd.forward_invariance_check(local, z_band=0.1, samples=500,
                                          seed=7, rho=cap)
        region = petals._local_region(local, 0.1, cap)
        ws = petals._sample_petal(petals._seeded(7), 500, region)
        with mpmath.workdps(_oracle_digits(k, region.rho)):
            errs = []
            for w in map(mpmath.mpc, ws):
                w1 = w - w ** (k + 1) + b * w ** (2 * k + 1)
                errs.append(abs(1 / (k * w1 ** k) - 1 / (k * w ** k) - 1))
            violations = sum(e > region.eps for e in errs)
            top = float(max(errs))
        assert rep.violations == violations == 0
        assert region.eps - rep.worst_margin == pytest.approx(top, rel=1e-12)


def test_local_model_from_reduced_normal_form(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1, 1], [0, 1]], 16, 8)
    nf, log = sd.normalize(F, 2)
    red = sd.reduce_parabolic_tail(nf, changelog=log)
    assert red.jet[0] == pytest.approx(-1, abs=1e-8)
    loc = sd.ParabolicLocal(k=red.k, b=red.b, tail=tuple(red.tail),
                            rot=red.germ.rot)
    assert loc.k == 1 and loc.rot is not None and len(loc.tail) == 5
    orb = sd.iterate_orbit(loc, 0.02, 0.05, 8000, stop_at_verdict=False)
    assert orb.verdict.kind == PETAL
    assert 0.95 <= 8000 * abs(orb.ws[8000]) <= 1.05
    fwd = sd.forward_invariance_check(loc, z_band=0.02, samples=3000, seed=3,
                                      rho=0.08)
    rep = sd.repelling_expansion_check(loc, samples=3000, seed=3, rho=0.08)
    assert fwd.violations == 0 and rep.violations == 0
    assert rep.worst_margin > 1.0


def test_petal_membership_stable_under_model_map():
    # invariance restated: one step of w - w^3 keeps every sample of the
    # certified wedge in it, along the same direction
    region = petals._local_region(sd.ParabolicLocal(k=2), 0.0, 0.1)
    w = np.array(petals._sample_petal(random.Random(5), 10000, region))
    idx, j = _hits(w, region)
    assert len(idx) == len(w)
    assert _hits(w - w ** 3, region) == (idx, j)


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
    C, region, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
    assert not C[:, -1].any()
    padded = np.hstack([C, np.zeros((n_max + 1, 3), dtype=complex)])
    # the basin search reads the first row's degree, the certificate the
    # map's: zero top coefficients move neither
    assert petals._basin_disks(F, z0, padded, region, ESCAPE_RADIUS) == basins
    if fiber is not None:
        trimmed = sd.ConstantVerticalMap(np.trim_zeros(fiber, "b"), golden)
        assert petals._setup(trimmed, z0, n_max, ESCAPE_RADIUS)[2] == basins
    axis = np.linspace(-span, span, 24)
    w0 = (axis[np.newaxis, :] + 1j * axis[:, np.newaxis]).ravel()
    a = petals._run_engine(C, w0, n_max, region, basins, ESCAPE_RADIUS)
    b = petals._run_engine(padded, w0, n_max, region, basins, ESCAPE_RADIUS)
    for x, y in zip(a, b):
        assert _bits(x) == _bits(y)
    assert len(set(a.kind.tolist())) >= 2
    # against the untrimmed single-orbit stepping
    for i in range(0, len(w0), 23):
        got = petals._run_single(padded, w0[i], n_max, region, basins,
                                 ESCAPE_RADIUS, True)
        assert got[:4] == _fields(a, i, basins)


def test_engine_compacted_to_one_survivor_steps_as_before():
    # the 299 starts at 50 escape at step 2, so there the engine compacts
    # to the one undecided start; it must step as it does beside a
    # copy of itself (no compaction) and as the single-orbit path steps it
    F = sd.ConstantVerticalMap([-0.8 + 0.156j, 0, 1])
    w0, n_max = -1.079283 + 0.241198j, 3000
    C, region, basins = petals._setup(F, 0, n_max, ESCAPE_RADIUS)
    crowd = petals._run_engine(C, np.array([w0] + [50.0] * 299), n_max,
                               region, basins, ESCAPE_RADIUS)
    assert np.all(crowd.n_stop[1:] < 7)
    assert crowd.kind[0] == ESCAPE and crowd.n_stop[0] > 1000
    pair = petals._run_engine(C, np.array([w0, w0]), n_max, region, basins,
                              ESCAPE_RADIUS)
    assert [_bits(f[:1]) for f in crowd] == [_bits(f[:1]) for f in pair]
    got = petals._run_single(C, w0, n_max, region, basins, ESCAPE_RADIUS,
                             True)
    assert got[:4] == _fields(crowd, 0, basins)


def _tiled_starts(box, res, tile):
    """A res x res grid over box, after one tile of starts that all escape
    at step 0, with NaN and inf starts and escapes at step 0 among the
    grid's, and a ladder of moduli from 1.5 to 3000 that escapes at each
    of the first few steps."""
    re0, re1, im0, im1 = box
    re, im = np.linspace(re0, re1, res), np.linspace(im0, im1, res)
    grid = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    grid[::97] = 2e6
    grid[5::211] = complex(np.nan, 0.5)
    grid[7::223] = complex(np.inf, 0)
    grid[11::227] = complex(0.25, -np.inf)
    ladder = np.outer(np.geomspace(1.5, 3000, 60),
                      np.exp(1j * np.linspace(0, 6, 5))).ravel()
    return np.concatenate([np.full(tile, 3e6 + 1j), grid, ladder])


@pytest.mark.parametrize("name,box,n_max", [
    ("parabolic_w_plus_w2", (-1.5, 0.5, -1.0, 1.0), 400),
    ("basin_period2", (-1.7, 1.7, -1.0, 1.0), 200),
    ("moving_fiber", (-0.5, 0.5, -0.5, 0.5), 150)])
@pytest.mark.parametrize("pool", [1, 4])
def test_tiled_and_pooled_lockstep_equals_one_lockstep(monkeypatch, golden,
                                                       name, box, n_max,
                                                       pool):
    # tiles of 64 starts up to step `pool`, then one pooled lockstep, give
    # every field bit for bit as one lockstep over all starts (pooled at
    # step 0) and as one tile; so do budgets that end before the pooling
    # step.  The grid holds a tile that settles at step 0, NaN and inf
    # starts, and points that settle at the pooling step and at the step
    # after it
    F, z0 = _differential_corpus(golden)[name][:2]
    C, region, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
    w0 = _tiled_starts(box, 50, 64)

    def run(starts, tile, pool, n=n_max):
        monkeypatch.setattr(petals, "_TILE", tile)
        monkeypatch.setattr(petals, "_POOL_STEP", pool)
        return petals._run_engine(C, starts, n, region, basins, ESCAPE_RADIUS)

    def bits(result):
        return [f.tobytes() for f in result]

    # pooled at step 0, one tile is one lockstep over all starts
    tiled, whole = run(w0, 64, pool), run(w0, len(w0), 0)
    assert [f.dtype for f in tiled] == [np.int8, np.int32, np.int32]
    assert bits(tiled) == bits(whole) == bits(run(w0, len(w0), pool))
    for n in (0, pool - 1, pool + 2):  # budgets below the pooling step
        assert bits(run(w0, 64, pool + 3, n)) == bits(run(w0, len(w0), 0, n))
    kinds = set(tiled.kind.tolist())
    assert {ESCAPE, PETAL if name != "basin_period2" else BASIN} <= kinds
    assert np.all(tiled.n_stop[:64] == 0) and np.all(tiled.kind[:64] == ESCAPE)
    assert np.isin([pool, pool + 1], tiled.n_stop).all()
    # alone: every start that settles next to the pooling step, the
    # non-finite ones and a sample of the rest
    near = np.flatnonzero(np.abs(tiled.n_stop.astype(np.int64) - pool) <= 1)
    odd = np.flatnonzero(~np.isfinite(w0))
    for i in sorted(set(near[::5].tolist()) | set(odd[:4].tolist())
                    | set(range(64, len(w0), 29))):
        alone = run(w0[i:i + 1], 64, pool)
        assert bits(alone) == [f[i:i + 1].tobytes() for f in tiled], (name, i)


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
    # the benchmark's parabolic slice at 200 x 200, more than two tiles;
    # 36 bytes per point is the traced peak (32.2, numpy 2.4) plus 10%,
    # outputs (9 bytes a point) included; one lockstep over every start
    # peaked at 85.8
    F = germ_from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3)
    re, im = np.linspace(-1.5, 0.5, 200), np.linspace(-1, 1, 200)
    w0 = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    C, region, _ = petals._setup(F, 0.0, 200, ESCAPE_RADIUS)
    tracemalloc.start()
    try:
        r = petals._run_engine(C, w0, 200, region, NO_BASINS, ESCAPE_RADIUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(r.kind == PETAL) > 10000
    assert peak <= 36 * len(w0), peak / len(w0)


def test_grid_writers_hold_one_block_at_a_time(tmp_path):
    # a 600 x 600 grid of random codes and step counts, nearly every pixel
    # a distinct (code, n_stop) pair: write_ppm and write_csv each format
    # one block of _WRITE_PIXELS pixels at a time, so their traced peak is
    # bounded by the block (208 bytes a block pixel, 1.7 MB, for the CSV),
    # not by the grid's 360,000 pixels (46 MB when the writers formatted
    # the whole grid at once)
    rng = np.random.default_rng(59)
    codes = np.array([0, 1, 100, 101, 200, 201, 202], dtype=np.int32)
    g = sd.FatouGrid(re=np.linspace(-1.5, 0.5, 600),
                     im=np.linspace(-1.0, 1.0, 600),
                     code=codes[rng.integers(0, len(codes), (600, 600))],
                     n_stop=rng.integers(0, 2 ** 31 - 1, (600, 600),
                                         dtype=np.int32))
    peaks = []
    for write, path in ((g.write_ppm, "g.ppm"), (g.write_csv, "g.csv")):
        tracemalloc.start()
        try:
            write(tmp_path / path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 256 * petals._WRITE_PIXELS, peaks
    assert (tmp_path / "g.ppm").read_text() == g.to_ppm_text()
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert len(lines) == 1 + 600 * 600
    assert lines[-1] == (f"0.5,1.0,{g.code[-1, -1]},{g.n_stop[-1, -1]}")


def _per_pixel_slice(F, z0, grid, n_max):
    """(code, cycles) of fatou_slice named pixel by pixel in plain Python:
    the engine's escape and petal verdicts; each basin pixel named by the
    certified disk that holds its verdict state (the single path's state at
    the engine's n_stop), read from each cycle's points and radii; ids ranked by the cycles' keys, each polished point's
    coordinates keyed as round(x * 1e4) (half to even) and sorted."""
    re0, re1, im0, im1, res = grid
    re, im = np.linspace(re0, re1, res), np.linspace(im0, im1, res)
    C, region, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
    w0 = (re[np.newaxis, :] + 1j * im[:, np.newaxis]).ravel()
    r = petals._run_engine(C, w0, n_max, region, basins, ESCAPE_RADIUS)
    code = np.zeros(res * res, dtype=np.int32)
    code[r.kind == ESCAPE] = CODE_ESCAPE
    pm = r.kind == PETAL
    code[pm] = petals.CODE_PETAL_BASE + r.index[pm]

    def key(pts):
        return tuple(sorted((round(z.real * 1e4) / 1e4, round(z.imag * 1e4) / 1e4)
                            for z in pts))

    named = sorted(((key(pts), pts, radii) for _, pts, radii in basins.cycles),
                   key=lambda c: c[0])
    for i in np.flatnonzero(r.kind == BASIN).tolist():
        w = complex(petals._run_single(C, w0[i], n_max, region, basins,
                                       ESCAPE_RADIUS, True)[4][r.n_stop[i]])
        held = [c for c, (_, pts, radii) in enumerate(named)
                for z, s in zip(pts, radii)
                if (w - z).real ** 2 + (w - z).imag ** 2 < s * s]
        assert len(held) == 1, (i, w, held)
        code[i] = CODE_BASIN_BASE + held[0]
    return code.reshape(res, res), [c[0] for c in named]


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


def test_cycle_keys_round_half_to_even_with_positive_zeros():
    # x 10^4 is exactly 2.5, -2.5, 0.5 and 1234.5 for these doubles: rint
    # takes the even neighbor, where round(x, 4) rounds the true decimal
    # (0.12345 is a little above its tie); -0 keys read as 0
    key = petals._cycle_key([0.12345 - 0.5e-9j, 2.5e-4 - 2.5e-4j,
                             -0.5e-4 + 0.5e-4j])
    assert key == ((0.0, 0.0), (0.0002, -0.0002), (0.1234, 0.0))
    assert all(math.copysign(1.0, x) == 1.0 for pt in key for x in pt if x == 0)
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
    # g(w) = p + (w - p) / 2 attracts every start to p, and both
    # coordinates of p sit on a 4-decimal tie (x 10^4 is exactly 1234.5
    # and -1234.5): both key to the even neighbor, as the plain-Python
    # reference keys them, and the grid is one cell
    p = 0.12345 - 0.12345j
    F = sd.ConstantVerticalMap([0.5 * p, 0.5])
    grid = (p.real - 0.1, p.real + 0.1, p.imag - 0.1, p.imag + 0.1, 12)
    code, cycles = _per_pixel_slice(F, 0.0, grid, 400)
    g = sd.fatou_slice(F, 0.0, grid, n_max=400)
    assert np.array_equal(g.code, code) and g.cycles == cycles
    assert np.all(code == CODE_BASIN_BASE)
    assert cycles == [((0.1234, -0.1234),)]


@pytest.mark.parametrize("m", [0.5, 0.99])
def test_fixed_point_on_a_rounding_tie_is_one_cycle(m):
    # g(w) = p + m (w - p); p's real part sits between the keys -1 and -0
    # (x 10^4 = -0.5): pixels settle on both sides of the tie, yet the
    # cycle is named once, by the key of its polished point, also under
    # the weak contraction m = 0.99; a single orbit names it alike
    p = -0.00005 - 0.00004j
    F = sd.ConstantVerticalMap([(1 - m) * p, m])
    g = sd.fatou_slice(F, 0.0, (p.real - 0.1, p.real + 0.1, -0.1, 0.1, 5),
                       n_max=5000)
    assert np.unique(g.code).tolist() == [CODE_BASIN_BASE]
    rep = sd.iterate_orbit(F, 0, 0.05, 5000).cycle_representative
    assert abs(rep - p) < 1e-15
    assert g.cycles == [((round(rep.real * 1e4) / 1e4,
                          round(rep.imag * 1e4) / 1e4),)]
    assert g.cycles[0] in (((-0.0001, 0.0),), ((0.0, 0.0),))


@pytest.mark.parametrize("x0, cells", [(0.01, 21), (0.12345, 22)])
def test_tie_merge_keeps_the_cells_of_a_dense_grid(x0, cells):
    # a 300 x 300 grid with spacing 6.7e-6 (1/15 of a key unit) spans
    # 21^2 key cells at x0 = 0.01; at 0.12345 its first row and column sit
    # on a tie, and it spans 22^2.  Under g(w) = p + (w - p) / 2, p at the
    # grid's center, every pixel settles in the disk of p, and the cycle is
    # named once, by the key of its polished point, however many key cells
    # the pixels span
    h = 6.7e-6
    p = complex(x0 + 150 * h, x0 + 150 * h)
    g = sd.fatou_slice(sd.ConstantVerticalMap([0.5 * p, 0.5]), 0.0,
                       (x0, x0 + 299 * h, x0, x0 + 299 * h, 300), n_max=200)
    assert len(set(np.rint(g.re * 1e4).tolist())) == cells
    assert g.verdict_counts()["basin"] == 300 * 300
    assert g.cycles == [petals._cycle_key([p])]
    assert np.array_equal(np.unique(g.code), [CODE_BASIN_BASE])


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
    # the basin search and the engine give the same results on the one-row
    # view and on the schedule with every row stored (the certificates read
    # no schedule)
    F, z0 = _fixed_fiber_cases(golden)[name]
    n_max = 300
    view, region, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
    full = np.array(view)
    assert full.strides[0] != 0
    assert (region is None) == (name in ("basin", "constant"))
    assert basins == petals._basin_disks(F, 0.0, full, region, ESCAPE_RADIUS)
    assert bool(basins.cycles) == (name in ("basin", "constant"))
    axis = np.linspace(-1.2, 1.2, 16)
    w0 = (axis[np.newaxis, :] + 1j * axis[:, np.newaxis]).ravel()
    a = petals._run_engine(view, w0, n_max, region, basins, ESCAPE_RADIUS)
    b = petals._run_engine(full, w0, n_max, region, basins, ESCAPE_RADIUS)
    assert [_bits(x) for x in a] == [_bits(x) for x in b]
    for i in (0, 37, 100, 255):
        for stop_at_verdict in (True, False):
            x = petals._run_single(view, w0[i], n_max, region, basins,
                                   ESCAPE_RADIUS, stop_at_verdict)
            y = petals._run_single(full, w0[i], n_max, region, basins,
                                   ESCAPE_RADIUS, stop_at_verdict)
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
    C, region, _ = petals._setup(F, z0, 24, ESCAPE_RADIUS)
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
        assert petals._setup(F, z0, 50, ESCAPE_RADIUS)[1] is None
    # the same fibers at z0 = 0 are certified where the map is parabolic
    for F, _ in cases[:3]:
        assert petals._setup(F, 0, 50, ESCAPE_RADIUS)[1]
    # the benchmark's parabolic germ w + w^2 gets rho from eps = r/(1 - r)
    F = sd.ConstantVerticalMap([0, 1, 1])
    region = petals._setup(F, 0, 50, ESCAPE_RADIUS)[1]
    assert region.rho == pytest.approx(0.49 / 1.49, rel=1e-12)


def _gate_verdicts(F, z0, starts, n_max, ws):
    """(old, new) verdict tuples of each start: the retired streak and
    cycle rules by the plain-Python walks on its trajectory ws[:, i], and
    the engine."""
    C, region, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
    k, lead = petals._parabolic_data(F)
    base = sd.directions_for_jet(lead, k) if k else 0.0
    eng = petals._run_engine(C, np.asarray(starts), n_max, region, basins,
                             ESCAPE_RADIUS)
    out = []
    for i in range(len(starts)):
        traj = ws[:, i]
        esc = np.flatnonzero(~(np.abs(traj) <= ESCAPE_RADIUS))
        traj = traj[:esc[0] + 1] if len(esc) else traj
        streak = _streak_walk(traj, k, base)[0] if k else None
        old = _reference_verdict(traj, None, NO_BASINS, petal=streak,
                                 basin=_cycle_walk(traj))
        if len(esc) == 0 or old[2] < esc[0]:
            old = old if old[0] != UNDECIDED else (UNDECIDED, -1, n_max, 0)
        new = _fields(eng, i, basins)
        out.append((old, new))
    return out


def _assert_gate(pairs):
    for old, new in pairs:
        if old[0] == PETAL:
            assert new[:2] == old[:2], (old, new)
        elif old[0] == ESCAPE:
            assert new == old, (old, new)
        elif old[0] == BASIN:
            # certified no later, at a period that divides the retired one
            assert new[0] == BASIN and new[2] <= old[2], (old, new)
            assert old[3] % new[3] == 0, (old, new)
        else:
            assert new[0] != ESCAPE, (old, new)


@pytest.mark.parametrize("name", ["petal_k1", "petal_k2", "petal_k3",
                                  "parabolic_w_plus_w2", "basin_period1",
                                  "basin_period2", "basin_period3", "siegel",
                                  "slow_rotation", "moving_fiber"])
def test_region_rule_keeps_every_streak_petal_on_the_corpus(golden, name):
    # the retired 50-step streak rule and cycle heuristic as the gate: every
    # start the streak labels a petal is certified petal with the same
    # direction, no escape verdict or step moves, and every basin of the
    # heuristic is a certified basin, no later, at a dividing period
    corpus = _differential_corpus(golden)
    F, z0, radius, pinned, n_big, expect = corpus[name]
    rng = np.random.default_rng([13, list(corpus).index(name)])
    seeded = (radius * np.sqrt(rng.random(8))
              * np.exp(2j * np.pi * rng.random(8)))
    starts = [complex(w) for w in pinned] + seeded.tolist() + [2e6]
    C = petals._coeff_matrix(F, z0, n_big)
    ws = np.stack([petals._run_single(C, w0, n_big, None, NO_BASINS,
                                      ESCAPE_RADIUS, False)[4]
                   for w0 in starts], axis=1)
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


# -- the certified basin disks -----------------------------------------------------

def _oracle_maps(golden):
    """name -> (map, z0, n_max, period) of the maps whose rows certify one
    attracting cycle: w^2, w^2 - 1, the period-3 rabbit, the slow rotation
    0.9999 lam w + w^2, and the moving period-2 map w^2 - 1 + 0.5 z w (w +
    1), whose rows all keep {0, -1} while they differ."""
    corpus = _differential_corpus(golden)
    moving = list(_bench_shaped_slices(golden, 31))[3]
    return {
        "w2": (*corpus["basin_period1"][:2], 200, 1),
        "w2_minus_1": (*corpus["basin_period2"][:2], 200, 2),
        "rabbit": (*corpus["basin_period3"][:2], 200, 3),
        "slow_rotation": (*corpus["slow_rotation"][:2], 200, 1),
        "moving_period2": (*moving[:2], 100, 2),
    }


ORACLE_MAPS = ["w2", "w2_minus_1", "rabbit", "slow_rotation", "moving_period2"]


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_basin_disks_map_into_each_other_at_50_digits(golden, name):
    # 64 points on the boundary of each disk D(z_i, r_i), stepped at 50
    # digits by every row of the schedule, land strictly inside the next
    # disk D(z_{i+1}, r_{i+1}), the first one for the last disk; no radius
    # exceeds BASIN_RADIUS
    mpmath = pytest.importorskip("mpmath")
    F, z0, n_max, period = _oracle_maps(golden)[name]
    C, _, basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)
    assert len(basins.cycles) == 1
    _, pts, radii = basins.cycles[0]
    assert len(pts) == period
    assert all(0 < r <= petals.BASIN_RADIUS for r in radii)
    rows = petals._distinct_rows(C).tolist()
    assert len(rows) == (1 if z0 == 0 else n_max + 1)
    with mpmath.workdps(50):
        rows = [[mpmath.mpc(c) for c in row[::-1]] for row in rows]
        for i, (z, r) in enumerate(zip(pts, radii)):
            nxt = mpmath.mpc(pts[(i + 1) % period])
            r1 = mpmath.mpf(radii[(i + 1) % period])
            for t in range(64):
                w = mpmath.mpc(z) + r * mpmath.expjpi(mpmath.mpf(t) / 32)
                for row in rows:
                    assert abs(mpmath.polyval(row, w) - nxt) < r1, (i, t)


def test_certificates_do_not_depend_on_n_max(golden):
    # both certificates read the map over the fiber circle, not the rows of
    # the schedule, so a longer run on a moving fiber certifies the same
    # disks and wedges, bit for bit
    F, z0 = _oracle_maps(golden)["moving_period2"][:2]
    disks = [petals._setup(F, z0, n, ESCAPE_RADIUS)[2] for n in (100, 10_000)]
    assert disks[0].cycles and disks[0] == disks[1]
    for name in ("moving_fiber", "b_and_z_tail"):
        F, z0 = _region_cases(golden)[name]
        wedges = [petals._setup(F, z0, n, ESCAPE_RADIUS)[1]
                  for n in (24, 10 ** 5)]
        assert wedges[0] is not None and wedges[0] == wedges[1], name


def _disk_table(names):
    """The centers and radii of the certified disks of the named oracle
    maps, as bytes."""
    golden = sd.RotationNumber.from_surd(-1, 1, 5, 2)
    out = []
    for name in names:
        F, z0, n_max, _ = _oracle_maps(golden)[name]
        basins = petals._setup(F, z0, n_max, ESCAPE_RADIUS)[2]
        for _, pts, radii in basins.cycles:
            out.append((_bits(pts), np.array(radii).tobytes()))
    return out


@pytest.mark.skipif(not dispatches_x86_v3(),
                    reason="numpy dispatches no X86_V3 (AVX2 + FMA3) loops on "
                           "this CPU, so there is no second dispatch to compare")
def test_basin_disks_do_not_depend_on_the_numpy_dispatch():
    # the certificate's Taylor shift rounds every operation on its own, so
    # a process without numpy's fused loops builds the same disks, bit for
    # bit
    assert (_in_baseline_dispatch("_disk_table(test_petals.ORACLE_MAPS)")
            == _disk_table(ORACLE_MAPS))


def _in_baseline_dispatch(call: str):
    """test_petals.<call> evaluated in a process whose numpy dispatches only
    its baseline loops (no fused complex products)."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import pickle, "
            "test_petals; sys.stdout.buffer.write(pickle.dumps("
            f"test_petals.{call}))")
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", code, str(here), str(here.parent / "src")],
        capture_output=True, env=dict(
            os.environ,
            NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4 X86_V3"))
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


@pytest.mark.parametrize("g", [[0, 1, 0, 0, -1],                  # w - w^4
                               [0.3, 1, 0.2j, 0, -0.5, 0.1],     # a quintic
                               [0.1, 0, 0, 1]])                  # w^3 + 0.1
def test_roots_of_critical_points_match_mpmath(g):
    # _roots on g' (the critical points of critical_orbit_check and of
    # _basin_disks) against mpmath's roots at 50 digits, each within 1e-12;
    # g' = 3 w^2 of w^3 + 0.1 has a double root
    mpmath = pytest.importorskip("mpmath")
    deriv = [j * complex(g[j]) for j in range(1, len(g))]
    got = petals._roots(deriv)
    assert len(got) == len(deriv) - 1
    with mpmath.workdps(50):
        left = mpmath.polyroots([mpmath.mpc(c) for c in deriv[::-1]],
                                maxsteps=400, extraprec=400)
        for z in got:
            gap = [abs(mpmath.mpc(z) - x) for x in left]
            i = gap.index(min(gap))
            assert gap[i] < 1e-12, (z, left)
            left.pop(i)


def test_critical_orbits_are_sized_by_blocks():
    # the benchmark's hypotheses-w4 call: three critical orbits that settle
    # at once at n_max 20000 allocate block-sized records, not 480 KB each
    sd.critical_orbit_check([0, 1, 0, 0, -1], 20000)  # warm
    tracemalloc.start()
    try:
        rep = sd.critical_orbit_check([0, 1, 0, 0, -1], 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.verdict.kind for r in rep.reports] == [PETAL] * 3
    assert peak <= 100_000, peak
