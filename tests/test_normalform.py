import cmath
import math

import mpmath
import numpy as np
import pytest

import skewdyn as sd
from skewdyn import normalform, petals
from skewdyn.errors import DegenerateDivisorError, LinearFiberError
from skewdyn.series import TruncatedSeries as TS
from skewdyn.series import series_from_triples, series_to_triples

from conftest import (germ_from_coeffs, is_zero, random_parabolic_germ,
                      random_series_coeffs, rel_defect, residual_invariant_curve)


# -- invariant curve ----------------------------------------------------------

def test_curve_zero_when_a0_zero(golden):
    F = germ_from_coeffs(golden, [[0], [1, 0.3], [0.2, 0.1]], 8, 3)
    phi = sd.solve_invariant_curve(F)
    assert is_zero(phi)


def test_curve_fiber_example(golden):
    lam = sd.lam_power(golden, 1)
    F = germ_from_coeffs(golden, [[0, 1], [1, 1]], 4, 2)
    phi = sd.solve_invariant_curve(F)
    assert phi[0] == 0
    assert phi[1] == pytest.approx(1 / (lam - 1), rel=1e-14)
    r = residual_invariant_curve(F, phi)
    assert rel_defect(r, phi) < 1e-13


def test_curve_random_degree3(golden):
    F = random_parabolic_germ(golden, 32, 6, seed=101)
    phi = sd.solve_invariant_curve(F)
    r = residual_invariant_curve(F, phi)
    assert rel_defect(r, phi, *F.a) < 1e-8


def test_curve_precondition(golden):
    F = germ_from_coeffs(golden, [[0.5], [1]], 4, 2)
    with pytest.raises(ValueError):
        sd.solve_invariant_curve(F)


def test_curve_degenerate_rotation():
    rot = sd.RotationNumber.from_decimal("0.5")
    F = germ_from_coeffs(rot, [[0, 1], [1], [0.2]], 4, 2)
    with pytest.raises(DegenerateDivisorError):
        sd.solve_invariant_curve(F)


def test_curve_growth_bounded_for_golden(golden):
    # Brjuno-type divisors keep (1/p) log |phi_p| bounded; the running max
    # stabilizes within the first half of the truncation
    F = random_parabolic_germ(golden, 48, 4, seed=77)
    phi = sd.solve_invariant_curve(F)
    m, e = phi.mant.tolist(), phi.exp2.tolist()
    exps = [(e[p] * math.log(2.0) + math.log(abs(m[p]))) / p
            for p in range(1, 49) if m[p] != 0]
    run = np.maximum.accumulate(exps)
    assert run[-1] < 2.0
    assert run[-1] <= run[len(run) // 2] + 0.5


# -- gauge ---------------------------------------------------------------------

def test_gauge_zero_for_constant_linear(golden):
    F = germ_from_coeffs(golden, [[0], [1], [0.5, 1]], 6, 2)
    assert is_zero(sd.solve_linear_gauge(F))


def test_gauge_first_coefficients(golden):
    lam = sd.lam_power(golden, 1)
    F = germ_from_coeffs(golden, [[0], [1, 1], [1]], 6, 2)
    psi = sd.solve_linear_gauge(F)
    psi1 = 1 / (lam - 1)
    assert psi[1] == pytest.approx(psi1, rel=1e-13)
    # abar = z: psi_2 = psi_1 / (lam^2 - 1)
    assert psi[2] == pytest.approx(psi1 / (lam ** 2 - 1), rel=1e-12)
    G = sd.conjugate(F, sd.Gauge(psi))
    defect = G.a[1] - TS.one(6)
    assert rel_defect(defect, psi, *G.a) < 1e-12


def test_gauge_random(golden):
    rng = np.random.default_rng(5)
    F = germ_from_coeffs(
        golden, [[0], random_series_coeffs(rng, 32, 0.3, const=1),
                 random_series_coeffs(rng, 32, 0.3)], 32, 3)
    psi = sd.solve_linear_gauge(F)
    G = sd.conjugate(F, sd.Gauge(psi))
    assert rel_defect(G.a[1] - TS.one(32), psi, *G.a) < 1e-8


# -- order bumps ---------------------------------------------------------------

def test_bump_zero_for_constant_alpha(golden):
    F = germ_from_coeffs(golden, [[0], [1], [0.7]], 6, 3)
    assert is_zero(sd.solve_order_bump(F, 1))


def test_bump_linear_alpha(golden):
    lam = sd.lam_power(golden, 1)
    c = 0.3 - 0.8j
    F = germ_from_coeffs(golden, [[0], [1], [1, c]], 8, 4)
    xi = sd.solve_order_bump(F, 1)
    assert xi[1] == pytest.approx(c / (lam - 1), rel=1e-13)
    G = sd.conjugate(F, sd.Bump(xi, 1))
    zdep = 2.0 ** G.a[2].max_abs_log2(1)
    assert zdep / max(1.0, 2.0 ** G.max_abs_log2()) < 1e-12
    assert G.a[2][0] == pytest.approx(1.0, rel=1e-12)


def test_bump_random_tail(golden):
    rng = np.random.default_rng(8)
    F = germ_from_coeffs(
        golden, [[0], [1], [1, *random_series_coeffs(rng, 15, 0.3)[:15]],
                 random_series_coeffs(rng, 16, 0.3)], 16, 4)
    xi = sd.solve_order_bump(F, 1)
    G = sd.conjugate(F, sd.Bump(xi, 1))
    zdep = 2.0 ** G.a[2].max_abs_log2(1)
    assert zdep / max(1.0, 2.0 ** G.max_abs_log2(), 2.0 ** xi.max_abs_log2()) < 1e-8


# -- the assembled pipeline -----------------------------------------------------

def test_normalize_already_normal(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1], [0.25]], 8, 6)
    nf, log = sd.normalize(F, 2)
    assert isinstance(log.changes[0], sd.Shift) and is_zero(log.changes[0].phi)
    assert isinstance(log.changes[1], sd.Gauge) and is_zero(log.changes[1].psi)
    for ch in log.changes[2:]:
        assert isinstance(ch, sd.Bump) and is_zero(ch.h)
    assert nf.germ.approx_eq(F, 1e-12)


def test_normalize_calls_do_not_share_a_change_list(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1, 1], [0, 1]], 8, 4)
    _, first = sd.normalize(F, 1)
    count = len(first.changes)
    _, second = sd.normalize(F, 1)
    assert first.changes is not second.changes
    assert len(first.changes) == len(second.changes) == count
    assert sd.ChangeLog(first.sigma).changes == []
    assert sd.ChangeLog(first.sigma).changes is not sd.ChangeLog(first.sigma).changes


def test_normalize_acceptance_example(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1, 1], [0, 1]], 16, 8)
    nf, log = sd.normalize(F, 2)
    assert nf.k == 1 and nf.h == 2
    assert nf.jet[0] == pytest.approx(1, abs=1e-8)
    assert abs(nf.jet[1]) < 1e-8 and abs(nf.jet[2]) < 1e-8
    assert nf.z_dependence_defect() < 1e-8
    assert nf.tail_defect() < 1e-10
    assert log.replay(F).approx_eq(nf.germ, 1e-8)
    assert sd.conjugacy_defect(F, log, nf.germ) <= 1e-12


def test_normalize_tail_constants_match_fiber(golden):
    F = random_parabolic_germ(golden, 12, 7, seed=55)
    nf, _ = sd.normalize(F, 1)
    assert nf.tail_defect() < 1e-10 * max(1.0, 2.0 ** nf.germ.max_abs_log2())


def test_normalize_divisor_isolation(golden):
    # z-independent coefficients: conjugacy is already normal, all solved
    # series vanish identically
    F = germ_from_coeffs(golden, [[0], [1], [0.4], [0.1], [0.05]], 10, 6)
    nf, log = sd.normalize(F, 2)
    assert is_zero(log.changes[0].phi)
    assert is_zero(log.changes[1].psi)
    assert all(is_zero(ch.h) for ch in log.changes[2:])


def test_normalize_linear_fiber_error(golden):
    F = germ_from_coeffs(golden, [[0], [1], [0, 0.5]], 6, 3)
    with pytest.raises(LinearFiberError):
        sd.normalize(F, 1)


def test_normalize_depth_validation(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1]], 6, 2)
    with pytest.raises(ValueError):
        sd.normalize(F, 1)  # needs D_w >= 3


@pytest.mark.parametrize("seed", range(5))
def test_normalize_random_germs_fuzz(golden, seed):
    rng = np.random.default_rng(900 + seed)
    degree = int(rng.integers(2, 5))
    F = random_parabolic_germ(golden, 10, 8, seed=900 + seed,
                              degree=degree, scale=0.25)
    # force a definite jet order so detection is stable
    k = int(rng.integers(1, 3))
    coeffs = [series_to_triples(s) for s in F.a]
    for j in range(2, k + 1):
        coeffs[j][0] = [0.0, 0.0, 0]
    coeffs[k + 1][0] = [0.5, 0.1, 0]
    F = sd.SkewGerm(golden, [series_from_triples(c, 10) for c in coeffs], d=F.d)
    nf, log = sd.normalize(F, min(2, F.dw - k - 1))
    assert nf.k == k
    scale = max(1.0, 2.0 ** nf.germ.max_abs_log2())
    assert nf.z_dependence_defect() / scale < 1e-9
    assert log.replay(F).approx_eq(nf.germ, 1e-8)
    assert sd.conjugacy_defect(F, log, nf.germ) <= 1e-12
    if nf.h >= nf.k:
        red = sd.reduce_parabolic_tail(nf, changelog=log)
        assert red.jet[0] == pytest.approx(-1, abs=1e-9)
        assert log.replay(F).approx_eq(red.germ, 1e-8)
        assert sd.conjugacy_defect(F, log, red.germ) <= 1e-12


def test_normalize_k2_cleans_low_orders(golden):
    # k = 2 germ with a z-dependent w^2 coefficient vanishing at z = 0:
    # the target form has no w^2 term at all
    F = germ_from_coeffs(golden, [[0], [1], [0, 0.5], [1], [0, 0.2]], 12, 8)
    nf, log = sd.normalize(F, 2)
    assert nf.k == 2
    scale = max(1.0, 2.0 ** nf.germ.max_abs_log2())
    w2 = nf.germ.a[2]
    assert 2.0 ** w2.max_abs_log2() / scale < 1e-10
    assert nf.jet[0] == pytest.approx(1, abs=1e-10)
    assert log.replay(F).approx_eq(nf.germ, 1e-8)
    assert sd.conjugacy_defect(F, log, nf.germ) <= 1e-12


# -- parabolic reduction ---------------------------------------------------------

def test_reduce_identity_case(golden):
    F = germ_from_coeffs(golden, [[0], [1], [-1]], 8, 4)
    nf, log = sd.normalize(F, 1)
    red = sd.reduce_parabolic_tail(nf, changelog=log)
    assert red.jet[0] == pytest.approx(-1, abs=1e-12)
    assert red.b == pytest.approx(0, abs=1e-12)
    assert log.replay(F).approx_eq(red.germ, 1e-9)
    assert sd.conjugacy_defect(F, log, red.germ) <= 1e-12


def test_reduce_flips_sign(golden):
    F = germ_from_coeffs(golden, [[0], [1], [1]], 8, 4)
    nf, _ = sd.normalize(F, 1)
    red = sd.reduce_parabolic_tail(nf)
    assert red.jet[0] == pytest.approx(-1, abs=1e-12)


def test_reduce_keeps_resonant_index(golden):
    a = 0.37 + 0.11j
    F = germ_from_coeffs(golden, [[0], [1], [-1], [a]], 8, 5)
    nf, _ = sd.normalize(F, 2)
    red = sd.reduce_parabolic_tail(nf)
    # jet spans orders k+1..2k+1 = 2..3 for k = 1: (-1, b)
    assert red.b == pytest.approx(a, abs=1e-10)
    assert red.jet[0] == pytest.approx(-1, abs=1e-12)
    assert red.jet[-1] == pytest.approx(a, abs=1e-10)


def test_reduce_k2_eliminates_between_orders(golden):
    # k = 2: order 4 must vanish, order 5 carries the invariant
    F = germ_from_coeffs(golden, [[0], [1], [0], [1], [0.4], [0.2]], 10, 8)
    nf, log = sd.normalize(F, 2)
    assert nf.k == 2
    red = sd.reduce_parabolic_tail(nf, changelog=log)
    assert red.jet[0] == pytest.approx(-1, abs=1e-10)
    assert abs(red.jet[1]) < 1e-10          # w^4 eliminated
    assert red.b is not None
    assert log.replay(F).approx_eq(red.germ, 1e-8)
    assert sd.conjugacy_defect(F, log, red.germ) <= 1e-12


def test_reduce_requires_depth(golden):
    F = germ_from_coeffs(golden, [[0], [1], [0], [1], [0.4], [0.2]], 8, 8)
    nf, _ = sd.normalize(F, 1)  # h = 1 < k = 2
    with pytest.raises(ValueError):
        sd.reduce_parabolic_tail(nf)


@pytest.mark.parametrize("g1, top", [(1e-50, 1e-300), (1e50, 1e50)])
def test_reduce_scale_beyond_double_range(golden, g1, top):
    # c = -1/g1 and c^7 = 1e+-350 leave double range; the coefficients
    # a_j c^{j-1} of the reduced germ do not
    F = germ_from_coeffs(golden, [[0], [1], [g1], [g1]] + [[0]] * 4 + [[top]], 6, 8)
    nf, _ = sd.normalize(F, 1)
    assert nf.k == 1
    red = sd.reduce_parabolic_tail(nf)
    c = -1 / mpmath.mpf(g1)
    for j, a in enumerate([0, 1, g1, g1, 0, 0, 0, 0, top]):
        want = complex(a * c ** (j - 1))
        assert red.germ.a[j].to_complex_list() == pytest.approx(
            [want] + [0] * 6, rel=1e-12, abs=0), j


# -- the change-log oracle --------------------------------------------------------

def _benchmark_germ(rot, k, seed):
    """The normal-form benchmark's germ of order k at `seed`, with its
    depth: degree k+2, seeded complex Gaussian z-coefficients times 0.3,
    a_0(0) = 0, a_1(0) = 1, a_2..a_k vanishing at z = 0, and a_{k+1}(0),
    a_{k+2}(0) at least 0.1 in modulus."""
    rng = np.random.default_rng([seed, 1])
    for order, h, n in ((1, 3, 14), (2, 2, 12)):
        dw, deg = 8, order + 2
        c = np.zeros((dw + 1, n + 1), complex)
        c[:deg + 1] = (rng.standard_normal((deg + 1, n + 1))
                       + 1j * rng.standard_normal((deg + 1, n + 1))) * 0.3
        c[0, 0], c[1, 0] = 0, 1
        c[2:order + 1, 0] = 0
        for j in (order + 1, order + 2):
            if abs(c[j, 0]) < 0.1:
                c[j, 0] = 0.1 * cmath.exp(1j * cmath.phase(c[j, 0] or 1))
        rng.random(16), rng.random(16)   # the benchmark's sample points
        if order == k:
            return germ_from_coeffs(rot, c.tolist(), n, dw, d=deg), h
    raise ValueError(f"no benchmark germ of order {k}")


def _is_identity(ch) -> bool:
    if isinstance(ch, sd.WScale):
        return ch.c == 1
    if isinstance(ch, sd.Bump):
        return is_zero(ch.h)
    return is_zero(ch.phi if isinstance(ch, sd.Shift) else ch.psi)


def _benchmark_logs(rot, k, seed):
    """F, and (log, G) for the log as normalize.json reports it and for the
    log after the parabolic reduction."""
    F, h = _benchmark_germ(rot, k, seed)
    nf, log = sd.normalize(F, h)
    reported = sd.ChangeLog(log.sigma, list(log.changes))
    red = sd.reduce_parabolic_tail(nf, changelog=log)
    return F, [(reported, nf.germ), (log, red.germ)]


@pytest.mark.parametrize("k", [1, 2])
def test_conjugacy_defect_sees_every_dropped_change(golden, k):
    # the reported log at every seed; the reduced log at seed 31 only, as
    # seed 7's reduced k = 2 log reads 3.9e-11 intact
    for seed in (31, 4242, 90210, 7):
        F, logs = _benchmark_logs(golden, k, seed)
        for log, G in logs if seed == 31 else logs[:1]:
            intact = sd.conjugacy_defect(F, log, G)
            assert intact <= 1e-12, seed
            changes = log.changes
            dropped = [i for i, ch in enumerate(changes)
                       if not _is_identity(ch)]
            assert len(dropped) >= len(changes) - 1
            for i in dropped:
                cut = sd.ChangeLog(log.sigma, changes[:i] + changes[i + 1:])
                defect = sd.conjugacy_defect(F, cut, G)
                assert defect >= 1e3 * intact, (seed, i, changes[i])


@pytest.mark.parametrize("k", [1, 2])
def test_conjugacy_defect_sees_a_small_error_in_the_shift(golden, k):
    # phi_1 of the logged shift off by a relative 1e-10; the defect must
    # read it far above the intact log's rounding (2.2e-16 to 6.1e-16)
    for seed in (31, 4242, 90210, 7):
        F, ((log, G), _) = _benchmark_logs(golden, k, seed)
        shift, *rest = log.changes
        phi = shift.phi.to_complex_list()
        phi[1] *= 1 + 1e-10
        bent = sd.Shift(sd.TruncatedSeries.from_list(phi, shift.phi.order))
        defect = sd.conjugacy_defect(F, sd.ChangeLog(log.sigma, [bent, *rest]), G)
        assert defect >= 1e-13, seed


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_conjugacy_defect_at_low_z_truncation(golden, n, seed):
    # rho keeps the truncation term |z|^(N+1) below 2^-53 at low N, where
    # a fixed |z| = 0.05 would report it
    F = random_parabolic_germ(golden, n, 6, seed=70 + seed)
    nf, log = sd.normalize(F, 2)
    assert sd.conjugacy_defect(F, log, nf.germ) <= 1e-12
    red = sd.reduce_parabolic_tail(nf, changelog=log)
    assert sd.conjugacy_defect(F, log, red.germ) <= 1e-12


def test_conjugacy_defect_overflow_is_inf(golden):
    # G's w^8 coefficient 1.7e308 z exceeds 2^1020: the oracle cannot read it
    F = germ_from_coeffs(golden, [[0], [1], [1]] + [[0]] * 5 + [[0, 1.7e308]],
                         6, 8)
    nf, log = sd.normalize(F, 2)
    assert sd.conjugacy_defect(F, log, nf.germ) == math.inf


# -- the parabolic-fiber rule at its tolerances ----------------------------------

_TOL, _CLIFF = normalform._PRE_TOL, normalform.JET_ZERO_RTOL
PARABOLIC_BOUNDARY = {  # case: (a_j(0) for j = 0, 1, ..., expected k or None)
    "k1": ([0, 1, 1], 1),
    "k2": ([0, 1, 0, 1], 2),
    "k3": ([0, 1, 0, 0, 1], 3),
    "identity_fiber": ([0, 1], None),
    "a0_half_tol": ([0.5 * _TOL, 1, 1], 1),
    "a0_twice_tol": ([2 * _TOL, 1, 1], None),
    "a1_half_tol": ([0, 1 + 0.5 * _TOL, 1], 1),
    "a1_twice_tol": ([0, 1 + 2 * _TOL, 1], None),
    "jet_half_cliff": ([0, 1, 0.5 * _CLIFF, 1], 2),
    "jet_twice_cliff": ([0, 1, 2 * _CLIFF, 1], 1),
}


@pytest.mark.parametrize("case", PARABOLIC_BOUNDARY)
def test_parabolic_rule_shared_by_normalize_and_orbit_engine(golden, case):
    # normalize and the orbit engine read one rule: both must call the same
    # fibers parabolic, with the same order
    fiber, expect = PARABOLIC_BOUNDARY[case]
    F = germ_from_coeffs(golden, [[c, 0.05] for c in fiber], 4, 5)
    try:
        got = sd.normalize(F, 1)[0].k
    except (ValueError, LinearFiberError):
        got = None
    assert got == expect
    k, _ = petals._parabolic_data(F)
    assert (k or None) == expect
