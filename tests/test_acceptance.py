"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Three sub-criteria pin divergence thresholds to the rotation with partial
quotients 2^(2^n) (depth 6).  That rotation is Brjuno, not Liouville: its
denominators q_n satisfy sum log(q_{n+1})/q_n < infinity, so the stated
thresholds (partial sum > 1e3 by K=5, exponent > 50, growth > 10) are
unreachable - by a factor of roughly a thousand, and independently of any
implementation because 512-bit fractions cap log(1/omega) at ~355.  Those
assertions are kept exactly as stated and marked strict-xfail; the intended
Brjuno-vs-divergent contrast is demonstrated in the regular suite with a
rotation whose second quotient is 2^400.
"""

import time

import mpmath
import numpy as np
import pytest

import skewdyn as sd
from skewdyn.petals import BASIN, PETAL
from skewdyn.series import TruncatedSeries as TS
from skewdyn.series import series_from_triples, series_to_triples

from conftest import (germ_from_coeffs, inverse_change, random_parabolic_germ,
                      random_series_coeffs, rel_defect, residual_invariant_curve)

GOLDEN = sd.RotationNumber.from_surd(-1, 1, 5, 2)


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1: functional-equation residuals ----------------------------------------

def test_criterion_1_stage_residuals():
    F = random_parabolic_germ(GOLDEN, 32, 6, seed=2024, degree=3, scale=0.3)
    times, residuals = {}, {}

    t0 = time.monotonic()
    phi = sd.solve_invariant_curve(F)
    times["curve"] = time.monotonic() - t0
    residuals["curve"] = rel_defect(residual_invariant_curve(F, phi),
                                    phi, *F.a)
    cur = sd.conjugate(F, sd.Shift(phi))

    t0 = time.monotonic()
    psi = sd.solve_linear_gauge(cur)
    times["gauge"] = time.monotonic() - t0
    cur = sd.conjugate(cur, sd.Gauge(psi))
    residuals["gauge"] = rel_defect(cur.a[1] - TS.one(32), psi, *cur.a)

    for order in (2, 3, 4):
        t0 = time.monotonic()
        xi = sd.solve_order_bump(cur, order - 1)
        times[f"bump{order}"] = time.monotonic() - t0
        cur = sd.conjugate(cur, sd.Bump(xi, order - 1))
        zdep = series_from_triples([[0.0, 0.0, 0]]
                                   + series_to_triples(cur.a[order])[1:], 32)
        residuals[f"bump{order}"] = rel_defect(zdep, xi, *cur.a)

    ok = all(r <= 1e-8 for r in residuals.values()) and \
        all(t < 1.0 for t in times.values())
    assert report("1", ok,
                  f"residuals {max(residuals.values()):.2e} (<=1e-8), "
                  f"slowest stage {max(times.values()):.2f}s (<1s)")


# -- 2: normalization pipeline end-to-end --------------------------------------

def test_criterion_2_pipeline_end_to_end():
    F = germ_from_coeffs(GOLDEN, [[0], [1], [1, 1], [0, 1]], 16, 8)
    nf, log = sd.normalize(F, 2)
    jet_ok = (abs(nf.jet[0] - 1) <= 1e-8 and abs(nf.jet[1]) <= 1e-8
              and abs(nf.jet[2]) <= 1e-8)
    zdep_ok = nf.z_dependence_defect() <= 1e-8
    tail_ok = nf.tail_defect() <= 1e-10
    replay_ok = log.replay(F).approx_eq(nf.germ, 1e-8)
    ok = jet_ok and zdep_ok and tail_ok and replay_ok
    assert report("2", ok,
                  f"jet {tuple(abs(c) for c in nf.jet)}, "
                  f"zdep {nf.z_dependence_defect():.1e} (<=1e-8), "
                  f"tail {nf.tail_defect():.1e} (<=1e-10), replay {replay_ok}")


# -- 3: Brjuno vs Liouville contrast ------------------------------------------

def test_criterion_3_golden_partial_sums_converge():
    t0 = time.monotonic()
    table = sd.divisor_table(GOLDEN, 2 ** 21)
    b10 = sd.brjuno_partial_sum(table, 10)
    b20 = sd.brjuno_partial_sum(table, 20)
    elapsed = time.monotonic() - t0
    ok = abs(b20 - b10) < 1e-2 and elapsed < 5.0
    assert report("3a", ok,
                  f"|B(20)-B(10)| = {abs(b20 - b10):.4f} (<0.01), "
                  f"{elapsed:.1f}s (<5s)")


@pytest.mark.xfail(strict=True,
                   reason="quotients 2^(2^n) form a Brjuno rotation: the "
                          "partial sum stays near 0.6 and the exponent near "
                          "0.5; thresholds 1e3/50 are unreachable (512-bit "
                          "fractions cap the sum below ~700 for any rotation)")
def test_criterion_3_liouville_divergence_thresholds():
    rot = sd.liouville_quotients(6, lambda n: 2 ** (2 ** n), frac_bits=512)
    table = sd.divisor_table(rot, 600)
    b5 = sd.brjuno_partial_sum(table, 5)
    cmax = sd.cremer_running_max(table, 500)
    ok = b5 > 1e3 and cmax > 50
    assert report("3b", ok,
                  f"B(5) = {b5:.3f} (required >1e3), "
                  f"running max = {cmax:.3f} (required >50)")


# -- 4: linear example ----------------------------------------------------------

def test_criterion_4_golden_recursion_vs_closed_form():
    col = sd.unit_column(GOLDEN, 200)
    pm, pe = sd.linear_example_phi(col, 0j)
    mp = mpmath.mp.clone()
    mp.prec = 200

    def value(m, e):   # m * 2^e exactly
        return mp.mpc(mp.ldexp(mp.mpf(m.real), e), mp.ldexp(mp.mpf(m.imag), e))

    prod = mp.mpc(1)
    worst = 0.0
    for n in range(1, 201):
        prod *= value(complex(col.mant[n]), int(col.exp2[n]))
        worst = max(worst, float(abs(value(complex(pm[n]), int(pe[n])) * prod - 1)))
    ok = worst <= 1e-10
    assert report("4a", ok, f"recursion vs telescoped defect {worst:.1e} (<=1e-10)")


@pytest.mark.xfail(strict=True,
                   reason="quotients 2^(2^n) are Brjuno-grade: the growth "
                          "exponent peaks near 0.23 for m <= 200, far below "
                          "the stated threshold 10")
def test_criterion_4_liouville_growth_threshold():
    rot = sd.liouville_quotients(6, lambda n: 2 ** (2 ** n), frac_bits=512)
    phis = sd.linear_example_phi(sd.unit_column(rot, 200), 0j)
    peak = float(sd.growth_profile(phis).running_max[200])
    ok = peak > 10
    assert report("4b", ok, f"max (1/m) log|phi_m| = {peak:.3f} (required >10)")


# -- 5: greedy construction ------------------------------------------------------

def test_criterion_5_greedy_bound_and_determinism():
    a = sd.greedy_quadratic(sd.unit_column(GOLDEN, 500))   # asserts the bound in-loop
    b = sd.greedy_quadratic(sd.unit_column(GOLDEN, 500))
    bound_ok = all(m >= -1.0 for m in a.numerator_log2[1:])
    det_ok = a.bits == b.bits
    ok = bound_ok and det_ok
    assert report("5a", ok,
                  f"min |a_n+S_n| = 2^{min(a.numerator_log2[1:]):.3f} (>=1/2), "
                  f"bit-identical reruns: {det_ok}")


@pytest.mark.xfail(strict=True,
                   reason="quotients 2^(2^n) are Brjuno-grade: the greedy "
                          "exponent at reachable denominators stays near 1.3, "
                          "below the stated threshold 10")
def test_criterion_5_liouville_denominator_growth():
    rot = sd.liouville_quotients(6, lambda n: 2 ** (2 ** n), frac_bits=512)
    res = sd.greedy_quadratic(sd.unit_column(rot, 500))
    prof = sd.growth_profile(res.phi)
    dens = [q for q in rot.convergent_denominators(8) if 2 <= q < 500]
    peak = max(float(prof.exponents[q]) for q in dens)
    ok = peak > 10
    assert report("5b", ok,
                  f"max (1/q) log|phi_q| over q in {dens} = {peak:.3f} "
                  f"(required >10)")


# -- 6: parabolic decay ------------------------------------------------------------

def test_criterion_6_parabolic_decay():
    details = []
    ok = True
    for k in (1, 2, 3):
        t0 = time.monotonic()
        orb = sd.iterate_orbit(sd.ParabolicLocal(k=k), 0, 0.1, 10 ** 4,
                               stop_at_verdict=False)
        elapsed = time.monotonic() - t0
        val = (10 ** 4) ** (1.0 / k) * abs(orb.ws[10 ** 4])
        target = k ** (-1.0 / k)
        in_bracket = 0.9 * target <= val <= 1.1 * target
        verdict_ok = orb.verdict == sd.Verdict(PETAL, 0)
        ok &= in_bracket and verdict_ok and elapsed < 1.0
        details.append(f"k={k}: n^(1/k)|w_n|={val:.4f} "
                       f"(in [{0.9 * target:.3f},{1.1 * target:.3f}]), "
                       f"{orb.verdict}, {elapsed:.2f}s")
    assert report("6", ok, "; ".join(details))


# -- 7: petal invariance and expansion ----------------------------------------------

def test_criterion_7_invariance_and_expansion():
    details = []
    ok = True
    for k in (1, 2):
        fwd = sd.forward_invariance_check(sd.ParabolicLocal(k=k), z_band=0.05,
                                          samples=10 ** 4, seed=20240)
        rep = sd.repelling_expansion_check(sd.ParabolicLocal(k=k),
                                           samples=10 ** 4, seed=20240)
        ok &= fwd.violations == 0 and rep.violations == 0 and rep.worst_margin > 1
        details.append(f"k={k}: fwd violations {fwd.violations}, "
                       f"min|g'| {rep.worst_margin:.6f}")
    assert report("7", ok, "; ".join(details))


# -- 8: bulging stability witness ------------------------------------------------------

def test_criterion_8_bulging_stability():
    F = germ_from_coeffs(GOLDEN, [[0], [1], [1], [0, 0.05]], 8, 3)
    grid = (-1.5, 0.5, -1.0, 1.0, 200)
    t0 = time.monotonic()
    g0 = sd.fatou_slice(F, 0.0, grid, n_max=1500)
    g1 = sd.fatou_slice(F, 1e-3, grid, n_max=1500)
    g0_threads = sd.fatou_slice(F, 0.0, grid, n_max=1500, threads=4)
    elapsed = time.monotonic() - t0
    agreement = float(np.mean(g0.code == g1.code))
    identical = (np.array_equal(g0.code, g0_threads.code)
                 and g0.to_ppm_text() == g0_threads.to_ppm_text())
    ok = agreement >= 0.99 and identical and elapsed < 30.0
    assert report("8", ok,
                  f"agreement {agreement:.4f} (>=0.99), byte-identical across "
                  f"thread counts: {identical}, {elapsed:.1f}s (<30s)")


# -- 9: hypothesis checker ----------------------------------------------------------------

def test_criterion_9_hypothesis_checker():
    sup = sd.critical_orbit_check([0, 0, 1], n_max=5000)
    par = sd.critical_orbit_check([0, 1, 1], n_max=5000)
    bas = sd.critical_orbit_check([-1, 0, 1], n_max=5000)
    sup_ok = sup.reports[0].verdict.kind == BASIN and sup.plausible
    par_ok = (par.reports[0].verdict.kind == PETAL
              and abs(par.reports[0].point + 0.5) < 1e-12 and par.plausible)
    bas_ok = (bas.reports[0].verdict.kind == BASIN
              and bas.reports[0].cycle_period == 2 and bas.plausible)
    ok = sup_ok and par_ok and bas_ok
    assert report("9", ok,
                  f"w^2: {sup.reports[0].verdict}; "
                  f"w+w^2 at -1/2: {par.reports[0].verdict}; "
                  f"w^2-1: {bas.reports[0].verdict} period "
                  f"{bas.reports[0].cycle_period}; all plausible: {ok}")


# -- 10: oracle round trips --------------------------------------------------------------

def test_criterion_10_round_trips():
    rng = np.random.default_rng(77)
    n, dw = 32, 10
    F = random_parabolic_germ(GOLDEN, n, dw, seed=404, scale=0.25)
    changes = [
        sd.Shift(TS.from_list(random_series_coeffs(rng, n, 0.25), n)),
        sd.Gauge(TS.from_list(random_series_coeffs(rng, n, 0.25, const=0.1), n)),
        sd.WScale(1.3 - 0.4j),
    ]
    conj_ok = all(
        sd.conjugate(sd.conjugate(F, ch), inverse_change(ch)).approx_eq(F, 1e-9)
        for ch in changes)

    h = TS.from_list(random_series_coeffs(rng, n, 0.4), n)
    from skewdyn.series import _wpoly_compose, _wpoly_zero
    rev = sd.reversion_in_w(h, 2, dw)
    fwd = _wpoly_zero(n, dw)
    fwd[1] = TS.one(n)
    fwd[3] = h
    comp = _wpoly_compose(fwd, rev, dw)
    scale = max(1.0, 2.0 ** h.max_abs_log2())
    defect = max(2.0 ** (comp[1] - TS.one(n)).max_abs_log2(),
                 max(2.0 ** comp[i].max_abs_log2()
                     for i in (0, *range(2, dw + 1))))
    rev_ok = defect / scale <= 1e-9
    ok = conj_ok and rev_ok
    assert report("10", ok,
                  f"conjugation round trips (Shift/Gauge/WScale): {conj_ok}; "
                  f"reversion round trip defect {defect / scale:.1e} (<=1e-9)")
