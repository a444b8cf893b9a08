import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyn as sd
from skewdyn.errors import TruncationMismatchError
from skewdyn.series import TruncatedSeries as TS
from skewdyn.series import (_cmul, _normalize, _wpoly_compose, _wpoly_zero,
                             series_from_triples)

from conftest import (inverse_change, random_parabolic_germ, random_series_coeffs,
                      residual_invariant_curve)

small_c = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                             allow_infinity=False)


def series_strategy(n):
    return st.lists(small_c, min_size=n + 1, max_size=n + 1).map(
        lambda v: TS.from_list(v, n))


# -- ring operations --------------------------------------------------------

def test_mul_examples():
    s = TS.from_list([1, 1], 2)
    t = TS.from_list([1, -1], 2)
    assert (s * t).to_complex_list() == [1, 0, -1]
    z = TS.zero(2)
    assert (s * z).is_zero()
    cube = TS.from_list([1, 1], 3).pow(3)
    assert cube.to_complex_list() == [1, 3, 3, 1]


def test_truncation_mismatch():
    with pytest.raises(TruncationMismatchError):
        TS.one(3) + TS.one(4)
    with pytest.raises(TruncationMismatchError):
        TS.one(3) * TS.one(4)


@settings(max_examples=25, deadline=None)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_ring_axioms(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.approx_eq(rhs, 1e-12)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.approx_eq(rhs, 1e-12)


def test_reciprocal():
    s = TS.from_list([2, 1, -0.5], 6)
    assert (s * s.reciprocal()).approx_eq(TS.one(6), 1e-13)
    with pytest.raises(ZeroDivisionError):
        TS.identity(4).reciprocal()


def test_reciprocal_subnormal_sum():
    # r_3 = -(2 r_2 + 2 r_1 + 2^-1050 r_0) = -(4 - 4 + 2^-1050): the aligned
    # sum lands below the normal double range before it is renormalized
    r = TS([1.0, 2.0, 2.0, 2.0 ** -1050]).reciprocal()
    assert r.to_complex_list()[:3] == [1, -2, 2]
    assert r.mant[3] == -1 and r.exp2[3] == -1050
    assert r[3] == -(2.0 ** -1050)


def test_normalize_keeps_every_other_entry():
    # a sum below 2^-1022 takes its own path; neighbours keep their bits,
    # signed zeros included
    m = np.array([3 + 0j, -1j, 2.0 ** -1070 + 0j, 0j])
    e = np.array([0, 5, 0, 7])
    got_m, got_e = _normalize(m, e)
    assert got_m.tolist() == [1.5, -1j, 1, 0]
    assert got_e.tolist() == [1, 5, -1070, 0]
    assert np.signbit(got_m[1].real) == np.signbit((m[1] * 1.0).real)


def test_cmul_rounds_as_cpython():
    # equal to CPython's scalar product entry by entry, whatever loops numpy
    # dispatches, broadcast over rows and with a scalar factor
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    c = complex(0.3, -1.7)
    assert _cmul(a, b).tolist() == [[x * y for x, y in zip(row, b.tolist())]
                                    for row in a.tolist()]
    assert _cmul(a[0], c).tolist() == [x * c for x in a[0].tolist()]


def test_constructor_normalizes_each_value():
    s = TS([3.0, -0.75j, 2.0 ** -1050, 0])
    assert np.abs(s.mant[:3]).tolist() == [1.5, 1.5, 1.0]
    assert s.exp2.tolist() == [1, -1, -1050, 0]
    assert s.to_complex_list() == [3.0, -0.75j, 2.0 ** -1050, 0]
    # a zero real part takes the sign of the array kernels' complex product
    z = TS([complex(-0.0, -1.0), complex(-0.0, 1.0)])
    assert [math.copysign(1, m.real) for m in z.mant] == [1, -1]


def test_view_reads_only_its_coefficient():
    # the range rule of to_complex_list, applied to one coefficient: a huge
    # neighbour does not stop s[n] from reading a small one
    s = series_from_triples([[1.0, 0.0, 2000], [1.5, 0.5, -3], [1.0, 0.0, -1100]], 2)
    assert s[1] == (1.5 + 0.5j) / 8
    assert s[2] == 0
    with pytest.raises(OverflowError):
        s[0]
    with pytest.raises(OverflowError):
        s.to_complex_list()


# -- rotation substitution ---------------------------------------------------

def test_rotate(golden):
    s = TS.from_list([0.3, -1.5, 2j], 4)
    assert sd.rotate(s, golden, 0) is s
    const = TS.constant(4.2, 5)
    assert sd.rotate(const, golden, 1).approx_eq(const, 1e-15)
    z = TS.identity(3)
    r = sd.rotate(z, golden, 1)
    lam = sd.lam_power(golden, 1)
    assert abs(r[1] - lam) < 1e-15
    assert abs(abs(r[1]) - 1.0) < 1e-15
    # rotate twice forward, twice back
    back = sd.rotate(sd.rotate(s, golden, 2), golden, -2)
    assert back.approx_eq(s, 1e-13)


# -- reversion ---------------------------------------------------------------

def test_reversion_identity_for_zero():
    rev = sd.reversion_in_w(TS.zero(3), 2, 6)
    assert rev[1].approx_eq(TS.one(3), 1e-15)
    assert all(rev[i].is_zero() for i in (0, 2, 3, 4, 5, 6))


def test_reversion_constant_example():
    c = 0.37 - 0.21j
    rev = sd.reversion_in_w(TS.constant(c, 2), 1, 3)
    assert rev[1].to_complex_list()[0] == pytest.approx(1)
    assert rev[2].to_complex_list()[0] == pytest.approx(-c)
    assert rev[3].to_complex_list()[0] == pytest.approx(2 * c * c)


@pytest.mark.parametrize("k,dw", [(1, 6), (2, 8), (3, 10)])
def test_reversion_round_trip(golden, k, dw):
    rng = np.random.default_rng(11 + k)
    n = 6
    h = TS.from_list(random_series_coeffs(rng, n, 0.4), n)
    rev = sd.reversion_in_w(h, k, dw)
    assert rev[k + 1].approx_eq(-h, 1e-12)
    fwd = _wpoly_zero(n, dw)
    fwd[1] = TS.one(n)
    fwd[k + 1] = h
    comp = _wpoly_compose(fwd, rev, dw)
    assert comp[1].approx_eq(TS.one(n), 1e-9)
    for i in (0, *range(2, dw + 1)):
        assert 2.0 ** comp[i].max_abs_log2() < 1e-9


def test_reversion_at_high_w_order_matches_the_closed_form():
    # the w^600 constant C(1198, 599)/600 ~ 2^1191 leaves the double range
    h0 = 0.7 + 0.2j
    rev = sd.reversion_in_w(TS.from_list([h0, 0.3, 0.1], 3), 1, 600)
    with mpmath.workprec(200):
        want = -mpmath.binomial(1198, 599) / 600 * mpmath.mpc(h0) ** 599
        got = mpmath.mpc(complex(rev[600].mant[0])) * mpmath.mpf(2) ** int(rev[600].exp2[0])
        assert abs(got / want - 1) < 1e-12


# -- conjugation -------------------------------------------------------------

def test_conjugate_shift_zero_is_identity(golden):
    F = random_parabolic_germ(golden, 6, 4, seed=3)
    G = sd.conjugate(F, sd.Shift(TS.zero(6)))
    assert G.approx_eq(F, 1e-12)


def test_conjugate_constant_gauge_fixes_linear_germ(golden):
    # z-constant gauges commute with the rotation, so the linear germ is
    # invariant under them (z-dependent gauges shear it by psi(z)/psi(lam z))
    n = 5
    F = sd.SkewGerm.from_coeffs(golden, [[0], [1]], n, 3)
    G = sd.conjugate(F, sd.Gauge(TS.constant(0.7 - 0.2j, n)))
    assert G.approx_eq(F, 1e-12)


def test_conjugate_wscale_example(golden):
    F = sd.SkewGerm.from_coeffs(golden, [[0], [1], [1]], 4, 4)
    G = sd.conjugate(F, sd.WScale(-1))
    assert G.a[1].to_complex_list()[0] == pytest.approx(1)
    assert G.a[2].to_complex_list()[0] == pytest.approx(-1)


@pytest.mark.parametrize("seed", [5, 6])
def test_conjugate_round_trips(golden, seed):
    # acceptance: Shift, Gauge, WScale invert exactly to 1e-9
    rng = np.random.default_rng(seed)
    n, dw = 8, 10
    F = random_parabolic_germ(golden, n, dw, seed=seed)
    changes = [
        sd.Shift(TS.from_list(random_series_coeffs(rng, n, 0.3), n)),
        sd.Gauge(TS.from_list(random_series_coeffs(rng, n, 0.3, const=0.2), n)),
        sd.WScale(0.5 + 1.2j),
    ]
    for ch in changes:
        G = sd.conjugate(sd.conjugate(F, ch), inverse_change(ch))
        assert G.approx_eq(F, 1e-9), f"round trip failed for {type(ch).__name__}"


def test_bump_has_no_exact_inverse():
    with pytest.raises(ValueError):
        inverse_change(sd.Bump(TS.zero(3), 1))


def test_gauge_invariant_validation():
    with pytest.raises(ValueError):
        sd.Gauge(TS.constant(-1.0, 3))
    with pytest.raises(ValueError):
        sd.WScale(0)


@pytest.mark.parametrize("make", [
    lambda: sd.Bump(TS.zero(3), 0),
    lambda: sd.ParabolicLocal(k=0),
    lambda: sd.RotationNumber("decimal", 0, 64),
    lambda: sd.RotationNumber("decimal", 2 ** 64, 64),
    lambda: sd.RotationNumber("decimal", -1, 64),
], ids=["bump-k0", "petal-k0", "rotation-0", "rotation-1", "rotation-neg"])
def test_validated_records_reject_bad_input(make):
    # the slotted records check their fields at construction, as the
    # dataclass __post_init__ checks they replace did
    with pytest.raises(ValueError):
        make()


# -- invariant-curve residual -----------------------------------------------

def test_residual_zero_cases(golden):
    F = sd.SkewGerm.from_coeffs(golden, [[0], [1]], 4, 2)
    assert residual_invariant_curve(F, TS.zero(4)).is_zero()


def test_residual_fiber_example(golden):
    lam = sd.lam_power(golden, 1)
    F = sd.SkewGerm.from_coeffs(golden, [[0, 1], [1, 1]], 1, 2)
    phi = TS.from_list([0, 1 / (lam - 1)], 1)
    r = residual_invariant_curve(F, phi)
    assert 2.0 ** r.max_abs_log2() < 1e-15


def test_residual_matches_pointwise_evaluation(golden):
    rng = np.random.default_rng(17)
    n = 10
    F = random_parabolic_germ(golden, n, 5, seed=23, degree=4)
    phi = TS.from_list(random_series_coeffs(rng, n, 0.3, const=0), n)
    res = residual_invariant_curve(F, phi)
    lam = sd.lam_power(golden, 1)

    def at(s, z):
        return np.polyval(s.to_complex_list()[::-1], z)

    for _ in range(20):
        z = 0.05 * (rng.random() + 1j * rng.random())
        direct = sum(at(F.a[j], z) * at(phi, z) ** j
                     for j in range(F.dw + 1)) - at(phi, lam * z)
        assert at(res, z) == pytest.approx(direct, rel=1e-9, abs=1e-12)


# -- serialization and retruncation ------------------------------------------

def test_germ_json_round_trip(golden):
    F = random_parabolic_germ(golden, 5, 4, seed=9)
    j = sd.germ_to_json(F)
    assert j["trunc"] == {"z": 5, "w": 4}
    G = sd.germ_from_json(j)
    assert G.d == F.d
    for s, t in zip(F.a, G.a):
        assert np.array_equal(s.mant, t.mant) and np.array_equal(s.exp2, t.exp2)
    with pytest.raises(ValueError):
        sd.germ_from_json({"rotation": {"kind": "surd"}})


def test_retruncate(golden):
    from skewdyn.series import retruncate
    F = random_parabolic_germ(golden, 5, 3, seed=4)
    G = retruncate(F, n=8, dw=6)
    assert G.n_trunc == 8 and G.dw == 6
    assert all(G.a[j].is_zero() for j in range(4, 7))  # new w-slots are zero
    H = retruncate(G, n=5, dw=3)
    assert H.approx_eq(F, 1e-15)


def test_parabolic_fiber_flag(golden):
    # the one parabolic-fiber rule lives in detect_parabolic_order
    F = sd.SkewGerm.from_coeffs(golden, [[0], [1], [0.3]], 3, 2)
    assert sd.detect_parabolic_order(F) == 1
    G = sd.SkewGerm.from_coeffs(golden, [[0.1], [1]], 3, 2)
    with pytest.raises(ValueError):
        sd.detect_parabolic_order(G)
