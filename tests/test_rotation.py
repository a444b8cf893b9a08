import cmath
import csv
import hashlib
import json
import math
import os
import tracemalloc
from array import array

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyn as sd
from skewdyn.cli import main
from skewdyn.errors import DegenerateDivisorError, PrecisionError

GOLDEN_THETA = 0.61803398874989484820458683436563811772
GOLDEN_2THETA_FRAC = 0.23606797749978969640917366873127623544
GOLDEN_OMEGA2 = 1.8640648476264552430680633373822093828  # 2 sin(pi theta)


def _omegas(t) -> list[float]:
    """omega(m) for m = 2..m_max."""
    return [t.omega(m) for m in range(2, t.m_max + 1)]


def test_golden_theta(golden):
    assert abs(golden.theta() - GOLDEN_THETA) < 1e-15
    assert golden.partial_quotients(10) == [1] * 10


def test_unit_column_basics(golden):
    col = sd.unit_column(golden, 4)
    assert col.lam[0] == 1
    assert col.mant[0] == 0 and col.exp2[0] == 0
    assert abs(col.lam[1] - cmath.exp(2j * math.pi * GOLDEN_THETA)) < 1e-15
    assert abs(col.lam[2] - cmath.exp(2j * math.pi * GOLDEN_2THETA_FRAC)) < 1e-15
    assert abs(sd.divisor_table(golden, 4).d1[1] - GOLDEN_OMEGA2) < 1e-14
    mags = np.abs(np.asarray(col.mant[1:]))
    assert np.all((1 <= mags) & (mags < 2))
    assert np.allclose(np.ldexp(1.0, np.asarray(col.exp2)) * np.asarray(col.mant),
                       np.asarray(col.lam) - 1,
                       rtol=0, atol=1e-15)


def test_unit_column_precision_rejection(tmp_path):
    rot = sd.RotationNumber.from_surd(-1, 1, 5, 2, frac_bits=96)
    with pytest.raises(PrecisionError):
        sd.unit_column(rot, 2 ** 33)
    # the recursions take the column, so the cremer command inherits the rule
    assert main(["cremer", "--rotation", json.dumps(sd.rotation_to_json(rot)),
                 "--m-max", str(2 ** 33), "--out", str(tmp_path / "o")]) == 4


def test_unit_column_rational_rotation():
    # lam^2 = 1 at theta = 1/2: the column stores the divisor as an exact
    # zero without raising, so powers of lam stay usable
    rot = sd.RotationNumber.from_decimal("0.5")
    col = sd.unit_column(rot, 4)
    d1 = sd.divisor_table(rot, 4, allow_degenerate=True).d1
    assert col.lam[2] == 1 and col.lam[4] == 1
    assert col.mant[2] == 0 and col.exp2[2] == 0 and d1[2] == 0
    assert abs(col.lam[1] + 1) < 1e-15 and abs(d1[1] - 2) < 1e-15
    z = sd.TruncatedSeries.identity(3)
    assert sd.rotate(z, rot, 2).approx_eq(z, 1e-15)


def test_divisor_table_golden(golden, golden_table):
    t = golden_table
    assert abs(t.d1[1] - GOLDEN_OMEGA2) < 1e-14
    assert abs(t.omega(2) - GOLDEN_OMEGA2) < 1e-14
    om = np.asarray(_omegas(t))
    assert np.all(np.diff(om) <= 0)
    assert np.all(om > 0) and np.all(om <= 2)
    # min |lam^k - 1| is the alternative gauge; for golden both stay comparable
    assert 0 < np.nanmin(t.d1[1:101]) <= t.omega(100) * 2


def test_divisor_table_rational_degenerate():
    rot = sd.RotationNumber.from_decimal("0.5")
    assert rot.possibly_rational
    with pytest.raises(DegenerateDivisorError):
        sd.divisor_table(rot, 4)
    t = sd.divisor_table(rot, 2, allow_degenerate=True)
    # |lam^2 - lam| = |1 - (-1)| = 2 at theta = 1/2
    assert t.d1[1] == pytest.approx(2.0, abs=1e-15)
    assert t.omega(2) == pytest.approx(2.0, abs=1e-15)
    assert t.d1[2] == 0.0 and 2 in t.degenerate_indices


def test_divisor_table_deterministic(golden):
    a = sd.divisor_table(golden, 500)
    b = sd.divisor_table(golden, 500)
    assert np.array_equal(a.d1[1:-1], b.d1[1:-1])
    assert np.array_equal(_omegas(a), _omegas(b))


def test_unit_circle_consistency(golden):
    # the column's sine route vs repeated unit-complex multiplication
    col = sd.unit_column(golden, 1000)
    d1 = sd.divisor_table(golden, 1000).d1
    lam = complex(col.lam[1])
    acc = 1 + 0j
    for k in range(1, 1001):
        acc *= lam
        assert abs(d1[k] - abs(acc - 1)) <= 1e-10 + k * 1e-15
        assert abs(col.lam[k] - acc) <= 1e-10 + k * 1e-15


def _theta_from_quotients(mp, quotients):
    """[0; a_1, ..., a_n, 1, 1, ...] in mpmath: the all-ones tail is phi."""
    v = (1 + mp.sqrt(5)) / 2
    for a in reversed(quotients):
        v = a + 1 / v
    return 1 / v


_RNG_QUOTIENTS = [int(a) for a in np.random.default_rng(20161).integers(1, 60, 12)]
ORACLE_CASES = {
    # name: (rotation, theta from its definition, k_max, indices checked)
    "golden-192": (lambda: sd.RotationNumber.from_surd(-1, 1, 5, 2),
                   lambda mp: (mp.sqrt(5) - 1) / 2,
                   2 ** 17, [1, 2, 3, 5, 55, 1000, 9506, 2 ** 17]),
    "cremer-512": (lambda: sd.RotationNumber.from_quotients([4, 2 ** 400], 512),
                   lambda mp: _theta_from_quotients(mp, [4, 2 ** 400]),
                   5000, [1, 2, 3, 4, 5, 8, 12, 4000, 5000]),
    "tiny-2048": (lambda: sd.RotationNumber.from_quotients([2 ** 1200], 2048),
                  lambda mp: _theta_from_quotients(mp, [2 ** 1200]),
                  40, [1, 2, 3, 7, 40]),
    "random-192": (lambda: sd.RotationNumber.from_quotients(_RNG_QUOTIENTS),
                   lambda mp: _theta_from_quotients(mp, _RNG_QUOTIENTS),
                   4096, [1, 2, 3, 10, 100, 777, 4096]),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_unit_column_matches_mpmath(case):
    make_rot, exact_theta, k_max, picks = ORACLE_CASES[case]
    rot = make_rot()
    col = sd.unit_column(rot, k_max)
    d1 = (sd.divisor_table(rot, k_max).d1
          if rot.frac_bits <= sd.rotation.MAX_TABLE_FRAC_BITS else None)
    rng = np.random.default_rng(7)
    ks = sorted(set(picks) | set(range(1, min(k_max, 64) + 1))
                | set(rng.integers(1, k_max + 1, 64).tolist()))
    mp = mpmath.mp.clone()
    mp.prec = 4 * rot.frac_bits
    theta = exact_theta(mp)
    tol = mp.mpf(2) ** -48
    for k in ks:
        lam = mp.expjpi(2 * k * theta)
        got = mp.mpc(complex(col.mant[k])) * mp.mpf(2) ** int(col.exp2[k])
        assert abs(got - (lam - 1)) <= tol * abs(lam - 1), k
        assert abs(mp.mpc(complex(col.lam[k])) - lam) <= tol, k
        if d1 is not None:
            assert abs(mp.mpf(float(d1[k])) - abs(lam - 1)) <= tol * abs(lam - 1), k
    if d1 is not None:  # at every k, the table's modulus is the column's |lam^k - 1|
        mod = np.abs(col.mant[1:]) * np.ldexp(1.0, col.exp2[1:])
        assert np.allclose(d1[1:], mod, rtol=2.0 ** -50, atol=0)


def test_brjuno_partial_sum_synthetic(golden):
    t = sd.divisor_table(golden, 256)
    flat = sd.DivisorTable(golden, 256, t.d1, [2], [2.0])
    for K in (0, 3, 6):
        expect = sum(2.0 ** -k for k in range(K + 1)) * math.log(0.5)
        assert sd.brjuno_partial_sum(flat, K) == pytest.approx(expect, rel=1e-14)
        assert expect < 0


def test_brjuno_partial_sum_golden_finite(golden_table):
    v = sd.brjuno_partial_sum(golden_table, 6)
    assert math.isfinite(v)
    with pytest.raises(ValueError):
        sd.brjuno_partial_sum(golden_table, 11)  # 2^12 > 2048


def test_brjuno_nondecreasing_when_small_omegas(golden):
    t = sd.divisor_table(golden, 256)
    small = sd.DivisorTable(golden, 256, t.d1, t.falls, [min(v, 0.9) for v in t.lows])
    sums = [sd.brjuno_partial_sum(small, K) for K in range(7)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_cremer_exponent(golden_table):
    flat = sd.DivisorTable(golden_table.rot, 64, golden_table.d1, [2], [1.0])
    assert sd.cremer_exponent(flat, 17) == 0.0
    m = sd.cremer_running_max(golden_table, 2048)
    assert 0 < m < 2  # bounded-type rotation


@pytest.mark.parametrize("case", ["golden-192", "cremer-512", "random-192"])
def test_cremer_running_max_matches_every_index(case):
    # reference: the exponent at every index, not only at the ends of the
    # runs of equal omega
    rot = ORACLE_CASES[case][0]()
    t = sd.divisor_table(rot, 5000)
    exps = [sd.cremer_exponent(t, i) for i in range(2, 5001)]
    for m in (2, 3, 4, 5, 17, 1000, 1024, 1025, 5000):
        assert sd.cremer_running_max(t, m) == max(exps[:m - 1]), m
    flat = sd.DivisorTable(rot, 64, t.d1[:65], [2], [3.0])
    assert sd.cremer_running_max(flat, 64) == -math.log(3.0) / 64


def test_cremer_running_max_is_the_largest_exponent():
    # -log(omega) and log(1/omega) can differ in the last bit: the running
    # maximum reads the exponent exactly as cremer_exponent (and the divisor
    # CSV) forms it, so it is the largest of its values
    t = sd.divisor_table(sd.RotationNumber.from_quotients([11]), 4096)
    want = max(sd.cremer_exponent(t, m) for m in range(2, 4097))
    assert sd.cremer_running_max(t, 4096) == want == 0.3134489691989203


def _bits(c) -> list[int]:
    return np.array([c], complex).view(np.uint64).tolist()


@pytest.mark.parametrize("case", ["golden-192", "cremer-512", "tiny-2048"])
def test_lam_power_reads_the_column(case):
    rot = ORACLE_CASES[case][0]()
    k_max = min(ORACLE_CASES[case][2], 5000)
    col = sd.unit_column(rot, k_max)
    for j in sorted({0, 1, 2, 3, 40, 1023, 1024, 1025, 2049, 4999, k_max}
                    & set(range(k_max + 1))):
        lam = sd.lam_power(rot, j)
        assert type(lam) is complex
        assert _bits(lam) == _bits(col.lam[j]), j
        if j:
            assert _bits(sd.lam_power(rot, -j)) == _bits(col.lam[j].conjugate()), j
    with pytest.raises(PrecisionError):
        sd.lam_power(sd.RotationNumber.from_surd(-1, 1, 5, 2, frac_bits=96), 2 ** 33)


# sha256 prefixes of the column's lam, mant, exp2 and of the table's defined
# d1[1:] and omega(2..m) entries, recorded when both were numpy arrays; the
# Python-float port must reproduce them bit for bit
COLUMN_PINS = {
    "golden-192": (4096, ["1418fce10d76ddde", "adec3876d5cd1c2d", "039adc579ab2d058",
                          "56c7bc7a93e0b4be", "26dc5fad2636c403"]),
    "cremer-512": (4096, ["e4300f6ae48bf95c", "595c3a11560b4112", "fcb1b8806ec8c7b9",
                          "0481d0ce04bc2d80", "28ebdb0f69a52992"]),
    "tiny-2048": (40, ["fa7054c41f48ec79", "5495e7dfb902c828", "b0b3a95644a6823b"]),
}
LAM_POWER_PINS = {  # lam^j for j = 1, -1, 5, -5, 1000
    "golden-192": [("-0x1.798869e0de834p-1", "-0x1.59d9dd253cc11p-1"),
                   ("-0x1.798869e0de834p-1", "0x1.59d9dd253cc11p-1"),
                   ("0x1.b000b1aa1798bp-1", "0x1.12ce04f1c06b7p-1"),
                   ("0x1.b000b1aa1798bp-1", "-0x1.12ce04f1c06b7p-1"),
                   ("0x1.f45e73906cc4bp-1", "0x1.b20c90d3e179cp-3")],
    "cremer-512": [("0x1.1a62633145c07p-54", "0x1.0000000000000p+0"),
                   ("0x1.1a62633145c07p-54", "-0x1.0000000000000p+0"),
                   ("0x1.1a62633145c07p-54", "0x1.0000000000000p+0"),
                   ("0x1.1a62633145c07p-54", "-0x1.0000000000000p+0"),
                   ("0x1.0000000000000p+0", "-0x1.1a62633145c07p-52")],
}


def _digest(values, dtype) -> str:
    return hashlib.sha256(np.asarray(values, dtype).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(COLUMN_PINS))
def test_unit_column_and_table_bits_are_pinned(case):
    rot = ORACLE_CASES[case][0]()
    m, pins = COLUMN_PINS[case]
    col = sd.unit_column(rot, m)
    got = [_digest(col.lam, complex), _digest(col.mant, complex),
           _digest(col.exp2, np.int64)]
    if rot.frac_bits <= sd.rotation.MAX_TABLE_FRAC_BITS:
        t = sd.divisor_table(rot, m)
        assert math.isnan(t.d1[0])
        got += [_digest(t.d1[1:], float), _digest(_omegas(t), float)]
    assert got == pins
    if case in LAM_POWER_PINS:
        lams = [sd.lam_power(rot, j) for j in (1, -1, 5, -5, 1000)]
        assert [(c.real.hex(), c.imag.hex()) for c in lams] == LAM_POWER_PINS[case]


def test_cremer_running_max_golden_10k(golden):
    t = sd.divisor_table(golden, 10 ** 4)
    assert sd.cremer_running_max(t, 10 ** 4) < 2


def test_liouville_quotients_all_ones_is_golden(golden):
    rot = sd.liouville_quotients(12, lambda n: 1, frac_bits=192)
    assert rot.numerator == golden.numerator


def test_liouville_quotients_doubly_exponential():
    rot = sd.liouville_quotients(6, lambda n: 2 ** (2 ** n), frac_bits=512)
    assert rot.partial_quotients(6) == [2 ** (2 ** n) for n in range(1, 7)]
    t = sd.divisor_table(rot, 600)
    assert math.isfinite(sd.cremer_running_max(t, 500))


def test_liouville_quotients_linear_growth_finite_sums():
    rot = sd.liouville_quotients(10, lambda n: n)
    t = sd.divisor_table(rot, 2 ** 7)
    for K in range(7):
        assert math.isfinite(sd.brjuno_partial_sum(t, K))


def test_liouville_quotients_validation():
    with pytest.raises(ValueError):
        sd.liouville_quotients(3, lambda n: 0)
    with pytest.raises(PrecisionError):
        sd.liouville_quotients(4, lambda n: 2 ** (10 ** 5))


def test_convergent_denominators(cremer_rotation):
    dens = cremer_rotation.convergent_denominators(2)
    assert dens[0] == 4 and dens[1] == 4 * 2 ** 400 + 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8))
def test_omega_monotone_for_random_quotients(quots):
    rot = sd.RotationNumber.from_quotients(quots)
    t = sd.divisor_table(rot, 128)
    om = np.asarray(_omegas(t))
    assert np.all(np.diff(om) <= 0)
    assert np.all(om > 0)


def _assert_omega_falls_at_convergents(rot, m_max):
    # the record lows of ||p theta|| sit at the convergent denominators q_n
    # (best approximations of the second kind), so omega(m), the minimum of
    # |lam^(k-1) - 1| up to k = m, falls exactly at m = q_n + 1.  The
    # quotients are read from the fixed-point value, all-ones tail included
    dens, qm2, qm1 = {1}, 0, 1
    for a in sd.rotation._quotients_of_fixed(rot.numerator, rot.frac_bits, 200):
        qm2, qm1 = qm1, a * qm1 + qm2
        dens.add(qm1)
    t = sd.divisor_table(rot, m_max)
    assert t.falls == [q + 1 for q in sorted(dens) if q <= m_max - 1]
    assert t.lows == [t.d1[f - 1] for f in t.falls]


@pytest.mark.parametrize("make_rot,m_max", [
    (lambda: sd.RotationNumber.from_surd(-1, 1, 5, 2), 2 ** 14),   # golden mean
    # m_max = q_19 = 4181: d1[m_max] is a new low, but omega ends at m_max
    (lambda: sd.RotationNumber.from_surd(-1, 1, 5, 2), 4181),
    (lambda: sd.RotationNumber.from_surd(0, 1, 2, 1), 2 ** 14),    # sqrt 2
    (lambda: sd.RotationNumber.from_surd(1, 1, 7, 3), 2 ** 14),    # (1 + sqrt 7)/3
    (lambda: sd.RotationNumber.from_quotients([4, 2 ** 400], 512), 2 ** 14),
], ids=["golden", "golden-4181", "sqrt2", "sqrt7", "cremer-512"])
def test_omega_falls_at_convergent_denominators(make_rot, m_max):
    _assert_omega_falls_at_convergents(make_rot(), m_max)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8))
def test_omega_falls_at_convergents_for_random_quotients(quots):
    _assert_omega_falls_at_convergents(sd.RotationNumber.from_quotients(quots), 2 ** 14)


def test_omega_is_read_only_on_2_to_m_max(golden_table):
    # below 2 the falls hold nothing: without the guard m = 0 and 1 would
    # read lows[-1], the last low
    t = golden_table
    for m in (0, 1, t.m_max + 1):
        with pytest.raises(ValueError):
            t.omega(m)
        with pytest.raises(ValueError):
            sd.cremer_exponent(t, m)
    assert t.omega(2) == t.d1[1] and t.omega(t.m_max) == min(t.d1[1:t.m_max])


def test_rotation_json_round_trip(golden):
    j = sd.rotation_to_json(golden)
    back = sd.rotation_from_json(j)
    assert back.numerator == golden.numerator
    rot = sd.RotationNumber.from_quotients([3, 1, 4, 1, 5])
    assert sd.rotation_from_json(sd.rotation_to_json(rot)).numerator == rot.numerator
    dec = sd.RotationNumber.from_decimal("0.1234567890123456789")
    assert sd.rotation_from_json(sd.rotation_to_json(dec)).numerator == dec.numerator
    with pytest.raises(ValueError):
        sd.rotation_from_json({"kind": "nope"})


def test_divisor_csv(tmp_path, golden):
    t = sd.divisor_table(golden, 64)
    path = tmp_path / "d.csv"
    sd.write_divisor_csv(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,dlam,omega,cremer_exponent"
    assert len(lines) == 64  # header + m = 2..64
    om = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(om, om[1:]))


def _divisor_csv_oracle(table, path, omega=None):
    """The row-at-a-time csv.writer loop the chunked writer replaced.  omega
    is min(d1[1..m-1]), formed here, unless a caller-built table passes its
    own."""
    least = math.inf
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "dlam", "omega", "cremer_exponent"])
        for m in range(2, table.m_max + 1):
            least = min(least, float(table.d1[m - 1]))
            om = least if omega is None else float(omega(m))
            ce = math.log(1.0 / om) / m if om > 0.0 else math.inf
            w.writerow([m, repr(float(table.d1[m - 1])), repr(om), repr(ce)])


DIVISOR_CSV_CASES = {
    # m_max 2 is a one-row table; 4097, 4098 and 8195 sit at chunk edges,
    # as the writer's chunk length divides 4096
    **{f"golden-{m}": (lambda: sd.RotationNumber.from_surd(-1, 1, 5, 2), m)
       for m in (2, 3, 4097, 4098, 8195)},
    "cremer-512": (lambda: sd.RotationNumber.from_quotients([4, 2 ** 400], 512), 5000),
    "random-192": (lambda: sd.RotationNumber.from_quotients(_RNG_QUOTIENTS), 5000),
    # d1[4] = 0: omega vanishes from m = 5 on and cremer_exponent reads inf
    "quarter": (lambda: sd.RotationNumber.from_decimal("0.25"), 64),
    # a table held in numpy arrays, whose entries are numpy scalars: every
    # cell must still be written as a plain double
    "numpy-8": (lambda: sd.RotationNumber.from_surd(-1, 1, 5, 2), 8,
                lambda t: sd.DivisorTable(t.rot, 8, np.asarray(t.d1), [2], np.full(1, 2.0))),
}


@pytest.mark.parametrize("case", list(DIVISOR_CSV_CASES))
def test_divisor_csv_matches_row_writer(tmp_path, case):
    assert 4096 % sd.rotation._CHUNK == 0
    make_rot, m_max, *wrap = DIVISOR_CSV_CASES[case]
    table = sd.divisor_table(make_rot(), m_max, allow_degenerate=True)
    for f in wrap:
        table = f(table)
    sd.write_divisor_csv(table, tmp_path / "got.csv")
    _divisor_csv_oracle(table, tmp_path / "want.csv", table.omega if wrap else None)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == m_max  # header + m = 2..m_max
    assert (b",inf\r\n" in got) == bool(table.degenerate_indices)


def test_divisor_table_memory_budget(golden):
    # the benchmark's golden brjuno call in process: the d1 column takes
    # 1 MiB as doubles (traced peak 1.24 MiB), and nothing else may grow
    # with the table, such as a dense omega column or a list of CSV cells.
    # omega falls only at the convergent denominators, and q_n >= F_{n+1}
    tracemalloc.start()
    try:
        t = sd.divisor_table(golden, 2 ** 17)
        sd.cremer_running_max(t, 2 ** 17)
        sd.write_divisor_csv(t, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(t.d1) is array and t.d1.typecode == "d"
    assert len(t.falls) == len(t.lows) <= 2 + math.log(2 ** 17, (1 + math.sqrt(5)) / 2)
    assert peak <= 2 * 2 ** 20, peak / 2 ** 20


def test_divisor_table_rejects_precision_before_allocating():
    # 2^40 rows would need 16 TiB of columns: the precision check must come first
    rot = sd.RotationNumber.from_surd(-1, 1, 5, 2, frac_bits=96)
    with pytest.raises(PrecisionError):
        sd.divisor_table(rot, 2 ** 40)


def test_divisor_csv_keeps_the_sign_of_zero(tmp_path, golden):
    # a caller-built table: 0.0 and -0.0 compare equal but are written apart
    t = sd.divisor_table(golden, 3)
    table = sd.DivisorTable(t.rot, 3, t.d1, [2, 3], [0.0, -0.0])
    sd.write_divisor_csv(table, tmp_path / "got.csv")
    _divisor_csv_oracle(table, tmp_path / "want.csv", table.omega)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b",-0.0,inf\r\n" in got
