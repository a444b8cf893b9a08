import csv
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import skewdyn as sd
from skewdyn.cremer import _self_convolution
from skewdyn.errors import DegenerateDivisorError
from skewdyn.series import _norm1

# oracles rebuild every (mantissa, exponent) pair exactly in mpmath
mp = mpmath.mp.clone()
mp.prec = 200


def exact(pairs):
    """The values m * 2^e of a (mant, exp2) pair of lists or arrays, exactly."""
    return [mp.mpc(mp.ldexp(mp.mpf(m.real), e), mp.ldexp(mp.mpf(m.imag), e))
            for m, e in zip(np.asarray(pairs[0]).tolist(),
                            np.asarray(pairs[1]).tolist())]


def test_linear_example_vanishing_numerator(golden):
    pm, _ = sd.linear_example_phi(sd.unit_column(golden, 50), -1.0)
    assert not np.asarray(pm[1:]).any()


def test_linear_example_first_coefficient(golden):
    lam = sd.lam_power(golden, 1)
    phis = exact(sd.linear_example_phi(sd.unit_column(golden, 5), 0j))
    assert phis[0] == 0
    assert complex(phis[1]) == pytest.approx(1 / (lam - 1), rel=1e-14)


@pytest.mark.parametrize("phi0", [0j, 0.25 - 0.1j])
def test_linear_example_telescoped_form(golden, phi0):
    # the recursion telescopes to phi_n = (1+phi_0)/prod_{j<=n}(lam^j - 1);
    # equivalently phi_n * prod = 1 + phi_0
    col = sd.unit_column(golden, 200)
    phis = exact(sd.linear_example_phi(col, phi0))
    divisors = exact((col.mant, col.exp2))
    target = 1 + mp.mpc(phi0)
    prod = mp.mpc(1)
    for n in range(1, 201):
        prod *= divisors[n]
        assert abs(phis[n] * prod - target) <= 1e-10 * abs(1 + phi0)


def test_linear_example_degenerate():
    rot = sd.RotationNumber.from_decimal("0.5")
    with pytest.raises(DegenerateDivisorError):
        sd.linear_example_phi(sd.unit_column(rot, 10), 0j)


def test_lower_bound_coupling_identity(golden):
    # e_m = (1/m) sum_j log 1/|lam^j - 1| + (1/m) log|1+phi_0| exactly
    phi0 = 0.3 + 0.2j
    col = sd.unit_column(golden, 150)
    prof = sd.growth_profile(sd.linear_example_phi(col, phi0))
    divisors = exact((col.mant, col.exp2))
    s = 0.0
    for m in range(1, 151):
        s += -float(mp.log(abs(divisors[m])))
        rhs = s / m + math.log(abs(1 + phi0)) / m
        assert prof.exponents[m] == pytest.approx(rhs, abs=1e-10)


def test_greedy_first_bit_and_bound(golden):
    res = sd.greedy_quadratic(sd.unit_column(golden, 500))
    assert res.bits[1] == 1
    assert all(b in (0, 1) for b in res.bits[1:])
    # |a_n + S_n| >= 1/2, i.e. log2 >= -1 (asserted in-loop, re-checked here)
    assert all(m >= -1.0 for m in res.numerator_log2[1:])


def test_greedy_deterministic(golden):
    a = sd.greedy_quadratic(sd.unit_column(golden, 300))
    b = sd.greedy_quadratic(sd.unit_column(golden, 300))
    assert a.bits == b.bits
    assert np.array_equal(a.phi[0], b.phi[0]) and np.array_equal(a.phi[1], b.phi[1])


def _assert_greedy_recursion(rot):
    # phi_n must equal (a_n + sum phi_j phi_{n-j})/(lam^n - 1)
    col = sd.unit_column(rot, 800)
    res = sd.greedy_quadratic(col)
    phi, divisors = exact(res.phi), exact((col.mant, col.exp2))
    for n in (2, 17, 60, 200, 500, 800):
        s = mp.fsum(phi[j] * phi[n - j] for j in range(1, n))
        expect = (res.bits[n] + s) / divisors[n]
        assert abs(expect - phi[n]) <= 1e-12 * max(abs(expect), abs(phi[n]))
    return res


def test_greedy_recursion_consistency(golden):
    res = _assert_greedy_recursion(golden)
    # the coefficients reach 2^1194 and span more than 1000 bits, so the
    # convolutions scale their terms over a wide range
    pe = res.phi[1][1:]
    assert max(pe) >= 1194 and max(pe) - min(pe) > 1000


def test_greedy_recursion_consistency_cremer(cremer_rotation):
    _assert_greedy_recursion(cremer_rotation)


def _fraction_pair(m, e):
    """The real and imaginary parts of m * 2^e as Fractions."""
    s = Fraction(2) ** e
    return Fraction(m.real) * s, Fraction(m.imag) * s


def _random_pair(rng, lo, hi):
    m = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return _norm1(m, rng.randint(lo, hi))


def _convolution_case(kind, n, seed):
    """Seeded (mant, exp2) lists of length n + 1 for the convolution oracle."""
    rng = random.Random(seed)
    span = {"equal": (0, 0), "zeros": (-40, 40), "spread": (-1500, 1500),
            "cancel": (-20, 20)}[kind]
    pairs = [_random_pair(rng, *span) for _ in range(n + 1)]
    if kind == "zeros":
        # zero mantissas, some with exponents far above every nonzero term
        for j in rng.sample(range(1, n), n // 3):
            pairs[j] = (0j, rng.choice([0, 3000, -3000, rng.randint(-40, 40)]))
    if kind == "cancel":
        # phi_j phi_{n-j} + phi_{j+1} phi_{n-j-1} nearly cancel for odd j
        for j in range(1, (n - 1) // 2, 2):
            (a, ea), (b, eb), (c, ec) = pairs[j], pairs[n - j], pairs[j + 1]
            t = a * b / c * (1 + rng.uniform(-1, 1) * 2.0 ** -40)
            pairs[n - j - 1] = _norm1(-t, ea + eb - ec)
    return [m for m, _ in pairs], [e for _, e in pairs]


@pytest.mark.parametrize("kind", ["equal", "zeros", "spread", "cancel"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 41, 64])
def test_self_convolution_matches_exact_sum(kind, n):
    # |S - S_exact| <= n 2^-52 sum |t_j| plus a subnormal floor, where
    # t_j = phi_j phi_{n-j} exactly and everything is relative to 2^top,
    # top the largest exponent of a nonzero term
    for seed in range(5):
        pm, pe = _convolution_case(kind, n, f"{kind}-{n}-{seed}")
        terms = [(pe[j] + pe[n - j], _fraction_pair(pm[j], 0),
                  _fraction_pair(pm[n - j], 0))
                 for j in range(1, n) if pm[j] != 0 and pm[n - j] != 0]
        got = _self_convolution(pm, pe, n)
        if not terms:
            assert got == (0j, 0)
            continue
        top = max(e for e, _, _ in terms)
        exact_terms = [(Fraction(2) ** (e - top) * (ar * br - ai * bi),
                        Fraction(2) ** (e - top) * (ar * bi + ai * br))
                       for e, (ar, ai), (br, bi) in terms]
        gr, gi = _fraction_pair(got[0], got[1] - top)
        err = abs(complex(float(gr - sum(x for x, _ in exact_terms)),
                          float(gi - sum(y for _, y in exact_terms))))
        mass = sum(abs(complex(float(x), float(y))) for x, y in exact_terms)
        assert err <= n * 2.0 ** -52 * mass + n * 2.0 ** -1072


def test_growth_profile_trivial_cases():
    ones = (np.ones(11, complex), np.zeros(11, np.int64))
    prof = sd.growth_profile(ones)
    assert np.allclose(prof.exponents[1:], 0.0, atol=1e-15)
    doubling = (np.ones(11, complex), np.arange(11))
    prof = sd.growth_profile(doubling)
    assert np.allclose(prof.exponents[1:], math.log(2.0), atol=1e-15)
    with pytest.raises(ValueError):
        sd.growth_profile((np.zeros(0, complex), np.zeros(0, np.int64)))


def test_profiles_finite_even_for_liouville(cremer_rotation):
    phis = sd.linear_example_phi(sd.unit_column(cremer_rotation, 100), 0j)
    prof = sd.growth_profile(phis)
    assert np.all(np.isfinite(prof.exponents[1:]))


def test_brjuno_cremer_contrast(golden, cremer_rotation):
    # regression bound for the bounded-type side, and a >= 10x gap
    g = sd.greedy_quadratic(sd.unit_column(golden, 500))
    c = sd.greedy_quadratic(sd.unit_column(cremer_rotation, 500))
    golden_max = sd.growth_profile(g.phi).running_max[500]
    cremer_max = sd.growth_profile(c.phi).running_max[500]
    assert golden_max < 1.1          # recorded regression value (observed ~1.03)
    assert cremer_max > 10 * golden_max


def test_growth_csv(tmp_path, golden):
    col = sd.unit_column(golden, 20)
    res = sd.greedy_quadratic(col)
    path = tmp_path / "g.csv"
    sd.write_growth_csv(col, sd.growth_profile(res.phi), path, bits=res.bits)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,a_m,log_phi,exponent,running_max,log_inv_divisor"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    # log(1/|lam - 1|) column matches the divisor directly
    lam = sd.lam_power(golden, 1)
    assert float(first[5]) == pytest.approx(-math.log(abs(lam - 1)), rel=1e-12)


def _growth_csv_oracle(rot, prof, path, bits=None):
    """The row-at-a-time csv.writer loop the chunked writer replaced."""
    col = sd.unit_column(rot, prof.m_max)
    dm, de = np.asarray(col.mant).tolist(), np.asarray(col.exp2).tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "a_m", "log_phi", "exponent", "running_max",
                    "log_inv_divisor"])
        for m in range(1, prof.m_max + 1):
            div = -(de[m] * math.log(2.0) + math.log(abs(dm[m]))) if dm[m] else math.inf
            w.writerow([m,
                        bits[m] if bits is not None and m < len(bits) else "",
                        repr(float(prof.log_mag[m])),
                        repr(float(prof.exponents[m])),
                        repr(float(prof.running_max[m])),
                        repr(div)])


def _assert_growth_csv_matches(tmp_path, rot, prof, bits):
    sd.write_growth_csv(sd.unit_column(rot, prof.m_max), prof,
                        tmp_path / "got.csv", bits=bits)
    _growth_csv_oracle(rot, prof, tmp_path / "want.csv", bits=bits)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == prof.m_max + 1
    return got.decode().splitlines()


def test_growth_csv_matches_row_writer_greedy(tmp_path, golden):
    res = sd.greedy_quadratic(sd.unit_column(golden, 300))
    _assert_growth_csv_matches(tmp_path, golden, sd.growth_profile(res.phi),
                               res.bits)


@pytest.mark.parametrize("n_bits", [None, 1500])
def test_growth_csv_matches_row_writer_linear(tmp_path, cremer_rotation, n_bits):
    # m = 5000 spans several chunks; a bits list shorter than the profile
    # leaves a_m empty from m = n_bits on, across a chunk edge
    phis = sd.linear_example_phi(sd.unit_column(cremer_rotation, 5000), 0.25 - 0.5j)
    bits = (None if n_bits is None else
            np.random.default_rng(3).integers(0, 2, n_bits).tolist())
    lines = _assert_growth_csv_matches(tmp_path, cremer_rotation,
                                       sd.growth_profile(phis), bits)
    empty = [line.split(",")[1] == "" for line in lines[1:]]
    assert empty == [m >= (n_bits or 1) for m in range(1, 5001)]
