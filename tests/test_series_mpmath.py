"""mpmath oracles for the scaled-coefficient kernels, sharing no code with
the library: operands are exact binary values m * 2^e, rebuilt in mpmath at
200 bits, and the library results are read back exactly from their
(mantissa, exponent) arrays.

Tolerances are relative to the modulus majorant of each result: the same
computation run on |coefficients| with every sign and phase dropped.  An
aligned sum of terms rounds to within a few units in the last place of the
sum of their moduli, so the defect of every coefficient must stay below
`RTOL` times its majorant; where no cancellation happens the majorant is the
modulus of the exact value itself.
"""

import mpmath
import numpy as np
import pytest

import skewdyn as sd
from skewdyn.series import _wpoly_compose, series_from_triples

mp = mpmath.mp.clone()
mp.prec = 200
RTOL = 2.0 ** -40   # about 9e-13; a double has 53 bits, a few hundred terms lose < 10


def scaled_operand(rng, n, span=2000, zeros=3):
    """n+1 seeded (mantissa, exponent) pairs with exponents in +-span bits
    and `zeros` exact zero coefficients (never the constant term)."""
    mant = rng.uniform(1, 2, n + 1) * np.exp(2j * np.pi * rng.random(n + 1))
    exps = rng.integers(-span, span + 1, n + 1)
    mant[rng.choice(np.arange(1, n + 1), zeros, replace=False)] = 0
    return [(complex(m), int(e) if m != 0 else 0) for m, e in zip(mant, exps)]


def to_series(pairs):
    return series_from_triples([[m.real, m.imag, e] for m, e in pairs],
                               len(pairs) - 1)


def value(m, e):
    """m * 2^e exactly."""
    return mp.mpc(mp.ldexp(mp.mpf(m.real), e), mp.ldexp(mp.mpf(m.imag), e))


def exact(pairs):
    return [value(m, e) for m, e in pairs]


def read_back(s):
    return [value(m, e) for m, e in zip(s.mant.tolist(), s.exp2.tolist())]


def cauchy(a, b):
    return [mp.fsum(a[q] * b[p - q] for q in range(p + 1)) for p in range(len(a))]


def assert_within(got, ref, bound):
    for g, r, b in zip(got, ref, bound):
        assert abs(g - r) <= RTOL * abs(b), (g, r, b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_product_matches_mpmath(seed):
    rng = np.random.default_rng(seed)
    a, b = scaled_operand(rng, 24), scaled_operand(rng, 24)
    got = read_back(to_series(a) * to_series(b))
    ea, eb = exact(a), exact(b)
    assert_within(got, cauchy(ea, eb),
                  cauchy([abs(x) for x in ea], [abs(x) for x in eb]))
    # the exponents span far beyond the double range; so do the results
    assert max(abs(e) for e in (to_series(a) * to_series(b)).exp2.tolist()) > 1100


@pytest.mark.parametrize("seed", [4, 5])
def test_reciprocal_matches_mpmath(seed):
    rng = np.random.default_rng(seed)
    c = scaled_operand(rng, 20, span=300)
    got = read_back(to_series(c).reciprocal())
    ec = exact(c)
    inv, maj = [1 / ec[0]], [1 / abs(ec[0])]
    for k in range(1, len(ec)):
        inv.append(-mp.fsum(ec[i] * inv[k - i] for i in range(1, k + 1)) / ec[0])
        maj.append(mp.fsum(abs(ec[i]) * maj[k - i] for i in range(1, k + 1))
                   / abs(ec[0]))
    assert_within(got, inv, maj)


def test_wpoly_compose_matches_mpmath():
    rng = np.random.default_rng(6)
    n, dw = 8, 4
    outer = [scaled_operand(rng, n, zeros=2) for _ in range(dw + 1)]
    inner = [scaled_operand(rng, n, zeros=2) for _ in range(dw + 1)]
    inner[2] = [(0j, 0)] * (n + 1)   # an exact zero row
    got = _wpoly_compose([to_series(r) for r in outer],
                         [to_series(r) for r in inner], dw)

    def compose(out, inn):
        """Horner in w on lists of z-series, cut at (z^n, w^dw)."""
        acc = [[mp.mpc(0)] * (n + 1) for _ in range(dw + 1)]
        for row in reversed(out):
            acc = [[mp.fsum(x) for x in zip(*(cauchy(acc[i], inn[k - i])
                                              for i in range(k + 1)))]
                   for k in range(dw + 1)]
            acc[0] = [x + y for x, y in zip(acc[0], row)]
        return acc

    eo, ei = [exact(r) for r in outer], [exact(r) for r in inner]
    ref = compose(eo, ei)
    maj = compose([[abs(x) for x in r] for r in eo], [[abs(x) for x in r] for r in ei])
    for k in range(dw + 1):
        assert_within(read_back(got[k]), ref[k], maj[k])


def test_greedy_quadratic_matches_mpmath_rebuild(golden):
    # the library picks the bits; mpmath rebuilds phi_n from them with its
    # own golden mean, phi_n = (a_n + sum_j phi_j phi_{n-j}) / (lam^n - 1)
    m_max = 150
    res = sd.greedy_quadratic(sd.unit_column(golden, m_max))
    theta = (mp.sqrt(5) - 1) / 2
    phi, maj = [mp.mpc(0)] * (m_max + 1), [mp.mpf(0)] * (m_max + 1)
    for k in range(1, m_max + 1):
        d = mp.expjpi(2 * k * theta) - 1
        s = mp.fsum(phi[j] * phi[k - j] for j in range(1, k))
        phi[k] = (res.bits[k] + s) / d
        maj[k] = (res.bits[k] + mp.fsum(maj[j] * maj[k - j] for j in range(1, k))) / abs(d)
        assert abs(res.bits[k] + s) >= 0.5   # the greedy bound holds exactly
    got = [value(m, e) for m, e in zip(np.asarray(res.phi[0]).tolist(),
                                       np.asarray(res.phi[1]).tolist())]
    assert_within(got[1:], phi[1:], maj[1:])
    # no cancellation to speak of: also close relative to the values
    assert max(abs(g - p) / abs(p) for g, p in zip(got[1:], phi[1:])) < 1e-9
