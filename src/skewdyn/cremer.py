"""Divergence witnesses for non-Brjuno rotations.

Two coefficient recursions whose growth certifies the absence of an
invariant graph: the linear example phi_n = phi_{n-1}/(lam^n - 1) and a
greedy quadratic construction that keeps every numerator away from zero.
Coefficients carry a separate binary exponent; growth exponents are read
off the binary exponents directly, never from materialized magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .rotation import _CHUNK, RotationNumber, unit_column
from .scaled import ScaledComplex, as_scaled
from .series import _aligned_sum, _over, _zeros

_LN2 = math.log(2.0)


def linear_example_phi(rot: RotationNumber, phi0: complex,
                       m_max: int) -> list[ScaledComplex]:
    """Coefficients of the formal invariant graph of (lam z, w + z + z w).

    phi_1 = (1 + phi_0)/(lam - 1), then phi_n = phi_{n-1}/(lam^n - 1).
    The recursion telescopes to phi_n = (1 + phi_0)/prod_{j<=n}(lam^j - 1),
    which the tests check against the recursion.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    col = unit_column(rot, m_max)
    out = [as_scaled(phi0)]
    cur = as_scaled(1.0) + as_scaled(phi0)
    for n in range(1, m_max + 1):
        cur = ScaledComplex(*_over(cur.mantissa, cur.exponent,
                                   col.mant[n], col.exp2[n]))
        out.append(cur)
    return out


@dataclass(frozen=True)
class GreedyResult:
    """bits[n] is the chosen coefficient a_n, phi[n] the solved coefficient,
    numerator_log2[n] = log2 |a_n + S_n| (the greedy lower-bound witness)."""
    bits: list[int]
    phi: list[ScaledComplex]
    numerator_log2: list[float]


def greedy_quadratic(rot: RotationNumber, m_max: int) -> GreedyResult:
    """Choose a_n in {0,1} keeping |a_n + sum_j phi_j phi_{n-j}| >= 1/2.

    Ties and choices maximize the numerator modulus; exact ties take 0.
    The >= 1/2 bound always has a witness: |S| < 1/2 forces a = 1, and
    |S| >= 1/2 permits a = 0 (asserted every step).
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    col = unit_column(rot, m_max)
    pm, pe = _zeros(m_max + 1)
    bits: list[int] = [0, 1]   # index 0 unused
    numerator_log2: list[float] = [-math.inf, 0.0]
    pm[1], pe[1] = _over(1.0, 0, col.mant[1], col.exp2[1])
    for n in range(2, m_max + 1):
        s = ScaledComplex(*_aligned_sum(pm[1:n] * pm[n - 1:0:-1],
                                        pe[1:n] + pe[n - 1:0:-1]))
        with_one = as_scaled(1.0) + s
        m0, m1 = s.abs_log2(), with_one.abs_log2()
        a, num, mag = (0, s, m0) if m0 >= m1 else (1, with_one, m1)
        assert mag >= -1.0, f"greedy bound violated at n={n}: |num| = 2^{mag}"
        bits.append(a)
        numerator_log2.append(mag)
        pm[n], pe[n] = _over(num.mantissa, num.exponent, col.mant[n], col.exp2[n])
    phi = [ScaledComplex(m, e) for m, e in zip(pm.tolist(), pe.tolist())]
    return GreedyResult(bits, phi, numerator_log2)


@dataclass(frozen=True)
class GrowthProfile:
    """Per-index magnitudes of a coefficient sequence (natural logs).

    log_mag[m] = ln |phi_m|, exponents[m] = (1/m) ln |phi_m| for m >= 1,
    running_max[m] = max over 1..m of the exponents.
    """
    log_mag: np.ndarray
    exponents: np.ndarray
    running_max: np.ndarray

    @property
    def m_max(self) -> int:
        return len(self.log_mag) - 1


def growth_profile(coeffs: list[ScaledComplex]) -> GrowthProfile:
    if not coeffs:
        raise ValueError("empty coefficient list")
    n = len(coeffs) - 1
    log_mag = np.empty(n + 1)
    for m, c in enumerate(coeffs):
        log_mag[m] = c.exponent * _LN2 + (math.log(abs(c.mantissa))
                                          if not c.is_zero else -math.inf)
    exps = np.full(n + 1, -math.inf)
    if n >= 1:
        exps[1:] = log_mag[1:] / np.arange(1, n + 1)
    running = np.maximum.accumulate(exps)
    return GrowthProfile(log_mag, exps, running)


def write_growth_csv(rot: RotationNumber, prof: GrowthProfile, path,
                     bits: list[int] | None = None) -> None:
    """Columns: m, a_m, log_phi, exponent, running_max, log_inv_divisor
    (ln 1/|lam^m - 1|, inf where the divisor vanishes), from the growth
    profile of the coefficients, one row per m = 1..m_max, lines ended by
    CRLF; a_m is empty past the end of `bits`.  Rows are formatted
    column-wise _CHUNK at a time."""
    col = unit_column(rot, prof.m_max)
    a_m = [] if bits is None else bits[1:]
    with open(path, "w", newline="") as fh:
        fh.write("m,a_m,log_phi,exponent,running_max,log_inv_divisor\r\n")
        for lo in range(1, prof.m_max + 1, _CHUNK):
            hi = min(lo + _CHUNK, prof.m_max + 1)
            div = [-(e * _LN2 + math.log(abs(d))) if d else math.inf
                   for d, e in zip(col.mant[lo:hi].tolist(),
                                   col.exp2[lo:hi].tolist())]
            fh.write("".join([
                f"{m},{b},{g!r},{x!r},{r!r},{v!r}\r\n"
                for m, g, x, r, v, b in zip_longest(
                    range(lo, hi), prof.log_mag[lo:hi].tolist(),
                    prof.exponents[lo:hi].tolist(),
                    prof.running_max[lo:hi].tolist(), div,
                    a_m[lo - 1:hi - 1], fillvalue="")]))
