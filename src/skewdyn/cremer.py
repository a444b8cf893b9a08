"""Divergence witnesses for non-Brjuno rotations.

Two coefficient recursions whose growth certifies the absence of an
invariant graph: the linear example phi_n = phi_{n-1}/(lam^n - 1) and a
greedy quadratic construction that keeps every numerator away from zero.
Both read their divisors from one unit-circle column and return the
coefficients as (mant, exp2) lists; growth exponents are read off the
binary exponents directly, never from materialized magnitudes.  The linear
example, the growth profile and the CSV writer run on Python floats and
complexes, so a linear `cremer` process executes no numpy; the greedy
construction sums its convolutions with numpy.
"""

from __future__ import annotations

import math
from itertools import accumulate, zip_longest
from typing import NamedTuple

from .rotation import _CHUNK, UnitColumn
from .series import _aligned_sum, _norm1, _over, _sum1, _zeros

_LN2 = math.log(2.0)


def _log2_abs1(m: complex, e: int) -> float:
    """log2 |m * 2^e| of one pair; -inf at zero."""
    return e + math.log2(abs(m)) if m != 0 else -math.inf


def linear_example_phi(col: UnitColumn,
                       phi0: complex) -> tuple[list[complex], list[int]]:
    """Coefficients phi_0..phi_{m_max} of the formal invariant graph of
    (lam z, w + z + z w), m_max the last index of the column.

    phi_1 = (1 + phi_0)/(lam - 1), then phi_n = phi_{n-1}/(lam^n - 1).
    The recursion telescopes to phi_n = (1 + phi_0)/prod_{j<=n}(lam^j - 1),
    which the tests check against the recursion.
    """
    pm, pe = [0j] * len(col.lam), [0] * len(col.lam)
    p0 = _norm1(complex(phi0), 0)
    pm[0], pe[0] = p0
    cur = _sum1(1 + 0j, 0, *p0)
    for n in range(1, len(pm)):
        pm[n], pe[n] = cur = _over(*cur, col.mant[n], col.exp2[n])
    return pm, pe


class GreedyResult(NamedTuple):
    """bits[n] is the chosen coefficient a_n, phi = (mant, exp2) the solved
    coefficients, numerator_log2[n] = log2 |a_n + S_n| (the greedy
    lower-bound witness)."""
    bits: list[int]
    phi: tuple[list[complex], list[int]]
    numerator_log2: list[float]


def greedy_quadratic(col: UnitColumn) -> GreedyResult:
    """Choose a_n in {0,1} keeping |a_n + sum_j phi_j phi_{n-j}| >= 1/2.

    Ties and choices maximize the numerator modulus; exact ties take 0.
    The >= 1/2 bound always has a witness: |S| < 1/2 forces a = 1, and
    |S| >= 1/2 permits a = 0 (asserted every step); S_1 = 0 makes a_1 = 1.
    Runs to the last index of the column.
    """
    pm, pe = _zeros(len(col.lam))
    bits: list[int] = [0]   # index 0 unused
    numerator_log2: list[float] = [-math.inf]
    for n in range(1, len(pm)):
        sm, se = _aligned_sum(pm[1:n] * pm[n - 1:0:-1], pe[1:n] + pe[n - 1:0:-1])
        s = complex(sm), int(se)
        with_one = _sum1(1 + 0j, 0, *s)
        m0, m1 = _log2_abs1(*s), _log2_abs1(*with_one)
        a, num, mag = (0, s, m0) if m0 >= m1 else (1, with_one, m1)
        assert mag >= -1.0, f"greedy bound violated at n={n}: |num| = 2^{mag}"
        bits.append(a)
        numerator_log2.append(mag)
        pm[n], pe[n] = _over(*num, col.mant[n], col.exp2[n])
    return GreedyResult(bits, (pm.tolist(), pe.tolist()), numerator_log2)


class GrowthProfile(NamedTuple):
    """Per-index magnitudes of a coefficient sequence (natural logs).

    log_mag[m] = ln |phi_m|, exponents[m] = (1/m) ln |phi_m| for m >= 1,
    running_max[m] = max over 1..m of the exponents.
    """
    log_mag: list[float]
    exponents: list[float]
    running_max: list[float]

    @property
    def m_max(self) -> int:
        return len(self.log_mag) - 1


def growth_profile(phi: tuple[list[complex], list[int]]) -> GrowthProfile:
    """The profile of the coefficients phi = (mant, exp2); math.log per
    coefficient, as the CSV cells are reprs of these values."""
    pm, pe = phi
    if not len(pm):
        raise ValueError("empty coefficient list")
    log_mag = [e * _LN2 + (math.log(abs(m)) if m != 0 else -math.inf)
               for m, e in zip(pm, pe)]
    exps = [-math.inf, *[g / m for m, g in enumerate(log_mag[1:], 1)]]
    return GrowthProfile(log_mag, exps, list(accumulate(exps, max)))


def write_growth_csv(col: UnitColumn, prof: GrowthProfile, path,
                     bits: list[int] | None = None) -> None:
    """Columns: m, a_m, log_phi, exponent, running_max, log_inv_divisor
    (ln 1/|lam^m - 1|, inf where the divisor vanishes, read from `col`,
    which reaches at least m_max), from the growth profile of the
    coefficients, one row per m = 1..m_max, lines ended by CRLF; a_m is
    empty past the end of `bits`.  Rows are formatted column-wise _CHUNK at
    a time."""
    a_m = [] if bits is None else bits[1:]
    with open(path, "w", newline="") as fh:
        fh.write("m,a_m,log_phi,exponent,running_max,log_inv_divisor\r\n")
        for lo in range(1, prof.m_max + 1, _CHUNK):
            hi = min(lo + _CHUNK, prof.m_max + 1)
            div = [-(e * _LN2 + math.log(abs(d))) if d else math.inf
                   for d, e in zip(col.mant[lo:hi], col.exp2[lo:hi])]
            fh.write("".join([
                f"{m},{b},{g!r},{x!r},{r!r},{v!r}\r\n"
                for m, g, x, r, v, b in zip_longest(
                    range(lo, hi), prof.log_mag[lo:hi], prof.exponents[lo:hi],
                    prof.running_max[lo:hi], div,
                    a_m[lo - 1:hi - 1], fillvalue="")]))
