import numpy as np
import pytest
from hypothesis import settings

import skewdyn as sd

settings.register_profile("det", derandomize=True, deadline=None)
settings.load_profile("det")


@pytest.fixture(scope="session")
def golden():
    # theta = (sqrt 5 - 1)/2, the bounded-type benchmark rotation
    return sd.RotationNumber.from_surd(-1, 1, 5, 2)


@pytest.fixture(scope="session")
def golden_table(golden):
    return sd.divisor_table(golden, 2048)


@pytest.fixture(scope="session")
def cremer_rotation():
    # one huge quotient right after a tiny one: the small divisor at the
    # first denominator collapses immediately, so divergence shows up for
    # indices a desk-scale run can reach
    return sd.RotationNumber.from_quotients([4, 2 ** 400], frac_bits=512)


def dispatches_x86_v3() -> bool:
    """Whether numpy runs its X86_V3 (AVX2 + FMA3) loops in this process,
    whose complex products are fused; NPY_DISABLE_CPU_FEATURES turns them
    off."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V3"))


def random_series_coeffs(rng, n, scale=0.3, const=None):
    v = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) * scale
    if const is not None:
        v[0] = const
    return list(v)


def germ_from_coeffs(rot, coeffs, n, dw, d=None):
    """The germ whose a_j has the z-coefficients coeffs[j] (padded with
    zeros), with zero a_j up to D_w = dw; d defaults to the last listed j."""
    if len(coeffs) > dw + 1:
        raise ValueError("more vertical coefficients than D_w allows")
    a = [sd.TruncatedSeries.from_list(c, n) for c in coeffs]
    a += [sd.TruncatedSeries.zero(n) for _ in range(dw + 1 - len(a))]
    return sd.SkewGerm(rot, a, d=d if d is not None else max(1, len(coeffs) - 1))


def is_zero(series):
    """Whether every coefficient of the series is exactly zero."""
    return not series.mant.any()


def random_parabolic_germ(rot, n, dw, seed, degree=3, scale=0.3):
    """A seeded degree-`degree` germ with a_0(0) = 0, a_1(0) = 1."""
    rng = np.random.default_rng(seed)
    coeffs = [random_series_coeffs(rng, n, scale, const=0),
              random_series_coeffs(rng, n, scale, const=1)]
    for _ in range(2, degree + 1):
        coeffs.append(random_series_coeffs(rng, n, scale))
    return germ_from_coeffs(rot, coeffs, n, dw, d=degree)


def rel_defect(series, *scales):
    """Largest coefficient modulus relative to the participating scales."""
    ref = max(1.0, *(2.0 ** s.max_abs_log2() for s in scales)) if scales else 1.0
    return 2.0 ** series.max_abs_log2() / ref


# -- oracles that share no code path with the normalization pipeline --------

def inverse_change(ch):
    """Exact inverse for the invertible kinds (Shift, Gauge, WScale)."""
    if isinstance(ch, sd.Shift):
        return sd.Shift(-ch.phi)
    if isinstance(ch, sd.Gauge):
        one = sd.TruncatedSeries.one(ch.psi.order)
        return sd.Gauge((one + ch.psi).reciprocal() - one)
    if isinstance(ch, sd.WScale):
        return sd.WScale(1.0 / ch.c)
    raise ValueError("bump changes have no exact inverse in this family")


def residual_invariant_curve(F, phi):
    """sum_j a_j(z) phi(z)^j - phi(lam z), the graph-invariance defect.

    Identically zero through z^N exactly when {w = phi(z)} is invariant to
    that order; used as the independent oracle for the solved curves.
    """
    if phi.order != F.n_trunc:
        raise sd.TruncationMismatchError("curve truncation differs from germ")
    acc = sd.TruncatedSeries.zero(F.n_trunc)
    p = sd.TruncatedSeries.one(F.n_trunc)
    for j, aj in enumerate(F.a):
        if j > 0:
            p = p * phi
        if not is_zero(aj):
            acc = acc + aj * p
    return acc - sd.rotate(phi, F.rot, 1)
