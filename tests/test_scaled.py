import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdyn.scaled import ScaledComplex

finite_c = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False)


def test_normalization_invariant():
    one = ScaledComplex(1.0, 0)
    for v in (1 + 1j, -3.7, 0.001j, 123456.0, 2 ** 40 + 1j):
        sc = ScaledComplex(v, 0) * one
        assert 1.0 <= abs(sc.mantissa) < 2.0
        assert complex(sc) == pytest.approx(complex(v), rel=1e-15)
    z = ScaledComplex(0j, 7) * one
    assert z.mantissa == 0 and z.exponent == 0 and complex(z) == 0j


@settings(max_examples=200, deadline=None)
@given(finite_c, finite_c)
def test_matches_double_arithmetic(a, b):
    sa, sb = ScaledComplex(a, 0), ScaledComplex(b, 0)
    assert complex(sa + sb) == pytest.approx(a + b, rel=1e-14, abs=1e-12)
    assert complex(sa + ScaledComplex(-b, 0)) == pytest.approx(a - b, rel=1e-14,
                                                               abs=1e-12)
    assert complex(sa * sb) == pytest.approx(a * b, rel=1e-14)


def test_huge_exponent_products_do_not_overflow():
    big = ScaledComplex(1.5 + 0.5j, 100000)
    sq = big * big
    assert sq.exponent > 190000
    assert 1.0 <= abs(sq.mantissa) < 2.0 and math.isfinite(abs(sq.mantissa))
    tiny = ScaledComplex(1.0 + 0j, -100000)
    assert (big * tiny).exponent == pytest.approx(0, abs=3)
    with pytest.raises(OverflowError):
        complex(sq)
    assert complex(tiny) == 0j  # silent underflow to zero


def test_addition_drops_negligible_operand():
    big = ScaledComplex(1.0 + 0j, 500)
    small = ScaledComplex(1.0 + 0j, 0)
    for s in (big + small, small + big):
        assert (s.mantissa, s.exponent) == (big.mantissa, big.exponent)


def test_cancellation_to_zero():
    a = ScaledComplex(1.25 + 0.5j, 3)
    s = a + ScaledComplex(-a.mantissa, a.exponent)
    assert s.mantissa == 0 and s.exponent == 0
