"""Complex numbers with a separate binary exponent.

Series coefficients in the divergence experiments grow like exp(c*m*log m),
far beyond double range; keeping a unit-scale complex mantissa next to an
integer power of two makes magnitude extraction exact at any size.
"""

from __future__ import annotations

import math

_DROP_BITS = 110  # addends this far below the other operand cannot move it


class ScaledComplex:
    """value = mantissa * 2^exponent with |mantissa| in [1,2), or exact zero."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: complex, exponent: int):
        self.mantissa = complex(mantissa)
        self.exponent = int(exponent)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_complex(value: complex) -> "ScaledComplex":
        return ScaledComplex(complex(value), 0).normalized()

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, 0)

    def normalized(self) -> "ScaledComplex":
        m, e = self.mantissa, self.exponent
        if m == 0:
            return ScaledComplex(0j, 0)
        a = abs(m)
        if 1.0 <= a < 2.0:
            return self
        _, be = math.frexp(a)  # a = f * 2^be, f in [0.5, 1)
        s = 1 - be
        return ScaledComplex(complex(math.ldexp(m.real, s), math.ldexp(m.imag, s)),
                             e - s)

    # -- conversion ------------------------------------------------------

    def to_complex(self) -> complex:
        if self.mantissa == 0:
            return 0j
        if self.exponent > 1020:
            raise OverflowError(f"value 2^{self.exponent} exceeds double range")
        if self.exponent < -1060:
            return 0j
        e = self.exponent
        return complex(math.ldexp(self.mantissa.real, e),
                       math.ldexp(self.mantissa.imag, e))

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def abs_log2(self) -> float:
        """log2 of the modulus; -inf for zero."""
        if self.mantissa == 0:
            return -math.inf
        return self.exponent + math.log2(abs(self.mantissa))

    def abs_ln(self) -> float:
        """Natural log of the modulus; -inf for zero."""
        if self.mantissa == 0:
            return -math.inf
        return self.exponent * math.log(2.0) + math.log(abs(self.mantissa))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ScaledComplex":
        if isinstance(other, ScaledComplex):
            return other
        if isinstance(other, (int, float, complex)):
            return ScaledComplex.from_complex(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "ScaledComplex":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.mantissa == 0:
            return o
        if o.mantissa == 0:
            return self
        d = self.exponent - o.exponent
        if d >= _DROP_BITS:
            return self
        if d <= -_DROP_BITS:
            return o
        if d >= 0:
            m = self.mantissa + complex(math.ldexp(o.mantissa.real, -d),
                                        math.ldexp(o.mantissa.imag, -d))
            return ScaledComplex(m, self.exponent).normalized()
        m = o.mantissa + complex(math.ldexp(self.mantissa.real, d),
                                 math.ldexp(self.mantissa.imag, d))
        return ScaledComplex(m, o.exponent).normalized()

    __radd__ = __add__

    def __neg__(self) -> "ScaledComplex":
        return ScaledComplex(-self.mantissa, self.exponent)

    def __sub__(self, other) -> "ScaledComplex":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(-o)

    def __mul__(self, other) -> "ScaledComplex":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.mantissa == 0 or o.mantissa == 0:
            return ScaledComplex(0j, 0)
        return ScaledComplex(self.mantissa * o.mantissa,
                             self.exponent + o.exponent).normalized()

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScaledComplex":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.mantissa == 0:
            raise ZeroDivisionError("division by zero ScaledComplex")
        if self.mantissa == 0:
            return ScaledComplex(0j, 0)
        return ScaledComplex(self.mantissa / o.mantissa,
                             self.exponent - o.exponent).normalized()

    def __rtruediv__(self, other) -> "ScaledComplex":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.mantissa == o.mantissa and (self.mantissa == 0
                                                or self.exponent == o.exponent)

    def __repr__(self) -> str:
        return f"ScaledComplex({self.mantissa!r}, 2**{self.exponent})"

    # -- comparison helpers --------------------------------------------

    def approx_eq(self, other, rtol: float = 1e-12,
                  floor_log2: float = -1000.0) -> bool:
        """Scale-free comparison: relative to the larger modulus, with an
        absolute floor of 2^floor_log2."""
        o = self._coerce(other)
        d = self - o
        if d.mantissa == 0:
            return True
        ref = max(self.abs_log2(), o.abs_log2())
        dl = d.abs_log2()
        return dl <= floor_log2 or dl <= ref + math.log2(rtol)


def as_scaled(value) -> ScaledComplex:
    """Coerce python scalars (or pass through ScaledComplex) to ScaledComplex."""
    if isinstance(value, ScaledComplex):
        return value
    return ScaledComplex.from_complex(value)
