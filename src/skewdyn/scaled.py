"""One complex number with a separate binary exponent, as an object.

The library itself computes on (mant, exp2) arrays and (m, e) pairs (see
`skewdyn.series`); this class remains as a thin object over the same pair
rules, for callers that hold single values: a product, a sum, and
`complex()`, which lets a list of them within double range build a
`TruncatedSeries` (wider values go through `series_from_triples`).
"""

from .series import _double, _norm1, _sum1


class ScaledComplex:
    """value = mantissa * 2^exponent; + and * normalize |mantissa| to [1, 2)."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: complex, exponent: int):
        self.mantissa = complex(mantissa)
        self.exponent = int(exponent)

    def __complex__(self) -> complex:
        """The value as a double: OverflowError above 2^1020, 0 below 2^-1060."""
        return _double(self.mantissa, self.exponent)

    def __add__(self, other: "ScaledComplex") -> "ScaledComplex":
        return ScaledComplex(*_sum1(self.mantissa, self.exponent,
                                    other.mantissa, other.exponent))

    def __mul__(self, other: "ScaledComplex") -> "ScaledComplex":
        return ScaledComplex(*_norm1(self.mantissa * other.mantissa,
                                     self.exponent + other.exponent))
