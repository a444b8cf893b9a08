"""Rotation numbers, the unit-circle column and small-divisor tables.

The rotation angle theta of a unit-circle multiplier lam = e^{2 pi i theta}
is held as a fixed-point binary fraction so that k*theta mod 1 is exact
integer arithmetic up to the seed error.  `_fraction_chunks` is the one
place that forms those fractional parts.  Every power lam^k and every
small divisor lam^k - 1 (|lam^k - 1| = 2*|sin(pi*(k*theta mod 1))|) in
the package is read from its three readers: `unit_column` (the whole
column, for the recursions and fiber schedules), `divisor_table` (the
moduli alone) and `lam_power` (one power).  Computing the fractional part
first (in integers) and only then the sine avoids the catastrophic
cancellation of forming lam^k in floating point.

The module computes with `math` on Python floats, so a `brjuno` process
executes no numpy.  The unit column is returned as lists; a divisor table
holds its two columns as `array('d')`, 8 bytes an entry, filled one chunk
at a time.  The column and the tables equal, bit for bit, what numpy's
float64 sin, cos and hypot gave: numpy's sin and cos agree with libm's,
and abs(complex) calls libm's hypot, as np.hypot does.
Every logarithm is math.log, which can differ from np.log in the last bit.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import DegenerateDivisorError, PrecisionError

if TYPE_CHECKING:
    from array import array

DEFAULT_FRAC_BITS = 192
# divisor_table publishes |lam^p - 1| as plain doubles, which leave the
# normal range below ~2^-1000; larger precisions are left to the
# recursions, which divide by the column's mantissa/exponent pairs.
MAX_TABLE_FRAC_BITS = 900
MAX_AUTO_FRAC_BITS = 65536

_GUARD = 64


def _fixed_sqrt(r: int, bits: int) -> int:
    """floor(sqrt(r) * 2^bits) by integer square root."""
    return math.isqrt(r << (2 * bits))


def _golden_tail(bits: int) -> int:
    """(1 + sqrt 5)/2 as a fixed-point integer with `bits` fractional bits."""
    return ((1 << bits) + _fixed_sqrt(5, bits)) >> 1


def _value_from_quotients(quotients: Sequence[int], bits: int) -> int:
    """Fixed-point value of [0; a_1, a_2, ...] completed with an all-ones tail.

    The tail makes the value a quadratic irrational, so explicit-quotient
    rotations are irrational by construction; with all quotients equal to 1
    the value is exactly the golden mean.
    """
    g = bits + _GUARD
    v = _golden_tail(g)
    one = 1 << (2 * g)
    for a in reversed(quotients):
        v = (a << g) + one // v
    x = (1 << (bits + g)) // v
    return x


def _quotients_of_fixed(x: int, bits: int, depth: int) -> list[int]:
    """Leading partial quotients of x/2^bits, stopping before precision runs out."""
    out: list[int] = []
    num, den = x, 1 << bits
    # stop once the remainder is too small to trust (last ~GUARD bits)
    floor_trust = 1 << max(0, bits - _GUARD)
    for _ in range(depth):
        if num <= floor_trust:
            break
        a, rem = divmod(den, num)
        out.append(int(a))
        num, den = rem, num
    return out


class RotationNumber:
    """An irrational rotation angle theta in (0,1), held to fixed precision.

    `numerator` approximates theta * 2^frac_bits with error below one unit
    in the last place, so the k-th fractional multiple carries absolute
    error at most k * 2^-frac_bits.
    """

    __slots__ = ("kind", "numerator", "frac_bits", "params", "possibly_rational")

    def __init__(self, kind: str, numerator: int, frac_bits: int,
                 params: dict | None = None, possibly_rational: bool = False):
        if not 0 < numerator < (1 << frac_bits):
            raise ValueError("rotation angle must lie strictly inside (0,1)")
        self.kind = kind                # "surd" | "quotients" | "decimal"
        self.numerator = numerator
        self.frac_bits = frac_bits
        self.params = {} if params is None else params
        self.possibly_rational = possibly_rational

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_surd(p: int, q: int, r: int, s: int,
                  frac_bits: int = DEFAULT_FRAC_BITS) -> "RotationNumber":
        """theta = (p + q*sqrt(r))/s reduced modulo 1; r must not be a square."""
        if s == 0:
            raise ValueError("zero denominator in surd")
        if r < 0:
            raise ValueError("negative radicand")
        if math.isqrt(r) ** 2 == r:
            raise ValueError("radicand is a perfect square; rotation would be rational")
        if q == 0:
            raise ValueError("q = 0 gives a rational rotation")
        g = frac_bits + _GUARD
        num = (p << g) + q * _fixed_sqrt(r, g)
        x = (num // s) % (1 << g)
        x >>= _GUARD
        return RotationNumber("surd", x, frac_bits,
                              params={"p": p, "q": q, "r": r, "s": s})

    @staticmethod
    def from_quotients(quotients: Sequence[int],
                       frac_bits: int = DEFAULT_FRAC_BITS) -> "RotationNumber":
        """Continued fraction [0; a_1, a_2, ...] completed with an all-ones tail."""
        qs = [int(a) for a in quotients]
        if not qs or any(a < 1 for a in qs):
            raise ValueError("partial quotients must be positive integers")
        x = _value_from_quotients(qs, frac_bits)
        return RotationNumber("quotients", x, frac_bits,
                              params={"quotients": qs})

    @staticmethod
    def from_decimal(text: str,
                     frac_bits: int = DEFAULT_FRAC_BITS) -> "RotationNumber":
        """Parse '0.ddd...' exactly; the result is flagged possibly rational."""
        t = text.strip()
        if t.startswith("0."):
            digits = t[2:]
        elif t.startswith("."):
            digits = t[1:]
        else:
            raise ValueError(f"decimal rotation must look like '0.ddd', got {text!r}")
        if not digits or not digits.isdigit():
            raise ValueError(f"malformed decimal rotation {text!r}")
        d = int(digits)
        x = (d << frac_bits) // 10 ** len(digits)
        return RotationNumber("decimal", x, frac_bits,
                              params={"decimal": t if t.startswith("0.") else "0." + digits},
                              possibly_rational=True)

    # -- accessors ---------------------------------------------------------

    def partial_quotients(self, depth: int = 32) -> list[int]:
        if self.kind == "quotients":
            return list(self.params["quotients"])[:depth]
        return _quotients_of_fixed(self.numerator, self.frac_bits, depth)

    def convergent_denominators(self, depth: int = 32) -> list[int]:
        """Denominators q_n of the continued-fraction convergents."""
        dens: list[int] = []
        qm2, qm1 = 0, 1
        for a in self.partial_quotients(depth):
            qm2, qm1 = qm1, a * qm1 + qm2
            dens.append(qm1)
        return dens

    def theta(self) -> float:
        return self.numerator / (1 << self.frac_bits)


# ---------------------------------------------------------------------------
# The unit-circle column: lam^k and the small divisors lam^k - 1
# ---------------------------------------------------------------------------

# Python-int fractions, or CSV rows, handled at one time
_CHUNK = 1024
_TINY = 2.0 ** -899  # reduced fractions below this keep a separate binary exponent


class UnitColumn(NamedTuple):
    """The lists of `unit_column`, indexed by k = 0..k_max."""

    lam: list[complex]
    mant: list[complex]
    exp2: list[int]


def _to_doubles(ints: list[int], bits: int) -> list[float]:
    """Correctly rounded doubles of ints[i] / 2^bits."""
    if bits <= 1000:  # float(int) stays finite and the scaling exact
        scale = 2.0 ** -bits
        return [float(a) * scale for a in ints]
    one = 1 << bits
    return [a / one for a in ints]


def _fraction_chunks(rot: RotationNumber, k_max: int, lo: int = 0):
    """(start, x, r) for each run of at most _CHUNK indices k = lo..k_max:
    the exact fixed-point fractions x_k = k*theta mod 1 and
    r_k = min(x_k, 1 - x_k), as integers over 2^frac_bits.  The seed error
    k * 2^-frac_bits is rejected, before any chunk is formed, when it could
    exceed 2^-64."""
    bits = rot.frac_bits
    if bits < 64 or k_max > (1 << (bits - 64)):
        raise PrecisionError(
            f"k_max={k_max} needs more than the {bits} fractional bits available")
    one = 1 << bits
    x, mask, half = rot.numerator, one - 1, one >> 1

    def chunk(start: int):
        full = [(k * x) & mask for k in range(start, min(start + _CHUNK, k_max + 1))]
        return start, full, [a if a <= half else one - a for a in full]
    return map(chunk, range(lo, k_max + 1, _CHUNK))


def _unit_powers(xf: list[float]) -> list[complex]:
    """lam^k = cos 2 pi x_k + i sin 2 pi x_k from the doubles of x_k."""
    two_pi = 2.0 * math.pi
    return [complex(math.cos(a), math.sin(a)) for a in [two_pi * x for x in xf]]


def _lam_chunks(rot: RotationNumber, k_max: int, lo: int = 0):
    """(start, doubles of x_k, r_k, lam^k) for each chunk of
    `_fraction_chunks`, which rejects k_max at once: the one place where
    lam^k is formed."""
    def chunk(c):
        start, fulls, reds = c
        xf = _to_doubles(fulls, rot.frac_bits)
        return start, xf, reds, _unit_powers(xf)
    return map(chunk, _fraction_chunks(rot, k_max, lo))


def unit_powers(rot: RotationNumber, k_max: int) -> list[complex]:
    """lam^k for k = 0..k_max: the `lam` list of `unit_column`, bit for bit,
    without the divisors."""
    return [lam for *_, lams in _lam_chunks(rot, k_max) for lam in lams]


def lam_power(rot: RotationNumber, j: int) -> complex:
    """lam^j for any integer j, from the one fraction |j|*theta mod 1; equal
    bit for bit to unit_column(rot, |j|).lam[|j|] (conjugated for j < 0)."""
    lam = next(_lam_chunks(rot, abs(j), abs(j)))[3][0]
    return lam if j >= 0 else lam.conjugate()


def unit_column(rot: RotationNumber, k_max: int) -> UnitColumn:
    """lam^k and lam^k - 1 for k = 0..k_max from the exact fractions x_k
    and r_k of `_fraction_chunks`:

    lam[k] = e^{2 pi i x_k};
    mant[k] * 2^exp2[k] = lam^k - 1 = 2 i sin(pi r_k) e^{i pi x_k} with
    |mant| in [1, 2), or an exact zero (0, 0) where x_k = 0; below 2^-899,
    where the double sine would underflow, sin(pi r) ~ pi r (relative error
    below 2^-1797) with r held as mantissa and exponent.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    bits = rot.frac_bits
    chunks = _lam_chunks(rot, k_max)  # rejects k_max before allocating
    col = UnitColumn([0j] * (k_max + 1), [0j] * (k_max + 1), [0] * (k_max + 1))
    sin, cos, pi = math.sin, math.cos, math.pi
    for lo, xf, reds, lams in chunks:
        col.lam[lo:lo + len(xf)] = lams
        for k, x, r, xr in zip(range(lo, lo + len(xf)), xf, reds,
                               _to_doubles(reds, bits)):
            if xr < _TINY and r:
                nb = r.bit_length()
                scale, e0 = 2.0 * pi * (r / (1 << (nb - 1))), nb - 1 - bits
            else:
                scale, e0 = 2.0 * sin(pi * xr), 0
            vr, vi = -(scale * sin(pi * x)), scale * cos(pi * x)
            # abs(complex) rounds like libm's hypot; math.hypot does not
            h = abs(complex(vr, vi))
            if h:
                be = math.frexp(h)[1]
                s = math.ldexp(1.0, 1 - be)
                col.mant[k], col.exp2[k] = complex(vr * s, vi * s), e0 + be - 1
    return col


# ---------------------------------------------------------------------------
# Divisor tables
# ---------------------------------------------------------------------------

class DivisorTable(NamedTuple):
    """Small divisors of a rotation up to index m_max.

    d1[p]    = |lam^p - 1|              for 1 <= p <= m_max
    omega[m] = min |lam^k - lam| over 2 <= k <= m, running minimum

    |lam^k - lam| = |lam^(k-1) - 1| is d1[k - 1], so omega follows the
    lam^k - lam convention without a second column.  Unused slots hold NaN.
    `divisor_table` fills both columns as `array('d')`; any sequence of
    floats (a list, a numpy array) serves as well.
    """

    rot: RotationNumber
    m_max: int
    d1: Sequence[float]
    omega: Sequence[float]
    degenerate_indices: tuple[int, ...] = ()


def _doubles(values: Iterable[float]) -> array:
    """array('d') of the values.  `array` is imported here, not with the
    module: it loads a shared library, whose pages add about 0.1 MB to the
    peak of every process, and only the processes that tabulate divisors
    need it."""
    from array import array
    return array("d", values)


def divisor_table(rot: RotationNumber, m_max: int,
                  allow_degenerate: bool = False) -> DivisorTable:
    """Tabulate |lam^p - 1| and omega, the running minimum of |lam^k - lam|.

    Degenerate entries (fractional part exactly zero, i.e. a rational
    rotation surfacing at this depth) abort the table unless
    `allow_degenerate` is set, in which case they are stored as exact zeros
    and reported in `degenerate_indices`.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    if rot.frac_bits > MAX_TABLE_FRAC_BITS:
        raise PrecisionError(
            f"divisor tables support at most {MAX_TABLE_FRAC_BITS} fractional bits "
            f"(got {rot.frac_bits}); use the series recursions beyond that")
    chunks = _fraction_chunks(rot, m_max, 1)  # rejects m_max before allocating
    d1 = _doubles([math.nan]) * (m_max + 1)
    omega = _doubles([math.nan]) * (m_max + 1)
    sin, pi, least = math.sin, math.pi, math.inf
    for lo, _, reds in chunks:
        vals = [2.0 * sin(pi * x) for x in _to_doubles(reds, rot.frac_bits)]
        d1[lo:lo + len(vals)] = _doubles(vals)
        # omega[k] = min(least, d1[lo..k-1]) over this chunk.  The minimum
        # falls only at convergent denominators, so most chunks hold none,
        # and a per-entry min runs only in those that do
        if min(vals) < least:
            mins = _doubles(accumulate(vals, min, initial=least))
            least = mins.pop()
        else:
            mins = _doubles([least]) * len(vals)
        omega[lo:lo + len(vals)] = mins
    omega[1] = math.nan  # omega starts at m = 2
    # least is min(d1[1:]); no divisor is negative, so any zero is the minimum
    degenerate = tuple(p for p, d in enumerate(d1) if d == 0.0) if least == 0.0 else ()
    if degenerate and not allow_degenerate:
        raise DegenerateDivisorError(
            f"rotation is rational to working precision: lam^p = 1 for p in {degenerate[:4]}")
    return DivisorTable(rot, m_max, d1, omega, degenerate)


def _runs(values: Sequence[float]) -> list[tuple[float, int]]:
    """(value, length) of each run of entries with equal bits, values as
    plain floats: 0.0 and -0.0 run apart, identical NaNs together.

    The entries are copied into a double array.  A span is one run when its
    bits equal themselves shifted by one, which memoryview compares in C, so
    each run's end is found by bisection without visiting its entries in
    Python.  The first probe is the whole rest: a chunk of omega is mostly
    one run."""
    col = memoryview(_doubles(values))
    bits = col.cast("B").cast("q")
    n, runs, s = len(col), [], 0
    while s < n:
        e, hi, mid = s + 1, n + 1, n    # col[s:e] is one run, col[s:hi] is not
        while hi - e > 1:
            if bits[s + 1:mid] == bits[s:mid - 1]:
                e = mid
            else:
                hi = mid
            mid = (e + hi) // 2
        runs.append((col[s], e - s))
        s = e
    return runs


def _nonvanishing(omega: Sequence[float]) -> Sequence[float]:
    """omega itself, or DegenerateDivisorError where an entry has vanished
    (or is NaN): its logarithm, and every gauge built on it, is undefined."""
    if not all(o > 0.0 for o in omega):
        raise DegenerateDivisorError("omega vanished; its logarithm is undefined")
    return omega


def brjuno_partial_sum(table: DivisorTable, K: int) -> float:
    """sum_{k=0}^{K} 2^-k log(1/omega(2^{k+1})) over the tabulated divisors."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    if 2 ** (K + 1) > table.m_max:
        raise ValueError(f"table holds m_max={table.m_max} < 2^{K + 1}")
    om = _nonvanishing([table.omega[2 ** (k + 1)] for k in range(K + 1)])
    total = 0.0
    for k in range(K + 1):
        total += math.log(1.0 / float(om[k])) / 2.0 ** k
    return total


def cremer_exponent(table: DivisorTable, m: int) -> float:
    """(1/m) log(1/omega(m)), the divergence-rate gauge at index m."""
    if not 2 <= m <= table.m_max:
        raise ValueError("m out of table range")
    return math.log(1.0 / float(_nonvanishing([table.omega[m]])[0])) / m


def cremer_running_max(table: DivisorTable, m: int) -> float:
    """max over 2..m of the exponent above."""
    if not 2 <= m <= table.m_max:
        raise ValueError("m out of table range")
    # L/m rounds monotonically in m for a fixed L = log(1/omega), formed as
    # cremer_exponent forms it, so over a run of equal omega the maximum
    # sits at one of the run's two ends.  Every entry equals its run's
    # value, so checking those checks them all; a run split at a chunk's
    # edge keeps its maximum at one of the pieces' ends
    best = -math.inf
    for lo in range(2, m + 1, _CHUNK):
        runs = _runs(table.omega[lo:min(lo + _CHUNK, m + 1)])
        _nonvanishing([v for v, _ in runs])
        first = lo
        for v, n in runs:
            L = math.log(1.0 / v)
            best = max(best, L / first, L / (first + n - 1))
            first += n
    return best


def liouville_quotients(depth: int, growth: Callable[[int], int],
                        frac_bits: int | None = None) -> RotationNumber:
    """Rotation with partial quotients a_n = growth(n), n = 1..depth.

    When `frac_bits` is omitted it is sized from the quotients so that every
    divisor table up to the square of the last convergent denominator stays
    resolvable; requests above MAX_AUTO_FRAC_BITS raise PrecisionError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    qs = []
    for n in range(1, depth + 1):
        a = int(growth(n))
        if a < 1:
            raise ValueError(f"growth({n}) = {a} is not a positive integer")
        qs.append(a)
    if frac_bits is None:
        need = 2 * (sum(a.bit_length() for a in qs) + depth) + 128
        frac_bits = max(DEFAULT_FRAC_BITS, (need + 63) // 64 * 64)
    if frac_bits > MAX_AUTO_FRAC_BITS:
        raise PrecisionError(f"auto-sized frac_bits={frac_bits} exceeds the "
                             f"ceiling {MAX_AUTO_FRAC_BITS}")
    return RotationNumber.from_quotients(qs, frac_bits)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def rotation_to_json(rot: RotationNumber) -> dict:
    out = {"kind": rot.kind, "frac_bits": rot.frac_bits}
    out.update(rot.params)
    return out


def rotation_from_json(obj: dict | str) -> RotationNumber:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("rotation JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    bits = int(obj.get("frac_bits", DEFAULT_FRAC_BITS))
    if kind == "surd":
        return RotationNumber.from_surd(int(obj["p"]), int(obj["q"]),
                                        int(obj["r"]), int(obj["s"]), bits)
    if kind == "quotients":
        return RotationNumber.from_quotients([int(a) for a in obj["quotients"]], bits)
    if kind == "decimal":
        return RotationNumber.from_decimal(str(obj["decimal"]), bits)
    raise ValueError(f"unknown rotation kind {kind!r}")


def write_divisor_csv(table: DivisorTable, path) -> None:
    """Columns: m, dlam, omega, cremer_exponent, one row per m = 2..m_max,
    lines ended by CRLF; dlam = |lam^m - lam| is d1[m - 1].  Rows are
    formatted column-wise _CHUNK at a time, each chunk read as plain
    doubles.  omega is a running minimum, so its text and log(1/omega) (inf
    where omega is not positive) are formed once per run of equal values."""
    with open(path, "w", newline="") as fh:
        fh.write("m,dlam,omega,cremer_exponent\r\n")
        for lo in range(2, table.m_max + 1, _CHUNK):
            hi = min(lo + _CHUNK, table.m_max + 1)
            om_text: list[str] = []
            logs: list[float] = []
            for v, n in _runs(table.omega[lo:hi]):
                om_text += [repr(v)] * n
                logs += [math.log(1.0 / v) if v > 0.0 else math.inf] * n
            fh.write("".join([
                f"{m},{d!r},{t},{g / m!r}\r\n" for m, d, t, g in zip(
                    range(lo, hi), _doubles(table.d1[lo - 1:hi - 1]),
                    om_text, logs)]))
