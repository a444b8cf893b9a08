"""Truncated power series in z, vertical polynomials in w, and the three
fiber changes that conjugate skew maps over a rigid rotation base.

Coefficients are stored as complex mantissas and int64 binary exponents
(mant[n] * 2^exp2[n], |mant[n]| in [1, 2) or an exact zero with exponent 0)
so that conjugation chains and divergence experiments survive arbitrary
magnitude growth; every sum of such terms goes through `_aligned_sum`.
Single values travel as (m, e) pairs of a Python complex and int, through
`_norm1` and `_sum1`; `s[n]` reads one coefficient back as a double.
Operations are exact ring arithmetic modulo z^{N+1} (and w^{D_w+1} for
germs) up to floating rounding; mismatched truncations are rejected.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterable, NamedTuple, Sequence

from ._np import np
from .errors import DegenerateDivisorError, TruncationMismatchError
from .rotation import RotationNumber, rotation_from_json, rotation_to_json, \
    unit_powers

_SENT = -(1 << 61)  # exponent of zero terms; a sum of two still fits in int64
_FLOOR = -1100      # alignment shifts this low underflow to zero anyway
_DROP_BITS = 110    # a scalar addend this far below the other cannot move it


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j (lowest order first), Horner from the top
    coefficient.  x may be an array: numpy forms scalar * array exactly as
    it forms the broadcast array product, bit for bit."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Array kernels on (mantissa, exponent) pairs
# ---------------------------------------------------------------------------

def _cmul(a, b):
    """a * b elementwise (broadcast) as CPython forms a complex product,
    each real operation rounded on its own.  numpy's X86_V3 (AVX2 + FMA3)
    loops fuse them, so its own product moves with the CPU."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _normalize(m, e):
    """m * 2^e rescaled so that |m| lies in [1, 2); zeros become (0, 0)."""
    frac, be = np.frexp(np.abs(m))
    nz, s = frac != 0, 1 - be
    out = m * np.ldexp(1.0, np.minimum(s, 1023))
    tiny = s > 1023   # |m| < 2^-1022, where 2^s overflows: scale in two halves
    if tiny.any():
        half = s // 2
        out = np.where(tiny, m * np.ldexp(1.0, half) * np.ldexp(1.0, s - half), out)
    return np.where(nz, out, 0), np.where(nz, e + (be - 1), 0)


def _norm1(m: complex, e: int) -> tuple[complex, int]:
    """The scalar m * 2^e as a normalized pair, rescaling only when
    |m| lies outside [1, 2)."""
    if m == 0:
        return 0j, 0
    a = abs(m)
    if 1.0 <= a < 2.0:
        return m, e
    s = 1 - math.frexp(a)[1]
    return complex(math.ldexp(m.real, s), math.ldexp(m.imag, s)), e - s


def _sum1(am: complex, ae: int, bm: complex, be: int) -> tuple[complex, int]:
    """The scalar sum of two pairs, the smaller one shifted onto the larger
    one's exponent and dropped when _DROP_BITS below it."""
    if am == 0:
        return bm, be
    if bm == 0:
        return am, ae
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    d = ae - be
    if d >= _DROP_BITS:
        return am, ae
    return _norm1(am + complex(math.ldexp(bm.real, -d), math.ldexp(bm.imag, -d)), ae)


def _double(m: complex, e: int) -> complex:
    """The scalar m * 2^e as a double: OverflowError above 2^1020, 0 below
    2^-1060 (the rule of `TruncatedSeries.to_complex_list`)."""
    if m == 0 or e < -1060:
        return 0j
    if e > 1020:
        raise OverflowError(f"value 2^{e} exceeds double range")
    return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))


def _aligned_sum(m, e, gid=None, starts=None):
    """Normalized sums of the terms m * 2^e over the last axis, or over its
    segments beginning at `starts` (`gid` gives each term's segment).

    Each segment is scaled to its own largest exponent before the add, so a
    term is lost only where it lies over 1000 bits below that one.
    """
    e = np.where(m != 0, e, _SENT)
    if starts is None:
        top = e.max(axis=-1, keepdims=True, initial=2 * _SENT)
        shift, top = e - top, top[..., 0]
    else:
        top = np.maximum.reduceat(e, starts, axis=-1)
        shift = e - np.take(top, gid, axis=-1)
    w = m * np.ldexp(1.0, np.maximum(shift, _FLOOR).astype(np.int32))
    s = w.sum(axis=-1) if starts is None else np.add.reduceat(w, starts, axis=-1)
    return _normalize(s, top)


def _zeros(*shape):
    """Zero (mantissa, exponent) arrays."""
    return np.zeros(shape, complex), np.zeros(shape, np.int64)


def _add(am, ae, bm, be):
    """Elementwise a + b."""
    return _aligned_sum(np.stack((am, bm), -1), np.stack((ae, be), -1))


def _over(m, e, dm, de) -> tuple[complex, int]:
    """The scalar (m * 2^e) / (dm * 2^de), normalized, as one Python
    complex division.  Every recursion divides here, so this is where a
    small divisor that vanished (a rational rotation) is rejected."""
    if dm == 0:
        raise DegenerateDivisorError("lam^p - 1 vanishes to working precision")
    return _norm1(complex(m) / complex(dm), int(e - de))


@functools.lru_cache(maxsize=None)
def _cauchy_layout(n: int):
    """Index pairs (q, r) with q + r <= n grouped by p = q + r: q, r, the
    group p of each pair and the first pair of every group."""
    p = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    starts = np.cumsum(np.arange(n + 1))
    q = np.arange(len(p)) - starts[p]
    return q, p - q, p, starts


def _cauchy(am, ae, bm, be):
    """Cauchy products of a and b along the last axis (broadcast over the
    others), cut at their common order."""
    q, r, gid, starts = _cauchy_layout(am.shape[-1] - 1)
    return _aligned_sum(_cmul(np.take(am, q, axis=-1), np.take(bm, r, axis=-1)),
                        np.take(ae, q, axis=-1) + np.take(be, r, axis=-1),
                        gid, starts)


def _log2_abs(m, e):
    """log2 |m * 2^e| elementwise; -inf at zeros."""
    with np.errstate(divide="ignore"):
        return e + np.log2(np.abs(m))


def _close(am, ae, bm, be, rtol: float) -> bool:
    """Elementwise equality relative to the larger magnitude of a and b,
    with the absolute floor 2^-1000."""
    ref = _log2_abs(np.stack((am, bm)), np.stack((ae, be))).max(initial=-math.inf)
    if ref == -math.inf:
        return True
    cut = max(ref + math.log2(rtol), -1000.0)
    return bool(np.all(_log2_abs(*_add(am, ae, -bm, be)) <= cut))


class TruncatedSeries:
    """A power series in z cut at order N (exactly N+1 coefficients), built
    from doubles (anything `complex()` accepts; wider values go through
    `series_from_triples`).  `s[n]` reads coefficient n as a double.
    Instances never change their arrays."""

    __slots__ = ("mant", "exp2")

    def __init__(self, coeffs: Iterable):
        vals = [_norm1(complex(c), 0) for c in coeffs]
        if not vals:
            raise ValueError("a truncated series needs at least the constant term")
        # the array product signs zeros as every kernel does: -0-1j -> 0-1j
        self.mant, self.exp2 = _normalize(np.array([m for m, _ in vals], complex),
                                          np.array([e for _, e in vals], np.int64))

    @classmethod
    def _of(cls, m: np.ndarray, e: np.ndarray) -> "TruncatedSeries":
        """Wrap normalized arrays without copying them."""
        s = cls.__new__(cls)
        s.mant, s.exp2 = m, e
        return s

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n: int) -> "TruncatedSeries":
        return TruncatedSeries._of(*_zeros(n + 1))

    @staticmethod
    def constant(value, n: int) -> "TruncatedSeries":
        return TruncatedSeries.from_list([value], n)

    @staticmethod
    def one(n: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(1.0, n)

    @staticmethod
    def identity(n: int) -> "TruncatedSeries":
        """The series z."""
        return TruncatedSeries.from_list([0, 1][:n + 1], n)

    @staticmethod
    def from_list(values: Iterable, n: int) -> "TruncatedSeries":
        vals = list(values)
        if len(vals) > n + 1:
            raise ValueError("more coefficients than the truncation order allows")
        return TruncatedSeries(vals + [0] * (n + 1 - len(vals)))

    # -- basics -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.mant) - 1

    def __len__(self) -> int:
        return len(self.mant)

    def __getitem__(self, n: int) -> complex:
        return _double(complex(self.mant[n]), int(self.exp2[n]))

    def constant_term(self) -> complex:
        return self[0]

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise TruncationMismatchError(
                f"series truncations differ: {self.order} vs {other.order}")

    def max_abs_log2(self, start: int = 0) -> float:
        """log2 of the largest coefficient modulus from order `start` on."""
        return float(_log2_abs(self.mant[start:], self.exp2[start:])
                     .max(initial=-math.inf))

    def to_complex_list(self) -> list[complex]:
        """Coefficients as doubles: OverflowError above, 0 below 2^-1060."""
        m, e = self.mant, self.exp2
        big = (e > 1020) & (m != 0)
        if big.any():
            raise OverflowError(f"value 2^{e[big][0]} exceeds double range")
        out = np.empty(len(m), complex)
        out.real, out.imag = np.ldexp(m.real, e), np.ldexp(m.imag, e)
        return np.where((m == 0) | (e < -1060), 0, out).tolist()

    def approx_eq(self, other: "TruncatedSeries", rtol: float = 1e-9) -> bool:
        """Coefficientwise equality relative to the larger series magnitude,
        with the absolute floor 2^-1000."""
        self._check(other)
        return _close(self.mant, self.exp2, other.mant, other.exp2, rtol)

    def __repr__(self) -> str:
        return f"TruncatedSeries({series_to_triples(self)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries._of(*_add(self.mant, self.exp2,
                                         other.mant, other.exp2))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries._of(*_add(self.mant, self.exp2,
                                         -other.mant, other.exp2))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(-self.mant, self.exp2)

    def scale(self, m: complex, e: int) -> "TruncatedSeries":
        """The series times the scalar pair m * 2^e."""
        return TruncatedSeries._of(*_normalize(_cmul(self.mant, complex(m)),
                                               self.exp2 + e))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries._of(*_cauchy(self.mant, self.exp2,
                                            other.mant, other.exp2))

    # no library caller: the benchmark's tracer wraps this method by name
    def pow(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise ValueError("negative series powers are not defined here")
        acc = TruncatedSeries.one(self.order)
        for _ in range(e):
            acc = acc * self
        return acc

    def reciprocal(self) -> "TruncatedSeries":
        """1/self modulo z^{N+1}, one aligned dot per new coefficient;
        needs a nonzero constant term."""
        cm, ce = self.mant[0], self.exp2[0]
        if cm == 0:
            raise ZeroDivisionError("series has vanishing constant term")
        m, e = _zeros(len(self))
        m[0], e[0] = _over(1.0, 0, cm, ce)
        for k in range(1, len(self)):
            acc = _aligned_sum(_cmul(self.mant[1:k + 1], m[k - 1::-1]),
                               self.exp2[1:k + 1] + e[k - 1::-1])
            m[k], e[k] = _over(-acc[0], acc[1], cm, ce)
        return TruncatedSeries._of(m, e)


def rotate(s: TruncatedSeries, rot: RotationNumber, power: int) -> TruncatedSeries:
    """Substitute z -> lam^power * z: coefficient n picks up lam^(n*power)."""
    if power == 0:
        return s
    f = np.array(unit_powers(rot, (len(s) - 1) * abs(power))[::abs(power)])
    if power < 0:
        f = f.conjugate()
    return TruncatedSeries._of(*_normalize(_cmul(s.mant, f), s.exp2))


# ---------------------------------------------------------------------------
# Vertical polynomials: row j of a (mantissa, exponent) pair holds w^j
# ---------------------------------------------------------------------------

def _rows(series: Sequence[TruncatedSeries]) -> tuple[np.ndarray, np.ndarray]:
    return (np.stack([s.mant for s in series]),
            np.stack([s.exp2 for s in series]))


def _series_list(m: np.ndarray, e: np.ndarray) -> list[TruncatedSeries]:
    return [TruncatedSeries._of(mj, ej) for mj, ej in zip(m, e)]


def _wpoly_zero(n: int, dw: int) -> list[TruncatedSeries]:
    return [TruncatedSeries.zero(n) for _ in range(dw + 1)]


def _wpoly_mul(a, b, dw: int):
    """a(w) b(w) cut at w^dw, on row arrays: the Cauchy products of the
    nonzero row pairs a_i b_j with i + j <= dw in batches of 8 (D_w+1) pairs
    (temporaries stay O((D_w+1) (N+1)^2)), then an aligned sum over i."""
    (am, ae), (bm, be) = a, b
    pm, pe = _zeros(dw + 1, am.shape[1], dw + 1)   # [i + j, p, i]: a_i b_j
    ia, jb = (np.flatnonzero(x[:dw + 1].any(axis=1)) for x in (am, bm))
    i, j = np.nonzero(np.add.outer(ia, jb) <= dw)
    i, j, step = ia[i], jb[j], 8 * (dw + 1)
    for s in range(0, len(i), step):
        ic, jc = i[s:s + step], j[s:s + step]
        pm[ic + jc, :, ic], pe[ic + jc, :, ic] = _cauchy(am[ic], ae[ic], bm[jc], be[jc])
    return _aligned_sum(pm, pe)


def _compose(outer, inner, dw: int):
    """outer(inner(w)) cut at w^dw, on row arrays, Horner in w."""
    om, oe = outer
    acc = _zeros(dw + 1, om.shape[1])
    for j in range(len(om) - 1, -1, -1):
        acc = _wpoly_mul(acc, inner, dw)
        acc[0][0], acc[1][0] = _add(acc[0][0], acc[1][0], om[j], oe[j])
    return acc


def _wpoly_compose(outer: Sequence[TruncatedSeries], inner: Sequence[TruncatedSeries],
                   dw: int) -> list[TruncatedSeries]:
    """outer(inner(w)) truncated at w^dw."""
    return _series_list(*_compose(_rows(outer), _rows(inner), dw))


def reversion_in_w(h: TruncatedSeries, k: int,
                   dw: int) -> list[TruncatedSeries]:
    """Coefficients of the w-inverse of w -> w + h(z) w^{k+1}, up to w^dw.

    Lagrange inversion in closed form: the inverse is
    sum_n (-1)^n C((k+1)n, n)/(kn+1) h^n w^{kn+1}, so it takes one series
    product per power of h and no fixed-point pass.  The integer constant
    enters as a (mantissa, exponent) pair, since it leaves the double range
    near n = 500 when k = 1; the w^{k+1} coefficient is exactly -h.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rev = _wpoly_zero(h.order, dw)
    rev[1] = TruncatedSeries.one(h.order)
    if k + 1 <= dw:
        rev[k + 1] = -h
    p = h
    for n in range(2, (dw - 1) // k + 1):
        p = p * h
        c = math.comb((k + 1) * n, n) // (k * n + 1)
        e = c.bit_length() - 1
        rev[k * n + 1] = p.scale((-1) ** n * (c / (1 << e)), e)
    return rev


# ---------------------------------------------------------------------------
# Skew germs and fiber changes
# ---------------------------------------------------------------------------

class SkewGerm:
    """F(z,w) = (lam z, sum_j a_j(z) w^j) truncated at (z^N, w^D_w).

    `d` records the vertical degree of the original polynomial; entries
    above d hold tail terms created by conjugation.  `radius` is the
    validity radius for numeric z-evaluation, the same for every germ.
    """

    __slots__ = ("rot", "a", "d")
    radius = 0.1

    def __init__(self, rot: RotationNumber, a: Sequence[TruncatedSeries],
                 d: int | None = None):
        self.rot = rot
        self.a = tuple(a)
        if len(self.a) < 2:
            raise ValueError("a germ needs w-degree at least 1")
        n = self.a[0].order
        for s in self.a:
            if s.order != n:
                raise TruncationMismatchError("all vertical coefficients must share N")
        if d is None:
            d = len(self.a) - 1
        if not 1 <= d <= len(self.a) - 1:
            raise ValueError("vertical degree d out of range")
        self.d = d

    @property
    def n_trunc(self) -> int:
        return self.a[0].order

    @property
    def dw(self) -> int:
        return len(self.a) - 1

    def fiber_constants(self) -> list[complex]:
        """a_j(0) for all j: the vertical map on the invariant fiber."""
        return [s.constant_term() for s in self.a]

    def approx_eq(self, other: "SkewGerm", rtol: float = 1e-9) -> bool:
        """Coefficientwise equality relative to the larger germ magnitude."""
        if self.dw != other.dw or self.n_trunc != other.n_trunc:
            return False
        return _close(*_rows(self.a), *_rows(other.a), rtol)

    def max_abs_log2(self) -> float:
        return max(s.max_abs_log2() for s in self.a)

    def __repr__(self) -> str:
        return (f"SkewGerm(d={self.d}, N={self.n_trunc}, D_w={self.dw}, "
                f"theta~{self.rot.theta():.6f})")


class Shift(NamedTuple):
    """(z, w) -> (z, w + phi(z)): straightens an invariant graph."""
    phi: TruncatedSeries


class Gauge:
    """(z, w) -> (z, w (1 + psi(z))): rescales the linear coefficient."""
    __slots__ = ("psi",)

    def __init__(self, psi: TruncatedSeries):
        if psi.mant[0] == -1 and psi.exp2[0] == 0:  # 1 + psi(0) == 0
            raise ValueError("gauge factor 1 + psi(0) must not vanish")
        self.psi = psi


class Bump:
    """(z, w) -> (z, w + h(z) w^{k+1}): pushes z-dependence up one order.

    Constant h (nonzero at z = 0) is allowed: the resonance-elimination
    steps of the parabolic reduction use exactly that shape.
    """
    __slots__ = ("h", "k")

    def __init__(self, h: TruncatedSeries, k: int):
        if k < 1:
            raise ValueError("bump order k must be at least 1")
        self.h, self.k = h, k


class WScale:
    """(z, w) -> (z, c w) with c != 0."""
    __slots__ = ("c",)

    def __init__(self, c: complex):
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        self.c = c


FiberChange = Shift | Gauge | Bump | WScale


def conjugate(F: SkewGerm, ch: FiberChange) -> SkewGerm:
    """Phi^{-1} o F o Phi truncated to (N, D_w), Phi acting as identity on z."""
    n, dw = F.n_trunc, F.dw
    for kind, s in ((Shift, "phi"), (Gauge, "psi"), (Bump, "h")):
        if isinstance(ch, kind) and getattr(ch, s).order != n:
            raise TruncationMismatchError(
                f"{kind.__name__.lower()} series truncation differs from germ")
    one = TruncatedSeries.one(n)
    inner = _wpoly_zero(n, dw)   # D_w >= 1 for every germ
    inner[1] = one
    if isinstance(ch, Shift):
        inner[0] = ch.phi
        new = _wpoly_compose(F.a, inner, dw)
        new[0] = new[0] - rotate(ch.phi, F.rot, 1)
        return SkewGerm(F.rot, new, d=F.d)

    if isinstance(ch, Gauge):
        factor = one + ch.psi
        denom = one + rotate(ch.psi, F.rot, 1)
        if denom.mant[0] == 0:
            raise ZeroDivisionError("1 + psi(lam z) has vanishing constant term")
        new, fp = [], denom.reciprocal()  # fp = factor^j / denom
        for aj in F.a:
            new.append(aj * fp)
            fp = fp * factor
        return SkewGerm(F.rot, new, d=F.d)

    if isinstance(ch, Bump):
        h, k = ch.h, ch.k
        if k + 1 <= dw:
            inner[k + 1] = h
        mid = _wpoly_compose(F.a, inner, dw)
        inv = reversion_in_w(rotate(h, F.rot, 1), k, dw)
        new = _wpoly_compose(inv, mid, dw)
        return SkewGerm(F.rot, new, d=F.d)

    if isinstance(ch, WScale):
        cm, ce = _norm1(complex(ch.c), 0)
        new, (pm, pe) = [], _norm1(1 / cm, -ce)  # c^{j-1}, may leave double range
        for aj in F.a:
            new.append(aj.scale(pm, pe))
            pm, pe = _norm1(pm * cm, pe + ce)
        return SkewGerm(F.rot, new, d=F.d)

    raise TypeError(f"unknown fiber change {ch!r}")


def retruncate(F: SkewGerm, n: int | None = None,
               dw: int | None = None) -> SkewGerm:
    """Extend or cut the truncation orders; new slots hold zeros."""
    new_n = F.n_trunc if n is None else int(n)
    new_dw = F.dw if dw is None else int(dw)
    if new_n < 0 or new_dw < 1:
        raise ValueError("truncations must satisfy N >= 0, D_w >= 1")

    def fit(s: TruncatedSeries) -> TruncatedSeries:
        if new_n == s.order:
            return s
        out = TruncatedSeries.zero(new_n)
        keep = min(new_n, s.order) + 1
        out.mant[:keep], out.exp2[:keep] = s.mant[:keep], s.exp2[:keep]
        return out

    a = [fit(s) for s in F.a[:new_dw + 1]]
    a += [TruncatedSeries.zero(new_n) for _ in range(new_dw + 1 - len(a))]
    return SkewGerm(F.rot, a, d=min(F.d, new_dw))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def series_to_triples(s: TruncatedSeries) -> list[list]:
    """[re, im, exp2] per coefficient, as plain Python numbers."""
    return [list(t) for t in zip(s.mant.real.tolist(), s.mant.imag.tolist(),
                                 s.exp2.tolist())]


def series_from_triples(triples: Sequence[Sequence], n: int) -> TruncatedSeries:
    """Coefficients from [re, im, exp2] triples: exactly three entries, finite
    real re and im and an integral exp2; anything else is a ValueError."""
    m, e = [], []
    for t in triples:
        if not (isinstance(t, (list, tuple)) and len(t) == 3
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) for v in t)
                and float(t[2]).is_integer()):
            raise ValueError(f"coefficient {t!r} is not a [re, im, exp2] triple "
                             "of finite reals and an integer exponent")
        m.append(complex(t[0], t[1]))
        e.append(int(t[2]))
    if len(m) != n + 1 or n < 0:
        raise ValueError(f"expected {n + 1} coefficients, got {len(m)}")
    return TruncatedSeries._of(*_normalize(np.array(m, complex),
                                           np.array(e, np.int64)))


def germ_to_json(F: SkewGerm) -> dict:
    return {
        "rotation": rotation_to_json(F.rot),
        "degree": F.d,
        "trunc": {"z": F.n_trunc, "w": F.dw},
        "coeffs": [series_to_triples(s) for s in F.a],
    }


def germ_from_json(obj: dict | str) -> SkewGerm:
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        rot = rotation_from_json(obj["rotation"])
        n = int(obj["trunc"]["z"])
        dw = int(obj["trunc"]["w"])
        d = int(obj["degree"])
        coeffs = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed germ JSON: {exc}") from exc
    if len(coeffs) != dw + 1:
        raise ValueError(f"germ JSON needs {dw + 1} vertical coefficients")
    a = [series_from_triples(t, n) for t in coeffs]
    return SkewGerm(rot, a, d=d)
