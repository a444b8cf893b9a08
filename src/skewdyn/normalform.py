"""Normalization pipeline for skew germs over an irrational rotation.

The base map is z -> lam z: a Brjuno rotation is linearizable, and
`SkewGerm` fixes the base in that linear form.  Three cohomological
recursions (invariant curve, linear gauge, order bumps) are chained until
the vertical map has z-independent coefficients up to a requested w-order;
a final constant-coefficient reduction brings the parabolic jet to the
shape w - w^{k+1} + b w^{2k+1}.
Every solved series divides by small divisors lam^p - 1, so a degenerate
(rational) rotation aborts the recursion.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple

from ._np import np
from .errors import LinearFiberError
from .rotation import lam_power, unit_column
from .series import (Bump, FiberChange, Gauge, Shift, SkewGerm, TruncatedSeries,
                     WScale, _aligned_sum, _horner, _over, _rows, _zeros,
                     conjugate)

_PRE_TOL = 1e-9       # tolerance for the parabolic-fiber preconditions
JET_ZERO_RTOL = 1e-10  # a constant counts as zero below this fraction of the jet


def _require_parabolic_point(cs: list[complex]) -> None:
    """ValueError unless the fiber constants have a_0(0) = 0, a_1(0) = 1."""
    if abs(cs[0]) > _PRE_TOL or abs(cs[1] - 1.0) > _PRE_TOL:
        raise ValueError("germ must satisfy g_0(0) = 0 and g_0'(0) = 1")


def _next_powers(pm: np.ndarray, pe: np.ndarray, p: int) -> None:
    """Coefficient p of s^j (j >= 2) in the table whose row j is s^j; with
    s_0 = 0 it needs only s_1..s_{p-1}, so it is filled before s_p."""
    top = len(pm) - 1
    pm[2:, p], pe[2:, p] = _aligned_sum(pm[1:top, :p] * pm[1, p:0:-1],
                                        pe[1:top, :p] + pe[1, p:0:-1])


def solve_invariant_curve(F: SkewGerm) -> TruncatedSeries:
    """Solve sum_j a_j(z) phi(z)^j = phi(lam z) with phi(0) = 0.

    Requires the parabolic-fiber normal base point a_0(0) = 0, a_1(0) = 1;
    the root phi_0 = 0 of the constant-term equation is hard-coded.
    """
    _require_parabolic_point(F.fiber_constants())
    am, ae = _rows(F.a)
    col = unit_column(F.rot, F.n_trunc)
    pm, pe = _zeros(F.dw + 1, F.n_trunc + 1)   # row j: phi^j
    pm[0, 0] = 1.0
    for p in range(1, F.n_trunc + 1):
        _next_powers(pm, pe, p)
        # [z^p] sum_j a_j phi^j; its a_1(0) phi_p term is still zero here
        # and sits in the divisor instead
        rhs = _aligned_sum((am[:, :p + 1] * pm[:, p::-1]).ravel(),
                           (ae[:, :p + 1] + pe[:, p::-1]).ravel())
        pm[1, p], pe[1, p] = _over(*rhs, col.mant[p], col.exp2[p])
    return TruncatedSeries._of(pm[1], pe[1])


def solve_linear_gauge(F: SkewGerm) -> TruncatedSeries:
    """Solve psi(z)(1 + abar(z)) - psi(lam z) + abar(z) = 0, abar = a_1 - 1.

    After conjugating by the gauge (z, w(1+psi(z))) the linear coefficient
    is identically one through the truncation.
    """
    n = F.n_trunc
    abar = F.a[1] - TruncatedSeries.one(n)
    if abs(abar.constant_term()) > _PRE_TOL:
        raise ValueError("gauge step needs a_1(0) = 1")
    # q = 1 + psi: psi_p (lam^p - 1) = [z^p] abar q without the abar_0 psi_p term
    col = unit_column(F.rot, n)
    qm, qe = _zeros(n + 1)
    qm[0] = 1.0
    for p in range(1, n + 1):
        rhs = _aligned_sum(abar.mant[1:p + 1] * qm[p - 1::-1],
                           abar.exp2[1:p + 1] + qe[p - 1::-1])
        qm[p], qe[p] = _over(*rhs, col.mant[p], col.exp2[p])
    qm[0] = 0.0
    return TruncatedSeries._of(qm, qe)


def solve_order_bump(F: SkewGerm, k: int) -> TruncatedSeries:
    """Solve xi(z) - xi(lam z) + alpha_{k+1}(z) = alpha_{k+1}(0).

    Coefficientwise xi_n = alpha_{k+1,n} / (lam^n - 1), xi_0 = 0; after the
    bump (z, w + xi(z) w^{k+1}) the w^{k+1} coefficient is constant.
    """
    if not 1 <= k < F.dw:
        raise ValueError("bump order must satisfy 1 <= k < D_w")
    alpha = F.a[k + 1]
    col = unit_column(F.rot, F.n_trunc)
    xi = TruncatedSeries.zero(F.n_trunc)
    for p in (np.flatnonzero(alpha.mant[1:]) + 1).tolist():  # only nonzero ones
        xi.mant[p], xi.exp2[p] = _over(alpha.mant[p], alpha.exp2[p],
                                       col.mant[p], col.exp2[p])
    return xi


# ---------------------------------------------------------------------------
# The assembled pipeline
# ---------------------------------------------------------------------------

class ChangeLog:
    """Ordered fiber changes applied by the pipeline, plus the base change
    `sigma`, which is the identity: the base map is already z -> lam z."""
    __slots__ = ("sigma", "changes")

    def __init__(self, sigma: TruncatedSeries,
                 changes: list[FiberChange] | None = None):
        self.sigma = sigma
        self.changes = [] if changes is None else changes

    def replay(self, F: SkewGerm) -> SkewGerm:
        """Re-apply every change to the original germ."""
        cur = F
        for ch in self.changes:
            cur = conjugate(cur, ch)
        return cur


def _poly_mul(a: list[complex], b: list[complex]) -> list[complex]:
    """a(w) b(w) on plain complex coefficient lists, cut at len(a)."""
    out = [0j] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:len(a) - i]):
                out[i + j] += x * y
    return out


def _poly_compose(outer: list[complex], inner: list[complex]) -> list[complex]:
    """outer(inner(w)) on plain complex coefficient lists, cut at
    len(inner), Horner in w."""
    acc = [0j] * len(inner)
    for c in reversed(outer):
        acc = _poly_mul(acc, inner)
        acc[0] += c
    return acc


def conjugacy_defect(F: SkewGerm, log: ChangeLog, G: SkewGerm) -> float:
    """How far the logged changes are from conjugating F to G, checked on
    sample fibers with code that shares nothing with `conjugate`.

    With Psi = Phi_1 o ... o Phi_m (the last logged change acts first),
    F o Psi = Psi o G reads g_z(Psi_z(w)) = Psi_{lam z}(G_z(w)) fiber by
    fiber.  At four base points on |z| = rho = min(0.05, 2^(-(53 + L)/(N+1))),
    L = max(0, log2 of the largest coefficient of F and G), where the
    z-truncation term |z|^(N+1) times any coefficient stays below 2^-53,
    every change and both germs are read as plain complex polynomials in w
    cut at w^{D_w}.  Returns the largest |[w^j]| of the difference over the
    points and j <= D_w, relative to max(1, largest modulus among the
    compared coefficients); inf when a value leaves the double range.
    """
    n, dw = G.n_trunc, G.dw
    top = max(0.0, F.max_abs_log2(), G.max_abs_log2())
    rho = min(0.05, 2.0 ** (-(53 + top) / (n + 1)))
    zs = [rho * cmath.exp(0.5j * math.pi * (j + 0.5)) for j in range(4)]
    lam = lam_power(G.rot, 1)
    pts = zs + [lam * z for z in zs]   # Psi is needed at z and at lam z

    def at(s: TruncatedSeries, where: list[complex]) -> list[complex]:
        cs = s.to_complex_list()
        return [_horner(cs, z) for z in where]

    try:
        psis = [[0j, 1 + 0j] + [0j] * (dw - 1) for _ in pts]
        for ch in reversed(log.changes):
            if isinstance(ch, Shift):
                for p, v in zip(psis, at(ch.phi, pts)):
                    p[0] += v
            elif isinstance(ch, Gauge):
                psis = [[(1 + v) * c for c in p]
                        for p, v in zip(psis, at(ch.psi, pts))]
            elif isinstance(ch, Bump):
                bumped = []
                for p, v in zip(psis, at(ch.h, pts)):
                    q = p
                    for _ in range(ch.k):
                        q = _poly_mul(q, p)
                    bumped.append([a + v * b for a, b in zip(p, q)])
                psis = bumped
            elif isinstance(ch, WScale):
                psis = [[ch.c * c for c in p] for p in psis]
            else:
                raise TypeError(f"unknown fiber change {ch!r}")
        g = list(zip(*(at(s, zs) for s in F.a)))    # g[i][j] = a_j(z_i)
        gn = list(zip(*(at(s, zs) for s in G.a)))
    except OverflowError:
        return math.inf
    pairs = [xy for i in range(len(zs))
             for xy in zip(_poly_compose(g[i], psis[i]),
                           _poly_compose(psis[len(zs) + i], gn[i]))]
    errs = [abs(x - y) for x, y in pairs]
    if not all(map(math.isfinite, errs)):
        return math.inf
    return max(errs) / max(1.0, *(abs(v) for xy in pairs for v in xy))


class NormalForm(NamedTuple):
    """Vertical map with constant coefficients through w^{k+h+1}.

    jet[i] is the coefficient of w^{k+1+i}; tail lists the z-dependent
    coefficients from order k+h+2 up to the w-truncation.  After the
    parabolic reduction, `b` carries the coefficient of w^{2k+1}.
    """
    k: int
    h: int
    jet: list[complex]
    tail: list[TruncatedSeries]
    germ: SkewGerm
    original_constants: list[complex]
    # read-only, as a NamedTuple default is one object shared by every record
    stage_residuals: Mapping[str, float] = MappingProxyType({})
    b: complex | None = None

    def tail_defect(self) -> float:
        """max |alpha_m(0) - g_{0,m}| over the reported tail orders."""
        worst = 0.0
        base = self.k + self.h + 2
        for i, s in enumerate(self.tail):
            m = base + i
            orig = self.original_constants[m] if m < len(self.original_constants) else 0j
            worst = max(worst, abs(s.constant_term() - orig))
        return worst

    def z_dependence_defect(self) -> float:
        """Largest |z^{>=1} coefficient| among the constant-jet orders."""
        top = min(self.k + self.h + 1, self.germ.dw)
        return 2.0 ** max(s.max_abs_log2(1) for s in self.germ.a[:top + 1])


def detect_parabolic_order(F) -> int:
    """The parabolic-fiber rule: the order k of F's fiber map at z = 0, the
    least k >= 1 with g_{0,k+1} above the zero cliff.  ValueError unless
    a_0(0) = 0 and a_1(0) = 1; LinearFiberError if no such k exists."""
    cs = F.fiber_constants()
    _require_parabolic_point(cs)
    mags = [abs(c) for c in cs[2:]]
    cliff = JET_ZERO_RTOL * max(mags, default=0.0)
    for k, m in enumerate(mags, 1):
        if m > cliff:
            return k
    raise LinearFiberError("vertical map is the identity on the fiber")


def normalize(F: SkewGerm, h_target: int) -> tuple[NormalForm, ChangeLog]:
    """Run curve -> gauge -> bumps until orders 2..k+h_target+1 are constant.

    The bump loop starts at w^2: when k > 1 the low orders carry z-dependent
    coefficients vanishing at z = 0, and the target form has none.
    """
    if h_target < 0:
        raise ValueError("h_target must be nonnegative")
    k = detect_parabolic_order(F)
    cs = F.fiber_constants()
    top = k + h_target + 1
    if top > F.dw:
        raise ValueError(f"depth h={h_target} needs w-truncation >= {top}, "
                         f"germ has {F.dw}")
    residuals: dict[str, float] = {}
    log = ChangeLog(sigma=TruncatedSeries.identity(F.n_trunc))

    def stage_scale(germ: SkewGerm, *extra: TruncatedSeries) -> float:
        mags = [germ.max_abs_log2()] + [s.max_abs_log2() for s in extra]
        return max(1.0, 2.0 ** max(mags))

    phi = solve_invariant_curve(F)
    log.changes.append(Shift(phi))
    cur = conjugate(F, Shift(phi))
    residuals["curve"] = 2.0 ** cur.a[0].max_abs_log2() / stage_scale(cur, phi)

    psi = solve_linear_gauge(cur)
    log.changes.append(Gauge(psi))
    cur = conjugate(cur, Gauge(psi))
    one = TruncatedSeries.one(F.n_trunc)
    residuals["gauge"] = (2.0 ** (cur.a[1] - one).max_abs_log2()
                          / stage_scale(cur, psi))

    for order in range(2, top + 1):
        xi = solve_order_bump(cur, order - 1)
        log.changes.append(Bump(xi, order - 1))
        cur = conjugate(cur, Bump(xi, order - 1))
        residuals[f"bump_w{order}"] = (2.0 ** cur.a[order].max_abs_log2(1)
                                       / stage_scale(cur, xi))

    jet = [cur.a[j].constant_term() for j in range(k + 1, top + 1)]
    tail = [cur.a[m] for m in range(top + 1, F.dw + 1)]
    nf = NormalForm(k=k, h=h_target, jet=jet, tail=tail, germ=cur,
                    original_constants=cs, stage_residuals=residuals)
    return nf, log


def reduce_parabolic_tail(nf: NormalForm,
                          changelog: ChangeLog | None = None) -> NormalForm:
    """Rescale to leading -w^{k+1}, then kill the constant coefficients
    between w^{k+1} and w^{2k+1} with constant bumps; report the residual
    coefficient b of w^{2k+1}.

    Needs depth h >= k so that the jet through w^{2k+1} is constant.  The
    eliminated order m uses the bump power m-k; the division by 2k+1-m is
    nonzero precisely because the resonant order m = 2k+1 is skipped.
    """
    k = nf.k
    if nf.h < k:
        raise ValueError(f"reduction needs depth h >= k (h={nf.h}, k={k})")
    g1 = nf.jet[0]
    if g1 == 0:
        raise ValueError("leading jet coefficient vanished")
    cur = nf.germ
    n = cur.n_trunc
    c = cmath.exp(cmath.log(-1.0 / g1) / k)
    changes: list[FiberChange] = [WScale(c)]
    cur = conjugate(cur, WScale(c))
    for m in range(k + 2, 2 * k + 1):
        cm = cur.a[m].constant_term()
        q = cm / (2 * k + 1 - m)
        ch = Bump(TruncatedSeries.constant(q, n), m - k - 1)
        changes.append(ch)
        cur = conjugate(cur, ch)
    if changelog is not None:
        changelog.changes.extend(changes)
    b = cur.a[2 * k + 1].constant_term() if 2 * k + 1 <= cur.dw else None
    jet = [cur.a[j].constant_term() for j in range(k + 1, min(2 * k + 1, cur.dw) + 1)]
    tail = [cur.a[m] for m in range(2 * k + 2, cur.dw + 1)]
    return NormalForm(k=k, h=k, jet=jet, tail=tail, germ=cur,
                      original_constants=cur.fiber_constants(),
                      stage_residuals=dict(nf.stage_residuals), b=b)
