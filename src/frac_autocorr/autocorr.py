"""The multiplicative autocorrelation A(lambda) = integral {t}{lambda t} t^-2 dt.

Two fully independent evaluation paths:

* ``a_quadrature``: piecewise-exact integration.  For rational lambda = p/q
  the integrand's numerator h has the period q, so A is exactly the head,
  the integral over J periods (each piece as a series in (h/(2t + h))^2 to
  a degree set by tol), plus q^-2 int_0^q h(x) psi'(J + x/q) dx, from the
  moments of the same pieces and Taylor expansions of psi' (J = 1 when a
  period spans several blocks of about _BLOCK pieces, else the cheapest of
  1, 2, 4, .., 64).  The radius sums the head's truncation and rounding
  bounds, the smooth part's Taylor, moment and rounding bounds and a floor,
  all derived; below the size guards no tol raises.  One period's lattice
  is streamed once through a kept 2.1 MB per-thread workspace.
  A float lambda is an exact rational, reduced to a convergent mu with a
  continuity bound on |A(lambda) - A(mu)| added to the radius.
* ``a_rational``: the closed form in Vasyunin sums, batched over arrays of
  reduced (p, q) by ``farey_scan`` and ``a_unit_grid``.

They share nothing beyond primitive arithmetic, which is the point: their
agreement is the verification.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ToleranceError
from .phi import (
    ExpansionCoefficients,
    _c_plus,
    delta as phi_delta,
    delta_power_integral,
    expansion_coeffs,
    phi2_unit_grid,  # noqa: F401  (binding the perfbench tracer wraps)
)
from .piecewise import merged_breakpoints
from .rational_core import FareyScanRecord, farey_pairs
from .specfun import EULER_GAMMA, LOG_2PI, PI, CertifiedReal, trigamma_taylor
from .vasyunin import _v_pairs, modular_inverse, vasyunin_cot


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol < 1e-13:
            raise ValueError("tol below 1e-13 is not supported")


_DEFAULT_QCFG = QuadratureConfig()
# Pieces per period, p + q - 1, capped by time: memory is the block workspace
# at any size, and a quadrature costs about 21 ns a piece at one period
# (shared 2-core x86-64, numpy 2.4), so 11/5 - 2^-21 (2^25 - 6 pieces) takes 0.7 s.
_MAX_PIECES = 2**25
_BLOCK = 1 << 14  # pieces per lattice block; every pass holds one block at a time, in cache


@dataclass(frozen=True)
class LocalModel:
    """Local expansion of A around the rational base p/q:
    predict(t) = A(p/q) + |t| log|t| /(2p) + D^sign(t) t - quad^sign(t) t^2."""

    base: Fraction
    a_at_base: float
    coeffs: ExpansionCoefficients

    def predict(self, t: float) -> float:
        c = self.coeffs
        if t == 0.0:
            return self.a_at_base
        if t > 0:
            d, quad = c.d_plus, c.quad_plus
        else:
            d, quad = c.d_minus, c.quad_minus
        at = abs(t)
        return self.a_at_base + at * math.log(at) / (2 * c.p) + d * t - quad * t * t


# ----------------------------------------------------------------------
# one period of the lattice in blocks: the head and the smooth part
# ----------------------------------------------------------------------


class _Workspace(threading.local):
    """One thread's block buffers, kept between quadratures: lattice block (u, f1, du, e),
    tiled short period, nine rows of intermediates (head, then smooth part)."""

    tmp = np.empty((9, 0))

    def fit(self, n: int) -> "_Workspace":
        if n > self.tmp.shape[1]:  # a lattice block has at most _BLOCK + 5 pieces
            cap = max(n, _BLOCK + 8)
            self.lattice, self.tile, self.tmp = (np.empty((r, cap + 1)) for r in (4, 3, 9))
        return self


_WORKSPACE = _Workspace()


def _lattice_blocks(p: int, q: int):
    """One period's pieces in blocks of about _BLOCK: yields (k, (u_left, du, f1, e)),
    du = u_right - u_left and e = u_left + u_right for the head and the smooth part.

    The numerator on the piece at u_left (u = p*t; 0 or a multiple of p or
    q, where {t}{(p/q)t} = 0) is f1 tau + (p/q) tau^2, tau = t - u_left/p,
    f1 = {(p/q)t} + (p/q){t} at u_left, in every period.  Block k < n holds
    the pieces ending in (pq k/n, pq (k+1)/n] for n blocks, merged_breakpoints
    over that u range into the thread's workspace, valid until the next
    block is built.
    """
    n_blocks = -(-(p + q - 1) // _BLOCK)
    ws = _WORKSPACE.fit(_BLOCK)
    u, f1, du, e = ws.lattice
    n = 0
    u[0] = f1[0] = 0.0  # the first piece starts at u = 0
    for k in range(n_blocks):
        u[0], f1[0] = u[n], f1[n]  # the last breakpoint so far starts the next piece
        lo, hi = (p * q * j // n_blocks for j in (k, k + 1))
        n = merged_breakpoints(p, q, lo, hi, out=u[1:], frac=f1[1:]).size
        if n:
            ends = u[1 : n + 1], u[:n]
            yield k, (u[:n], np.subtract(*ends, out=du[:n]), f1[:n], np.add(*ends, out=e[:n]))


def _horner(x: np.ndarray, *coeffs, out: np.ndarray) -> np.ndarray:
    """((c0 x + c1) x + ... + c_n) x, in place in out."""
    acc = np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:]:
        acc += c
        acc *= x
    return acc


def _head_block(p: int, q: int, block, periods: int, tol: float, room: list[float], smooth=None):
    """One block's share of the head over periods 0 .. periods - 1 and, given
    smooth = (y_c, tables, degrees), of the smooth part (see _smooth_block).

    Returns (partial sums, truncation bound, smooth part) for _head_sum.  A
    block shorter than _BLOCK is tiled over as many periods as fit in _BLOCK
    pieces.  Each stretch's degree follows _head_sum's rule, its truncation
    bound taken off room[0], what is left of tol/8 (tol = 0: every stretch at
    the eps degree).
    """
    u_left, du, f1, e0 = block
    pq, n = p * q, du.size
    rows = min(max(1, _BLOCK // n), periods)  # periods per pass
    ws = _WORKSPACE.fit(rows * n)
    et, lh, q1, p1, y, z, b, c, terms = ws.tmp[:, : rows * n]
    d, fb, ul, e = du, f1, u_left, e0  # y = d/e at j = 0
    if rows > 1:  # whole periods tiled: ul = j*pq + u_left, e = 2 j*pq + e0
        d, fb, ul = (t[: rows * n].reshape(rows, n) for t in ws.tile)
        d[:], fb[:] = du, f1
        np.add(u_left, np.arange(rows)[:, None] * pq, out=ul)
        np.add(e0, np.arange(rows)[:, None] * (2 * pq), out=et.reshape(rows, n))
        d, fb, ul, e = d.ravel(), fb.ravel(), ul.ravel(), et
    np.divide(d, q, out=lh)  # lam h
    np.multiply(np.add(fb, lh, out=q1), 4.0 / 3.0, out=q1)  # (4/3)(f1 + lam h)
    np.add(np.multiply(fb, 2.0 / 3.0, out=p1), q1, out=p1)  # 2 f1 + (4/3) lam h
    d_max, trunc, sums = float(du.max()), 0.0, []
    for j0 in range(0, periods, rows):
        size, off, k = min(rows, periods - j0) * n, j0 * pq, 0
        if off == 0 and ul[0] == 0.0:  # the piece at t = 0, where the integrand is lam
            terms[0], k = lh[0], 1
        while k < size:
            left = float(ul[k]) + off  # left edges in u, exact
            end = int(np.searchsorted(ul[:size], 100.0 * left - off))
            x, z_max = d_max / left, (d_max / (2.0 * left + d_max)) ** 2
            scale = 1.000001 * (1.0 + x) ** 2 * p / (2.0 * (1.0 - z_max) * left)
            k_eps = next(m for m in range(1, 19) if z_max**m <= 2.0**-55)
            fit = min(tol * 2.0**-10, room[0])
            m = next((m for m in range(1, k_eps) if z_max**m * scale <= fit), k_eps)
            bound = z_max**m * scale if m < k_eps else 0.0
            trunc, room[0] = trunc + bound, room[0] - bound
            s, yk, zk, bk, ck = slice(k, end), y[k:end], z[k:end], b[k:end], c[k:end]
            np.divide(d[s], np.add(e[s], 2 * off, out=yk) if off else e[s], out=yk)
            np.multiply(yk, yk, out=zk)
            tk = np.subtract(p1[s], np.multiply(yk, q1[s], out=terms[s]), out=terms[s])
            if m > 1:  # + sum_{k=2..m} c_k z^(k-1), by Horner forms in z for f1, lam h, f1 y
                ks = range(m, 1, -1)
                bk = np.multiply(_horner(zk, *(2.0,) * (m - 1), out=bk), fb[s], out=bk)
                bk += np.multiply(_horner(zk, *(4 * i / (2 * i + 1) for i in ks), out=ck), lh[s], out=ck)
                tk += np.multiply(bk, np.subtract(1.0, yk, out=ck), out=bk)
                ck = np.multiply(_horner(zk, *(2 / (2 * i + 1) for i in ks), out=ck), yk, out=ck)
                tk += np.multiply(ck, fb[s], out=ck)
            tk *= zk
            k = end
        sums.append(float(terms[:size].sum()))
    return sums, trunc, 0.0 if smooth is None else _smooth_block(pq, du, f1, e0, ws.tmp[1:, :n], *smooth)


def _smooth_block(pq: int, du, f1, e, tmp, y_c: float, tables, degrees) -> float:
    """One block's share of the smooth part (see _a_quad_rational) from the
    head's rows of period 0.  A piece of half-width c = d/(2p) has, in y, the
    midpoint y_c + delta, delta = e/(2pq) - y_c, and the half-width g = c/q;
    as h = f1 (c + s) + lam (c + s)^2 at s from the midpoint, its moments are
    int s^k h ds = 2 c^(k+2) F_k, F_k = (f1 + lam h (k+2)/(k+3))/(k+1) for
    even k and (f1 + lam h)/(k+2) for odd k (lam h = 2 lam c).  tables[k]
    holds the coefficients in delta of the k-th Taylor coefficient of psi'
    around J + y_c times 2 F_k/W_k, for W_0 = P, W_1 = Q (the head's rows)
    and W_k = f1 + r_k lam h, r_k = (k+2)/(k+3) or 1, for k >= 2, read up to
    its degree N_k = degrees[k].
    """
    lh, q1, p1, g, delta, s, acc, w = tmp
    np.multiply(du, 0.5 / pq, out=g)
    np.subtract(np.multiply(e, 0.5 / pq, out=delta), y_c, out=delta)
    for k in range(len(tables) - 1, -1, -1):  # Horner in g over the moments
        t = tables[k]
        np.add(_horner(delta, *t[degrees[k] - k : 0 : -1], out=s), t[0], out=s)
        if k > 1:
            w = np.add(np.multiply(lh, (k + 2) / (k + 3) if k % 2 == 0 else 1.0, out=w), f1, out=w)
        if k == len(tables) - 1:
            np.multiply(s, (p1, q1, w)[min(k, 2)], out=acc)
        else:
            acc *= g
            acc += np.multiply(s, (p1, q1, w)[min(k, 2)], out=s)
    return float(np.multiply(acc, np.multiply(g, g, out=g), out=acc).sum())


def _head_sum(parts) -> tuple[float, float, float]:
    """The head, integral {t}{(p/q)t}/t^2 over [0, J*q], from the _head_block
    parts: (value, rounding bound, truncation bound).

    A piece of width h at t = a has the numerator f1 tau + lam tau^2,
    tau = t - a (see _lattice_blocks).  With y = h/(2a + h), z = y^2,
    log(1 + h/a) = 2 atanh y and h/(a + h) = 2y (1-y)/(1-z), its integral is
      I = sum_{k>=1} c_k z^k,  c_k = 2 (1-y)(f1 + u_k lam h) + t_k y f1 > 0,
    u_k = 2k/(2k+1), t_k = 2/(2k+1); c_1 = P - y Q, P = 2 f1 + (4/3) lam h,
    Q = (4/3)(f1 + lam h), kept per block with lam h = d/q, and
    y = d/(2 (j pq + u_left) + d) in u = p t.  Every piece but the one at
    t = 0 (integral lam h) has h <= min(1, 1/lam) <= a, so z <= 1/9.

    Truncation.  As c_k <= 2 (f1 + lam h) and z <= (h/2a)^2, the terms past
    k = K sum to at most z^K/(1-z) h/(2a^2) (h f1 + h^2 lam), and h f1 +
    h^2 lam = ({t} + h)({lam t} + lam h) <= 1.  As h/a^2 <= (1 + h/a)^2
    int t^-2 dt over the piece, a stretch where a grows 100-fold has
    B(K) = z^K (1+x)^2 / (2 (1-z) a), z, x = h/a and a at its first edge and
    the block's widest piece.  It takes the smallest K < K_e (the smallest
    with z^K <= 2^-55) with B(K) <= tol 2^-10 and within what is left of
    tol/8, adding B(K) to the bound, so the bound is at most tol/8; else
    K_e, where, as I >= (8/9) z (f1 + lam h), each piece's remainder is
    within 2.25 z^K/(1-z) <= 0.64 u of its integral (u = 2^-53).

    Rounding.  A computed piece integral is within 24 u of its truncated
    sum: y carries 3 u and z 7 u; with f1 at u (correctly rounded), Q 4 u,
    P 5 u and y Q 8 u, so c_1 12.5 u as P <= 1.5 c_1; the higher terms
    (positive Horner sums in z <= 1/9, 11 u) 19.5 u and at most 0.29 c_1;
    the sum 15.7 u, and 23.7 u times z.  Numpy's pairwise sum of a pass (at
    most _BLOCK + 8 terms: leaves of up to 128 in eight running sums, at
    most 24 additions deep, under at most 8 halvings) rounds each term at
    most 32 times, an error of gamma_32 sum |terms| (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3-4), and sum |terms| is the
    value as the terms are >= 0.  With fsum over the passes (u) and the
    remainders at K_e (0.64 u), the head's relative error is below 58 u < 32 eps.
    """
    value = math.fsum(s for sums, *_ in parts for s in sums)
    return value, 2.0**-47 * value, sum(tr for _, tr, _ in parts)  # 32 eps


def a_quadrature(lam, cfg: QuadratureConfig | None = None) -> CertifiedReal:
    """A(lambda) by certified piecewise-exact quadrature.

    A float lambda is the exact rational x = Fraction(lambda): the quadrature
    runs to tol/2 at the first continued-fraction convergent mu = p/q of x
    whose continuity bound L (see _continuity_bound) is within tol/2, and L
    joins its radius.  When no convergent that passes the size guards below
    reaches tol/2, ToleranceError carries L at the last that does.

    The rational radius sums the head's truncation bound <= tol/8 and rounding
    bound 32 eps |head| (see _head_sum), the smooth part's Taylor and moment
    bounds, each <= tol/16, and its rounding bound (see _a_quad_rational),
    and a floor 2e-16 (1 + |value|), so err <= tol for |A| up to about 5 at
    tol = 1e-13.

    The rational path streams one period's lattice in blocks of about _BLOCK
    pieces in the thread's block buffers (2.1 MB, kept between calls), so
    its memory is that whatever p + q is, and it builds every block once.
    It raises ToleranceError before allocating anything (``achieved`` = inf)
    for p + q - 1 > 2^25 pieces per period (a cap set by time, about 0.7 s
    at the cap) or 2pq > 2^53; no tol >= 1e-13 is out of reach below them.
    """
    tol = (cfg or _DEFAULT_QCFG).tol
    if isinstance(lam, (Fraction, int)):
        lam = Fraction(lam)
        if lam < 0:
            raise DomainError("a_quadrature requires lambda >= 0")
        return _a_quad_rational(lam, tol) if lam else CertifiedReal(0.0, 0.0)
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"a_quadrature requires a finite lambda > 0 (or exact 0), got {lam}")
    x, achieved = Fraction(lam), math.inf
    for p, q in _convergents(x):
        if p + q - 1 > _MAX_PIECES or 2 * p * q > 2**53:
            break
        bound = _continuity_bound(float(abs(x - Fraction(p, q))), lam, p / q)
        if bound <= tol / 2:
            r = _a_quad_rational(Fraction(p, q), tol / 2) if p else CertifiedReal(0.0, 0.0)
            return CertifiedReal(r.value, r.err + bound)
        achieved = bound
    raise ToleranceError(
        f"a_quadrature({lam}): no convergent within the size guards has a continuity "
        f"bound <= tol/2 = {tol / 2}",
        achieved=achieved,
    )


def _convergents(x: Fraction):
    """The continued-fraction convergents (p, q) of x >= 0, the last one x."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1
        x -= a
        if not x:
            return
        x = 1 / x


def _continuity_bound(delta: float, lam: float, mu: float) -> float:
    """L(delta) = delta (2 log(1/delta) + log max(1, lam, mu) + 3), a bound on
    |A(lam) - A(mu)| for delta = |lam - mu| < 1 (0 at delta = 0).

    Say lam > mu (else swap them) and put T = 1/delta > 1.  With
    d(t) = |{lam t} - {mu t}| <= 1, |A(lam) - A(mu)| <= int_0^inf {t} d(t) t^-2 dt,
    split three ways:
    * off the jump set, floor(lam t) = floor(mu t) and d(t) = delta t; as
      {t} <= min(t, 1), its share of [0, T] is at most delta (1 + log T);
    * the jump set, where an integer n lies in (mu t, lam t], is the union
      over n >= 1 of [n/lam, n/mu), and the integral of t^-2 over each
      interval is exactly delta/n; those that start below T have
      n < lam T, so their share is at most delta (1 + log T + log max(1, lam));
    * beyond T, {t} d(t) < 1, so the tail is at most int_T^inf t^-2 dt = 1/T = delta.
    The cusp |t| log|t|/(2p) of A at a rational p/q (see LocalModel) shows
    that L is within a factor of about 4 of sharp.
    """
    if delta == 0.0:
        return 0.0
    return delta * (3.0 - 2.0 * math.log(delta) + math.log(max(1.0, lam, mu)))


def _a_quad_rational(lam: Fraction, tol: float) -> CertifiedReal:
    """A(p/q) as the head over J periods plus the smooth part, exactly

      A = int_0^{Jq} h(t) t^-2 dt + q^-2 int_0^q h(x) psi'(J + x/q) dx,

    as h(t) = {t}{(p/q)t} has the period q and psi'(z) = sum_{n>=0} (n + z)^-2
    (DLMF 5.15.1).  One pass over the blocks of one period takes both.  In
    y = x/q, a piece of half-width g and midpoint m has the share
    2 g^2 sum_k g^k F_k psi^(k+1)(J + m)/k! of the smooth part, F_k <= F_0 its
    moments (see _smooth_block); the sum stops at K, and psi^(k+1)/k! comes
    from the expansion of psi' to degree N_k around the centre J + y_c,
    y_c = (b + 1/2)/n_b, of its block b.  _smooth_plan sets J, K and the N_k.

    Bounds, with mu/q = sum 2 g^2 F_0 = (1/4 + 1/(12pq))/q (Franel's
    integral), g <= rho = 1/(2 max(p, q)), y >= 0 and, from
    |psi^(m)(x)| <= (m-1)!/x^m + m!/x^(m+1), |psi^(k+1)(z)/k!| <= B_k =
    1/J^(k+1) + (k+1)/J^(k+2) at z >= J:
    * moments: those from K on sum to at most mu/q sum_{k>=K} rho^k B_k;
    * Taylor: at a reach r from the centre (1/(2 n_b), plus 2 rho when a
      block's first piece starts in the block before), psi^(k+1)/k! is within
      C(N_k+1, k) r^(N_k-k+1) (1 + (N_k+2)/J)/J^(N_k+2) of its expansion,
      times mu/q rho^k;
    * rounding: the terms' magnitudes sum to at most M = mu/q sum_k rho^k B_k.
      A term carries the coefficients (4(i+1) u each, against 30-digit
      polygamma values) and their scaling, g and delta (3 u, and 6(K+1) u
      through the derivatives), P and Q (7 u), the Horner forms
      (2 N_0 + 2K u), g^2 and the product (3 u), and the pairwise sum and
      fsum (33 u): within (6 N_0 + 10K + 64) u M, u = 2^-53.
    """
    p, q = lam.numerator, lam.denominator
    # Size guards, before anything is allocated.  float64 holds the lattice
    # positions j*pq + u of J periods exactly while J*pq <= 2^53.
    n_exact = 2**53 // (p * q)
    if n_exact < 2:
        raise ToleranceError(f"a_quadrature({lam}): lattice 2pq exceeds 2^53", achieved=math.inf)
    if p + q - 1 > _MAX_PIECES:
        msg = f"a_quadrature({lam}): {p + q - 1} pieces per period (max {_MAX_PIECES})"
        raise ToleranceError(msg, achieved=math.inf)
    n_b = -(-(p + q - 1) // _BLOCK)
    _, periods, degrees, bounds = _smooth_plan(p, q, n_b, tol, (j for j in _PERIODS if j <= n_exact))
    y_c, tables = _smooth_tables(periods, n_b, -(-max(degrees) // 8) * 8)
    room, tables = [tol / 8], tables[: len(degrees)]
    parts = [
        _head_block(p, q, block, periods, tol, room, (y_c[k], [t[k] for t in tables], degrees))
        for k, block in _lattice_blocks(p, q)
    ]
    head, round_err, trunc_err = _head_sum(parts)
    value = head + math.fsum(smooth for *_, smooth in parts)
    return CertifiedReal(value, trunc_err + round_err + bounds + 2e-16 * (1.0 + abs(value)))


# ns per piece-period of the head, per head pass, per piece of an elementwise pass
# and per numpy call (shared 2-core x86-64, numpy 2.4): the costs of a plan.
_COST_HEAD, _COST_PASS, _COST_ELEMENT, _COST_CALL = 12.0, 30e3, 0.6, 1e3
_MAX_DEGREE = 48
_PERIODS = (1, 2, 4, 8, 16, 32, 64)  # the choices of J


def _smooth_plan(p: int, q: int, n_b: int, tol: float, candidates):
    """(cost, J, (N_0, .., N_(K-1)), bound) for _a_quad_rational, or None: at each J
    in candidates, the least K with the moment bound within tol/16, the least
    N_k <= _MAX_DEGREE with the Taylor bounds within tol/(16K) each, and these
    bounds plus the rounding bound.  A period of several blocks takes the first
    J that fits, a period of one block the cheapest."""
    mu_q, rho, n = (3 * p * q + 1) / (12 * p * q * q), 0.5 / max(p, q), p + q - 1
    reach = 0.5 / n_b + (2.0 * rho if n_b > 1 else 0.0)
    best = None
    for periods in candidates:
        x, v, scale = rho / periods, reach / periods, mu_q / periods
        cost = periods * n * _COST_HEAD + -(-periods * n // _BLOCK) * _COST_PASS
        if v >= 1.0 or best and cost >= best[0]:
            continue

        def dropped(k):
            return scale * x**k * ((1.0 + (k + 1) / periods) / (1.0 - x) + x / (periods * (1.0 - x) ** 2))

        def remainder(k, d):
            return scale * x**k * math.comb(d + 1, k) * v ** (d - k + 1) * (1.0 + (d + 2) / periods)

        moments = max(1, math.ceil(math.log(tol / 16 / scale) / math.log(x)))  # as dropped(k) >= scale x^k
        while dropped(moments) > tol / 16:
            moments += 1
        fit, degrees = tol / (16 * moments), []
        for k in range(min(moments, _MAX_DEGREE)):  # from below, twice: remainder(k, d) grows with d
            d = k + 1
            for _ in range(2):
                d = max(d, k - 1 + math.ceil(math.log(fit * v / remainder(k, d) * v ** (d - k)) / math.log(v)))
            while d <= _MAX_DEGREE and remainder(k, d) > fit:
                d += 1
            if d > _MAX_DEGREE:
                break
            degrees.append(d)
        if len(degrees) < moments:
            continue
        magnitude = scale * (1.0 / (1.0 - x) + 1.0 / (periods * (1.0 - x) ** 2))
        rounding = (6 * degrees[0] + 10 * moments + 64) * 2.0**-53 * magnitude
        bound = sum(remainder(k, d) for k, d in enumerate(degrees)) + dropped(moments) + rounding
        calls = 2 * sum(degrees) - moments * moments + 4 * moments + 8
        plan = (cost + calls * (_COST_CALL + n * _COST_ELEMENT), periods, tuple(degrees), bound)
        if n_b > 1:
            return plan
        best = min(best or plan, plan)
    return best


@functools.lru_cache(maxsize=64)
def _smooth_tables(periods: int, n_b: int, degree: int):
    """(y_c, tables) for _smooth_block, cached, so read-only: the block centres
    y_c = (b + 1/2)/n_b (as J + y_c - J, exact) and tables[k][b], k < degree, for
    block b, the coefficients C(i, k) a_i w_k, k <= i <= degree, of s_k, a_i =
    psi^(i+1)(J + y_c)/i!, with w_k = 2 F_k/W_k: 1, 1/2, then 2/(k+1) (k even) or
    2/(k+2) (k odd).  degree is a multiple of 8, at least every N_k of a plan
    that reads the tables, and each s_k stops at its own N_k."""
    centres = periods + (np.arange(n_b) + 0.5) / n_b
    coeffs = trigamma_taylor(centres, degree).T
    tables = []
    for k in range(degree):  # N_k > k
        w = (1.0, 0.5)[k] if k < 2 else 2.0 / (k + 1 + k % 2)
        binom = [math.comb(i, k) * w for i in range(k, degree + 1)]
        tables.append((coeffs[:, k:] * binom).tolist())
    return (centres - periods).tolist(), tables


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def a_rational(p: int, q: int) -> float:
    """A(p/q) = (1-l)/2 log l + (l+1)/2 (log 2pi - gamma) - pi/(2q) (V(p,q)+V(q,p))."""
    if q < 1 or p < 0 or math.gcd(p, q) != 1:
        raise DomainError("a_rational requires coprime p >= 0, q >= 1")
    if p == 0:
        return 0.0
    return float(_a_closed(p, q, vasyunin_cot(p, q) + vasyunin_cot(q, p)))


def _a_closed(p, q, v):
    """A(p/q) for coprime p, q >= 1 from v = V(p, q) + V(q, p); p, q and v
    may be arrays of equal shape, entry by entry the same doubles."""
    lam = p / q
    return (
        0.5 * (1.0 - lam) * np.log(lam)
        + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA)
        - PI / (2 * q) * v
    )


def local_model(p: int, q: int) -> LocalModel:
    """Assembled local expansion of A at p/q (validity window |t| <= 1/(2q))."""
    return LocalModel(
        base=Fraction(p, q), a_at_base=a_rational(p, q), coeffs=expansion_coeffs(p, q)
    )


# ----------------------------------------------------------------------
# Delta functional equation
# ----------------------------------------------------------------------


def delta_functional_equation_residual(p: int, q: int, t: Fraction) -> float:
    """|LHS - RHS| of the functional equation of Delta_{p,q} at rational t > 0,
    the right side combining the inverted-argument term and its integral."""
    t = Fraction(t)
    if t <= 0:
        raise DomainError("delta functional equation requires t > 0")
    tf = float(t)
    pbar = modular_inverse(p, q) if q > 1 else 0
    lhs = phi_delta(p % q, q, t).value
    v_inv = 1 / (q * q * t)
    delta_at_inv = phi_delta(pbar, q, v_inv).value
    j3, j4 = (delta_power_integral(Fraction(pbar, q), q, v_inv, n).real for n in (3, 4))
    integral = 3.0 / q**6 * j4 - tf / q**4 * j3
    rhs = (
        tf * math.log(tf) / q
        + tf / q * _c_plus(p % q, q)
        - tf * tf / 2.0
        + (q * tf) ** 3 * delta_at_inv
        - 2.0 * q**3 * integral
    )
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# Farey sweep, the A grid and emitters
# ----------------------------------------------------------------------


def farey_scan(order: int, lo: Fraction | int = 0, hi: Fraction | int = 1) -> list[FareyScanRecord]:
    """A(p/q) over the Farey fractions of the given order in [lo, hi].

    V(p mod q, q) and V(q mod p, p) for all records come from one kernel
    call per denominator; an entry equals its single-value call bit for bit,
    so every record equals a_rational(p, q).
    """
    if Fraction(lo) < 0:
        raise DomainError("farey_scan requires lo >= 0")
    p, q = np.array(farey_pairs(order, lo, hi), dtype=np.int64).reshape(-1, 2).T
    a = np.zeros(p.size)
    on = p > 0  # the record 0/1 has A = 0 and needs no V
    po, qo = p[on], q[on]
    v = _v_pairs(np.concatenate((po % qo, qo % po)), np.concatenate((qo, po)))
    a[on] = _a_closed(po, qo, v[: po.size] + v[po.size :])
    return list(map(FareyScanRecord, p.tolist(), q.tolist(), (p / q).tolist(), a.tolist()))


@functools.lru_cache(maxsize=2)
def a_unit_grid(big_q: int) -> np.ndarray:
    """A(k/Q) for k = 0 .. Q by the closed form, k/Q = p/q reduced by one gcd.

    One _v_pairs call takes V(p, q) for k < Q/2 (p < q/2) and V(q mod p, p)
    for every k; V(q - p, q) = -V(p, q) (V(1, 2) = 0) gives the rest, so
    every entry equals its a_rational(p, q) up to that oddness.
    """
    k = np.arange(1, big_q, dtype=np.int64)
    g = np.gcd(k, big_q)
    p, q, n = k // g, big_q // g, (big_q - 1) // 2
    w = _v_pairs(np.concatenate((p[:n], q % p)), np.concatenate((q[:n], p)))
    v = w[n:]  # V(q mod p, p), plus V(p, q) below
    v[:n] += w[:n]
    v[k.size - n :] -= w[:n][::-1]
    return np.concatenate(([0.0], _a_closed(p, q, v), [a_rational(1, 1)]))


def write_farey_csv(records: list[FareyScanRecord], path: str) -> None:
    """CSV rows p,q,lambda,A with 17-significant-digit floats, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("p,q,lambda,A\n")
        for r in records:
            fh.write(f"{r.p},{r.q},{r.lam:.17g},{r.a_value:.17g}\n")


def write_farey_svg(records: list[FareyScanRecord], path: str) -> None:
    """Minimal polyline rendering of a Farey sweep (1000 x 600 viewBox)."""
    if not records:
        raise ValueError("no records to plot")
    xs = [r.lam for r in records]
    ys = [r.a_value for r in records]
    x0, x1 = min(xs), max(xs)
    y1 = max(ys) or 1.0
    span = (x1 - x0) or 1.0
    pts = " ".join(
        f"{1000.0 * (x - x0) / span:.2f},{600.0 - 600.0 * y / y1:.2f}"
        for x, y in zip(xs, ys)
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 600">'
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>'
            "</svg>\n"
        )
