"""The multiplicative autocorrelation A(lambda) = integral {t}{lambda t} t^-2 dt.

Two fully independent evaluation paths:

* ``a_quadrature``: piecewise-exact integration.  For rational lambda = p/q
  the integrand's numerator is q-periodic; the head is summed over M
  periods, each piece as a power series in 1/t whose coefficients are shared
  by every period, and the tail is mu/T + nu/T^2.  mu = 1/4 + 1/(12pq), the
  per-period mean of the integrand (Franel's integral), and
  nu = -(p + q)/(24p), the mean of its oscillation antiderivative, are
  closed forms; the antiderivative bounds are float64 sums over one period,
  with a rigorous remainder bound from the second antiderivative.  One
  period's lattice is streamed in blocks of about _BLOCK pieces, each built
  from its slice of the breakpoints, in a kept 4 MB per-thread workspace.
  A float lambda is an exact rational, reduced to a convergent mu with a
  continuity bound on |A(lambda) - A(mu)| added to the radius.
* ``a_rational``: the closed form in Vasyunin sums.

They share nothing beyond primitive arithmetic, which is the point: their
agreement is the verification.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ToleranceError
from .phi import (
    ExpansionCoefficients,
    _linear_panels_power,
    delta as phi_delta,
    expansion_coeffs,
    phi2_grid_samples,
    phi2_tail_integral,
    phi2_tail_weighted,
    phi2_unit_grid,  # noqa: F401  (binding the perfbench tracer wraps)
    phi_n,
    phi_resum_rational,
)
from .piecewise import merged_breakpoints
from .rational_core import FareyScanRecord, farey_sequence
from .specfun import EULER_GAMMA, LOG_2PI, PI, CertifiedReal
from .vasyunin import _v_pairs, modular_inverse, vasyunin_cot


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol < 1e-13:
            raise ValueError("tol below 1e-13 is not supported")


_DEFAULT_QCFG = QuadratureConfig()
# Pieces per period, p + q - 1, capped by time: memory is the block workspace
# at any size, and a quadrature costs about 55-65 ns a piece at two periods
# (2-core x86-64, numpy 2.4), so 11/5 - 2^-21 (2^25 - 6 pieces) takes 1.8-2.2 s.
_MAX_PIECES = 2**25
_BLOCK = 1 << 14  # pieces per lattice block; every pass holds one block at a time, in cache
_SERIES_X = 0.1  # the head series serves pieces at a >= h_max/_SERIES_X, log1p forms nearer t = 0


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
# one period of the lattice in blocks, and its statistics for the tail
# ----------------------------------------------------------------------


class _Workspace(threading.local):
    """One thread's block buffers, kept between quadratures: lattice block (u, f1, du), merge
    scratch, tiled short period, five rows of intermediates (statistics, then head)."""

    coef = np.empty((17, 0))  # series rows of degrees 2 .. 18, as x_max <= _SERIES_X

    def fit(self, n: int) -> "_Workspace":
        if n > self.coef.shape[1]:  # a lattice block has at most _BLOCK + 5 pieces
            cap = max(n, _BLOCK + 8)
            self.lattice, self.tile, self.tmp = (np.empty((r, cap + 1)) for r in (3, 3, 5))
            self.merge, self.coef = np.empty((3, cap), dtype=np.int64), np.empty((17, cap))
        return self


_WORKSPACE = _Workspace()


def _lattice_blocks(p: int, q: int):
    """One period's pieces in blocks of about _BLOCK, as a zero-argument
    callable that returns an iterator over (u_left, du, f1).

    The numerator on the piece at u_left (u = p*t; 0 or a multiple of p or
    q, where {t}{(p/q)t} = 0) is f1 tau + (p/q) tau^2, tau = t - u_left/p,
    f1 = {(p/q)t} + (p/q){t} at u_left, in every period.  Block k holds the
    pieces ending in (pq (k-1)/n, pq k/n] for n blocks, merged_breakpoints
    over that u range into the thread's workspace, valid until the next
    block is built; a period that fits in one block is built once and kept.
    """
    n_blocks = -(-(p + q - 1) // _BLOCK)
    ws = _WORKSPACE.fit(_BLOCK)
    u, f1, du = ws.lattice

    def build():
        lo = n = 0
        u[0] = f1[0] = 0.0  # the first piece starts at u = 0
        for k in range(1, n_blocks + 1):
            hi = p * q * k // n_blocks
            u[0], f1[0] = u[n], f1[n]  # the last breakpoint so far starts the next piece
            n = merged_breakpoints(p, q, lo, hi, out=u[1:], scratch=ws.merge, frac=f1[1:]).size
            if n:
                yield u[:n], np.subtract(u[1 : n + 1], u[:n], out=du[:n]), f1[:n]
            lo = hi

    return list(build()).__iter__ if n_blocks == 1 else build


def _horner(x: np.ndarray, *coeffs, out: np.ndarray) -> np.ndarray:
    """((c0 x + c1) x + ... + c_n) x, in place in out."""
    acc = np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:]:
        acc += c
        acc *= x
    return acc


def _period_stats(p: int, q: int, blocks):
    """Per-period means and antiderivative bounds for the quadrature tail, in
    one pass over blocks() (see _lattice_blocks).

    mu and nu are exact.  By Franel's integral int_0^1 B1(ax) B1(bx) dx =
    1/(12ab) for coprime a, b, the mean of h(t) = {t}{(p/q)t} over a period
    is mu = 1/4 + 1/(12pq).  nu, the mean of F(t) = int_0^t (h - mu), is
    mu q/2 - (1/q) int_0^q t h(t) dt; reflecting t -> q - t, where
    h(q - t) = (1 - {t})(1 - {(p/q)t}), leaves the moments int_0^q t{t} dt and
    int_0^q t{(p/q)t} dt, so nu = -(p + q)/(24p).  sup_f and sup_g, the
    bounds on |F| and on |G|, G(t) = int_0^t (F - nu), are float64
    accumulations: piece integrals in Horner form in the width dt, cumulative
    sums carried between blocks, inflated to cover their rounding.
    Yields (block, (mu, nu, sup_f, sup_g)) for each block, the bounds over the
    pieces so far: they only grow, and after the last block they hold for
    the period.
    """
    lam = p / q
    mu = (3 * p * q + 1) / (12 * p * q)
    nu = -(p + q) / (24 * p)
    f_acc = g_acc = max_f = max_g = maxgap = 0.0
    for block in blocks():
        _, du, f1 = block
        dt, iosc, f_bp, c, g_bp = _WORKSPACE.fit(du.size + 1).tmp[:, : du.size + 1]
        dt, iosc, c, g_bp = np.divide(du, p, out=dt[:-1]), iosc[:-1], c[:-1], g_bp[:-1]
        _horner(dt, lam / 3.0, np.multiply(f1, 0.5, out=c), -mu, out=iosc)
        iosc[0] += f_acc
        f_bp[0] = f_acc  # F at the left edges, then at the end
        np.cumsum(iosc, out=f_bp[1:])
        f_acc, f_bp = float(f_bp[-1]), f_bp[:-1]
        f_nu = np.subtract(f_bp, nu, out=iosc)  # and g_bp, the piece integrals of F - nu:
        _horner(dt, lam / 12.0, np.divide(f1, 6.0, out=c), -0.5 * mu, f_nu, out=g_bp)
        g_bp[0] += g_acc
        np.cumsum(g_bp, out=g_bp)
        g_acc = float(g_bp[-1])
        max_f = max(max_f, float(np.abs(f_bp, out=c).max()))
        max_g = max(max_g, float(np.abs(g_bp, out=c).max()))
        maxgap = max(maxgap, float(du.max()) / p)
        sup_f = 1.000001 * (max_f + maxgap) + 1e-12
        sup_g = 1.000001 * (max_g + maxgap * (max_f + abs(nu) + maxgap)) + 1e-12
        yield block, (mu, nu, sup_f, sup_g)


def _head_block(p: int, q: int, block, j_lo: int, j_hi: int):
    """One block's share of the head over periods j_lo .. j_hi - 1.

    Returns (partial sums, sum of squared piece integrals, truncation bound)
    for _head_sum to combine.  A block shorter than _BLOCK is tiled over as
    many periods as fit in _BLOCK pieces.  Passes are planned first: series
    row m covers only the pieces that some pass sums at degree >= m.
    """
    u_left, du, f1 = block
    lam, pq, n = p / q, p * q, du.size
    rows = min(max(1, _BLOCK // n), j_hi - j_lo)  # periods per Horner pass
    ws = _WORKSPACE.fit(rows * n)
    d, fb, ul = du, f1, u_left
    if rows > 1:  # whole periods tiled: ul = j*pq + u_left
        d, fb, ul = (t[: rows * n].reshape(rows, n) for t in ws.tile)
        d[:], fb[:], ul[:] = du, f1, u_left
        d, fb, ul = d.ravel(), fb.ravel(), np.add(ul, np.arange(rows)[:, None] * pq, out=ul).ravel()
    d_max, plan, trunc, ends = float(du.max()), [], 0.0, [0] * 17
    for j0 in range(j_lo, j_hi, rows):
        size = min(rows, j_hi - j0) * n
        left = np.add(ul[:size], j0 * pq, out=ws.tmp[0, :size])  # left edges in u
        k = int(np.searchsorted(left, d_max / _SERIES_X))
        plan.append((j0, size, k, []))
        while k < size:
            end = int(np.searchsorted(left, 100.0 * left[k]))
            x_max = d_max / left[k]
            m_top = next(m for m in range(2, 64) if x_max ** (m - 1) <= 2.0**-55)
            trunc += (1.0 + x_max) ** (m_top + 1) * x_max ** (m_top - 1) * p / (m_top * left[k])
            plan[-1][3].append((k, end, m_top))
            ends[: m_top - 1] = [max(e, end) for e in ends[: m_top - 1]]  # summed at degree >= m
            k = end
    # series rows c_m (see _head_sum), m = 2 .. 18, over the first ends[m - 2] pieces
    s, nh, hf1, h2l, t = ws.tmp[:, : ends[0]]  # s = (-1)^m h^(m-1), h = d/p
    np.negative(np.divide(d[: ends[0]], p, out=s), out=nh)
    np.multiply(s, fb[: ends[0]], out=hf1)
    np.multiply(np.multiply(s, lam, out=h2l), s, out=h2l)
    for m, end, nxt in zip(range(2, 19 - ends.count(0)), ends, ends[1:] + [0]):
        row = np.multiply(hf1[:end], (m - 1) / m, out=ws.coef[m - 2, :end])
        row += np.multiply(h2l[:end], (m - 1) / (m + 1), out=t[:end])
        row *= s[:end]
        s[:nxt] *= nh[:nxt]
    sums, sq_acc = [], 0.0
    for j0, size, k, stretches in plan:
        terms = ws.tmp[0, :size]
        if k:  # x = inf at t = 0, where the integrand is lam
            with np.errstate(divide="ignore", invalid="ignore"):
                lk, x = ul[:k] + j0 * pq, d[:k] / (ul[:k] + j0 * pq)
                lg = np.log1p(x)
                terms[:k] = fb[:k] * (lg - x / (1.0 + x))
                terms[:k] += lam * (lk / p) * (x * (2.0 + x) / (1.0 + x) - 2.0 * lg)
            if lk[0] == 0.0:
                terms[0] = lam * d[0] / p
        for k, end, m_top in stretches:
            w = np.add(ul[k:end], j0 * pq, out=ws.tmp[1, : end - k])
            np.divide(p, w, out=w)
            acc = _horner(w, *ws.coef[m_top - 2 :: -1, k:end], out=ws.tmp[2, : end - k])
            np.multiply(acc, w, out=terms[k:end])
        sums.append(float(terms.sum()))
        sq_acc += float(np.einsum("i,i->", terms, terms))
    return sums, sq_acc, trunc


def _head_sum(parts) -> tuple[float, float, float]:
    """Sum of integral {t}{(p/q)t}/t^2 over [0, n*q], piece by piece, from the
    _head_block parts of every block and every period range.

    A piece of width h at t = a has the numerator f1 tau + lam tau^2,
    tau = t - a (see _lattice_blocks), so with x = h/a and w = 1/a its integral is
      f1 (log(1+x) - x/(1+x)) + lam a (x(2+x)/(1+x) - 2 log(1+x))
      = sum_{m>=2} c_m w^m,  c_m = (-1)^m h^(m-1) h((m-1)/m f1 + h (m-1)/(m+1) lam).
    The c_m depend on the piece alone: built once per block (or tile of whole
    short periods) and pass, they serve every period of the pass, each one
    Horner pass in w = p/(j*pq + u_left) (u = p*t, exact while n*pq <= 2^53).
    Over each stretch where a grows 100-fold the degree M is the smallest
    with x_max^(M-1) <= eps/8, x_max = h_max/a_min.  The pieces with
    a < h_max/_SERIES_X, next to t = 0, keep the log1p form, whose
    cancellation costs about 2 lam h eps a piece.

    Truncation bound.  The parts in f1 and lam each alternate, and for
    x < 2/3 their terms fall (ratios <= 4x/3, <= 3x/2), so each remainder
    is at most its first omitted term, all of sign (-1)^(M+1).  A piece's
    remainder is thus at most h^M (h f1 + h^2 lam)/a^(M+1), and
    h f1 + h^2 lam = ({t} + h)({lam t} + lam h) <= 1, the numerator at
    the right edge.  As h/a^(M+1) <= (1+x)^(M+1) int_a^(a+h) t^-(M+1) dt, a
    stretch's remainders sum to at most (1+x_max)^(M+1) h_max^(M-1) a_min^-M / M.

    Returns (value, rounding estimate, truncation bound); the rounding
    estimate, 4e-16 (sum of squared piece integrals)^(1/2) + 1e-16 |value|,
    is an RMS estimate, not a bound.
    """
    value = math.fsum(s for sums, _, _ in parts for s in sums)
    sq_acc = sum(sq for _, sq, _ in parts)
    trunc = sum(tr for _, _, tr in parts)
    return value, 4e-16 * math.sqrt(sq_acc) + 1e-16 * abs(value), 1.000001 * trunc


def a_quadrature(lam, cfg: QuadratureConfig | None = None) -> CertifiedReal:
    """A(lambda) by certified piecewise-exact quadrature.

    A float lambda is the exact rational x = Fraction(lambda): the quadrature
    runs to tol/2 at the first continued-fraction convergent mu = p/q of x
    whose continuity bound L (see _continuity_bound) is within tol/2, and L
    joins its radius.  When no convergent that passes the size guards below
    reaches tol/2, ToleranceError carries L at the last that does.

    The rational radius sums the tail bound 2 sup_g/T^3, the head's rigorous
    truncation bound (see _head_sum), its rounding term (an RMS estimate, not
    a bound) and a floor 2e-16 (1 + |value|).

    The rational path streams one period's lattice in blocks of about _BLOCK
    pieces in the thread's block buffers (about 4 MB, kept between calls),
    so its memory is that whatever p + q is.  One pass over the blocks takes
    sup_f, sup_g and, block by block, the head over the periods that the
    bounds so far need; the blocks left short of the final count n (a
    prefix, as the bounds only grow) are built again for the remaining
    periods.  A period of one block is built once.

    It raises ToleranceError before allocating anything (``achieved`` = inf)
    for p + q - 1 > 2^25 pieces per period (a cap set by time, about 2 s at
    the cap) or 2pq > 2^53, and, with the attainable radius, when tol needs
    more periods n than keep the lattice n*pq exact in float64 (<= 2^53) or
    than keep (p + q - 1) n within 2^26 pieces, the cap's own two-period
    budget.  As the running count of periods only grows, no head past the
    budget is summed: such a call costs one pass over a period plus at most
    the budget.
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
            try:
                r = _a_quad_rational(Fraction(p, q), tol / 2) if p else CertifiedReal(0.0, 0.0)
            except ToleranceError as e:  # in the caller's lambda and tol, not mu and tol/2
                msg = f"a_quadrature({lam}): tol {tol} is out of reach at its convergent {p}/{q}"
                raise ToleranceError(msg, achieved=e.achieved) from e
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
    p, q = lam.numerator, lam.denominator
    # Size guards, before anything is allocated.  float64 holds the lattice
    # positions j*pq + u of n periods exactly while n*pq <= 2^53; n >= 2.
    n_exact = 2**53 // (p * q)
    if n_exact < 2:
        raise ToleranceError(f"a_quadrature({lam}): lattice 2pq exceeds 2^53", achieved=math.inf)
    if p + q - 1 > _MAX_PIECES:
        msg = f"a_quadrature({lam}): {p + q - 1} pieces per period (max {_MAX_PIECES})"
        raise ToleranceError(msg, achieved=math.inf)
    # Pieces times periods within 2 _MAX_PIECES, the cap's own two-period time.
    n_budget = 2 * _MAX_PIECES // (p + q - 1)
    n_max = min(n_exact, n_budget)

    def periods(sup_g: float) -> int:  # n with the tail bound within tol/2
        return max(2, math.ceil((4.0 * sup_g / tol) ** (1.0 / 3.0) / q))

    # One pass: each block takes the head over the periods that the bounds
    # so far need, never more than the final count; blocks left short take
    # the rest in a second pass.  (On the near-rational ops measured, the
    # first block's bounds already give the final count.)
    blocks, parts, reached = _lattice_blocks(p, q), [], []
    for block, (mu, nu, _, sup_g) in _period_stats(p, q, blocks):
        reached.append(periods(sup_g))
        if reached[-1] <= n_max:
            parts.append(_head_block(p, q, block, 0, reached[-1]))
    n_periods = periods(sup_g)
    if n_periods > n_max:
        raise ToleranceError(
            f"a_quadrature({lam}): tol {tol} needs {n_periods} periods "
            f"(exact float64 lattice up to {n_exact}; "
            f"{n_budget} periods of {p + q - 1} pieces within the budget of 2^26 pieces)",
            achieved=2.0 * sup_g / (n_max * q) ** 3,
        )
    short = [n for n in reached if n < n_periods]  # a prefix: reached only grows
    parts += [_head_block(p, q, block, n, n_periods) for n, block in zip(short, blocks())]
    big_t = n_periods * q
    head, round_err, trunc_err = _head_sum(parts)
    tail = mu / big_t + nu / big_t**2
    tail_err = 2.0 * sup_g / big_t**3
    value = head + tail
    return CertifiedReal(value, tail_err + trunc_err + round_err + 2e-16 * (1.0 + abs(value)))

# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def a_rational(p: int, q: int) -> float:
    """A(p/q) = (1-l)/2 log l + (l+1)/2 (log 2pi - gamma) - pi/(2q) (V(p,q)+V(q,p))."""
    if q < 1 or p < 0 or math.gcd(p, q) != 1:
        raise DomainError("a_rational requires coprime p >= 0, q >= 1")
    if p == 0:
        return 0.0
    return _a_closed(p, q, vasyunin_cot(p, q) + vasyunin_cot(q, p))


def _a_closed(p: int, q: int, v: float) -> float:
    """A(p/q) for coprime p, q >= 1 from v = V(p, q) + V(q, p)."""
    lam = p / q
    return (
        0.5 * (1.0 - lam) * math.log(lam)
        + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA)
        - PI / (2 * q) * v
    )


def a_phi2_relation_residual(lam: Fraction) -> float:
    """Residual of A(l) = log(l)/2 + (1 - gamma + log 2pi)/2 + phi_2(l)/(2l)
    - l integral_l^inf phi_2(t) t^-3 dt."""
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("a_phi2_relation_residual requires lambda > 0")
    lamf = float(lam)
    lhs = a_rational(lam.numerator, lam.denominator)
    phi2_lam = phi_n(2, lam).value
    tail = phi2_tail_weighted(lam, 3)
    rhs = (
        0.5 * math.log(lamf)
        + 0.5 * (1.0 - EULER_GAMMA + LOG_2PI)
        + phi2_lam / (2.0 * lamf)
        - lamf * tail.value
    )
    return lhs - rhs


def local_model(p: int, q: int) -> LocalModel:
    """Assembled local expansion of A at p/q (validity window |t| <= 1/(2q))."""
    return LocalModel(
        base=Fraction(p, q), a_at_base=a_rational(p, q), coeffs=expansion_coeffs(p, q)
    )


# ----------------------------------------------------------------------
# Delta functional equation
# ----------------------------------------------------------------------


def _delta_weighted_integral(pbar: int, q: int, v0: Fraction, n: int, big_x: int) -> float:
    """integral_{v0}^inf Delta_{pbar,q}(v) v^{-n} dv.

    Grid panels on [v0, X] from the phi_2 unit grid (X integer), then the
    integration-by-parts tail, minus the exact mean part.  The tail's bound is
    dropped: no radius, checked only through the functional-equation residual.
    """
    x0 = Fraction(pbar % q if q > 1 else 0, q)
    c = phi_resum_rational(2, x0)
    b, t, f = phi2_grid_samples(x0, q, v0, big_x, 16384)
    f = f - c
    val = _linear_panels_power(t, f, float(n)).real
    if (v0 * b).denominator != 1:
        # partial first panel, with the exact resummed value at v0
        f_v0 = phi_resum_rational(2, x0 + v0) - c
        tt = np.array([float(v0), t[0]])
        ff = np.array([f_v0, f[0]])
        val += _linear_panels_power(tt, ff, float(n)).real
    tail_osc, _ = phi2_tail_integral(x0, big_x, float(n))
    tail_mean = -c * big_x ** (1 - n) / (n - 1)
    return val + tail_osc.real + tail_mean


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
    v0 = v_inv
    big_x = max(24, math.ceil(v0) + 8)
    j3 = _delta_weighted_integral(pbar, q, v0, 3, big_x)
    j4 = _delta_weighted_integral(pbar, q, v0, 4, big_x)
    integral = 3.0 / q**6 * j4 - tf / q**4 * j3
    vpq = vasyunin_cot(p % q, q)
    rhs = (
        tf * math.log(tf) / q
        + tf / q * (PI * vpq + 2.0 * math.log(q) + LOG_2PI - EULER_GAMMA - 1.0)
        - tf * tf / 2.0
        + (q * tf) ** 3 * delta_at_inv
        - 2.0 * q**3 * integral
    )
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# Farey sweep and emitters
# ----------------------------------------------------------------------


def farey_scan(order: int, lo: Fraction | int = 0, hi: Fraction | int = 1) -> list[FareyScanRecord]:
    """A(p/q) over the Farey fractions of the given order in [lo, hi].

    V(p mod q, q) and V(q mod p, p) for all records come from one kernel
    call per denominator; an entry equals its single-value call bit for bit,
    so every record equals a_rational(p, q).
    """
    if Fraction(lo) < 0:
        raise DomainError("farey_scan requires lo >= 0")
    pairs = [(f.numerator, f.denominator) for f in farey_sequence(order, lo, hi)]
    p, q = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    pos = np.maximum(p, 1)  # the record 0/1 has A = 0 and needs no V
    v = (_v_pairs(p % q, q) + _v_pairs(q % pos, pos)).tolist()
    return [
        FareyScanRecord(p=a, q=b, lam=a / b, a_value=_a_closed(a, b, vab) if a else 0.0)
        for (a, b), vab in zip(pairs, v)
    ]


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
