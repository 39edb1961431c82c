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
  from its slice of the breakpoints, so memory is O(_BLOCK) whatever p + q is.
* ``a_rational``: the closed form in Vasyunin sums.

They share nothing beyond primitive arithmetic, which is the point: their
agreement is the verification.
"""

from __future__ import annotations

import math
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
from .rational_core import FareyScanRecord, farey_sequence, frac_ratio
from .specfun import EULER_GAMMA, LOG_2PI, PI, CertifiedReal
from .vasyunin import _v_pairs, modular_inverse, vasyunin_cot


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10
    max_periods: int = 5_000_000
    tail_order: int = 2

    def __post_init__(self):
        if self.tol < 1e-13:
            raise ValueError("tol below 1e-13 is not supported")
        if self.max_periods < 1:
            raise ValueError("max_periods must be at least 1")
        if self.tail_order not in (1, 2):
            raise ValueError("tail_order must be 1 or 2")


_DEFAULT_QCFG = QuadratureConfig()
# Pieces per period, p + q - 1, capped by time: memory is O(_BLOCK) at any
# size, and a quadrature costs about 72 ns a piece at two periods (2-core
# x86-64, numpy 2.4), so 11/5 - 2^-21 (2^25 - 6 pieces) takes 2.4 s.
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


def _piece_coeffs(p: int, q: int, last: int, u: np.ndarray):
    """Per-piece arrays of the pieces ending at the lattice slice u, shared by
    every period.

    The first piece starts at last, the breakpoint before the slice.  For the
    piece starting at u_left (u = p*t) the integrand's numerator is
    f0 + f1 tau + (p/q) tau^2 in local coordinates tau = t - u_left/p, with
    f0 = {t}{(p/q)t} and f1 = {(p/q)t} + (p/q){t} at the left edge.  Since
    (j*pq + u) % p = u % p, the arrays hold for every period j.  The
    fractional parts come from frac_ratio, exact in float64.
    Returns (u_left, du, f0, f1), all float64.
    """
    u_right = u.astype(np.float64)
    u_left = np.concatenate([[last], u_right[:-1]])
    fp0, fq0 = (frac_ratio(u_left, m) for m in (p, q))
    return u_left, u_right - u_left, fp0 * fq0, fq0 + (p / q) * fp0


def _lattice_blocks(p: int, q: int):
    """One period's pieces in blocks of about _BLOCK, as a zero-argument
    callable that returns an iterator over (u_left, du, f0, f1).

    Block k holds the pieces ending in (pq (k-1)/n, pq k/n] for n blocks,
    built by merged_breakpoints over that u range; every call rebuilds them
    one at a time, so a pass holds O(_BLOCK) memory whatever p + q is.  A
    period that fits in one block is built once and kept.
    """
    n_blocks = -(-(p + q - 1) // _BLOCK)

    def build():
        lo = last = 0
        for k in range(1, n_blocks + 1):
            hi = p * q * k // n_blocks
            u = merged_breakpoints(p, q, lo, hi)
            if u.size:
                yield _piece_coeffs(p, q, last, u)
                last = int(u[-1])
            lo = hi

    return list(build()).__iter__ if n_blocks == 1 else build


def _horner(x: np.ndarray, *coeffs) -> np.ndarray:
    """((c0 x + c1) x + ... + c_n) x, in place on one fresh array."""
    acc = coeffs[0] * x
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
        _, du, f0, f1 = block
        dt, g0 = du / p, f0 - mu
        iosc = _horner(dt, lam / 3.0, 0.5 * f1, g0)
        iosc[0] += f_acc
        f_bp = np.empty(iosc.size + 1)  # F at the left edges, then at the end
        f_bp[0] = f_acc
        np.cumsum(iosc, out=f_bp[1:])
        f_acc, f_bp = float(f_bp[-1]), f_bp[:-1]
        g_bp = _horner(dt, lam / 12.0, f1 / 6.0, 0.5 * g0, f_bp - nu)  # piece integrals of F - nu
        g_bp[0] += g_acc
        np.cumsum(g_bp, out=g_bp)
        g_acc = float(g_bp[-1])
        max_f = max(max_f, float(np.abs(f_bp).max()))
        max_g = max(max_g, float(np.abs(g_bp).max()))
        maxgap = max(maxgap, float(du.max()) / p)
        sup_f = 1.000001 * (max_f + maxgap) + 1e-12
        sup_g = 1.000001 * (max_g + maxgap * (max_f + abs(nu) + maxgap)) + 1e-12
        yield block, (mu, nu, sup_f, sup_g)


def _series_coeffs(lam: float, h: np.ndarray, f0: np.ndarray, f1: np.ndarray, m_top: int):
    """Rows c_2 .. c_M of the head series (see _head_sum)."""
    coef = np.empty((m_top - 1, h.size))
    s, nh, hf1, h2l = h.copy(), -h, h * f1, (lam * h) * h  # s = (-1)^m h^(m-1)
    for m, row in zip(range(2, m_top + 1), coef):
        np.multiply(hf1, (m - 1) / m, out=row)
        row += f0
        row += h2l * ((m - 1) / (m + 1))
        row *= s
        s *= nh
    return coef


def _head_block(p: int, q: int, block, j_lo: int, j_hi: int):
    """One block's share of the head over periods j_lo .. j_hi - 1.

    Returns (partial sums, sum of squared piece integrals, truncation bound)
    for _head_sum to combine.  A block shorter than _BLOCK is tiled over as
    many periods as fit in _BLOCK pieces.
    """
    u_left, du, f0, f1 = block
    lam, pq = p / q, p * q
    rows = min(max(1, _BLOCK // du.size), j_hi - j_lo)  # periods per Horner pass
    d, fa, fb = (np.tile(a, rows) for a in (du, f0, f1)) if rows > 1 else (du, f0, f1)
    ul = (np.arange(rows, dtype=np.float64)[:, None] * pq + u_left).reshape(-1)
    d_max, coef = float(du.max()), None
    sums, sq_acc, trunc = [], 0.0, 0.0
    for j0 in range(j_lo, j_hi, rows):
        size = min(rows, j_hi - j0) * du.size
        left = j0 * pq + ul[:size]  # left edges and widths d in u
        terms = np.empty(size)
        k = int(np.searchsorted(left, d_max / _SERIES_X))
        if k:  # x = inf at t = 0, where the integrand is lam
            with np.errstate(divide="ignore", invalid="ignore"):
                lk, dk, x = left[:k], d[:k], d[:k] / left[:k]
                lg = np.log1p(x)
                terms[:k] = (
                    fa[:k] * (p * dk) / (lk * (lk + dk)) + fb[:k] * (lg - x / (1.0 + x))
                    + lam * (lk / p) * (x * (2.0 + x) / (1.0 + x) - 2.0 * lg)
                )
            if left[0] == 0.0:
                terms[0] = lam * d[0] / p
        while k < size:
            end = int(np.searchsorted(left, 100.0 * left[k]))
            x_max = d_max / left[k]
            m_top = next(m for m in range(2, 64) if x_max ** (m - 1) <= 2.0**-55)
            if coef is None:  # the block's first stretch needs the highest degree
                coef = _series_coeffs(lam, d / p, fa, fb, m_top)
            w = p / left[k:end]
            terms[k:end] = _horner(w, *coef[m_top - 2 :: -1, k:end]) * w
            trunc += (1.0 + x_max) ** (m_top + 1) * x_max ** (m_top - 1) * p / (m_top * left[k])
            k = end
        sums.append(float(terms.sum()))
        sq_acc += float(np.einsum("i,i->", terms, terms))
    return sums, sq_acc, trunc


def _head_sum(parts) -> tuple[float, float, float]:
    """Sum of integral {t}{(p/q)t}/t^2 over [0, n*q], piece by piece, from the
    _head_block parts of every block and every period range.

    A piece of width h at t = a has the numerator f0 + f1 tau + lam tau^2,
    tau = t - a, so with x = h/a and w = 1/a its integral is
      f0 h/(a(a+h)) + f1 (log(1+x) - x/(1+x)) + lam a (x(2+x)/(1+x) - 2 log(1+x))
      = sum_{m>=2} c_m w^m,  c_m = (-1)^m h^(m-1) (f0 + h((m-1)/m f1 + h (m-1)/(m+1) lam)).
    The c_m depend on the piece alone: built once per block (or tile of whole
    short periods) and pass, they serve every period of the pass, each one
    Horner pass in w = p/(j*pq + u_left) (u = p*t, exact while n*pq <= 2^53).
    Over each stretch where a grows 100-fold the degree M is the smallest
    with x_max^(M-1) <= eps/8, x_max = h_max/a_min.  The pieces with
    a < h_max/_SERIES_X, next to t = 0, keep the log1p form, whose
    cancellation costs about 2 lam h eps a piece.

    Truncation bound.  The parts in f0, f1 and lam each alternate, and for
    x < 2/3 their terms fall (ratios x, <= 4x/3, <= 3x/2), so each remainder
    is at most its first omitted term, all of sign (-1)^(M+1).  A piece's
    remainder is thus at most h^M (f0 + h f1 + h^2 lam)/a^(M+1), and
    f0 + h f1 + h^2 lam = ({t} + h)({lam t} + lam h) <= 1, the numerator at
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

    Rational lambda (Fraction or int) takes the periodic closed-form path;
    float lambda takes the best-effort cutoff path with a wide certified
    tail bracket.

    The rational path's radius sums the tail bound (2 sup_g/T^3, or 2 sup_f/T^2
    at tail_order 1), the head's rigorous truncation bound (see _head_sum), its
    rounding term (an RMS estimate, not a bound) and a floor 2e-16 (1 + |value|).

    The rational path streams one period's lattice in blocks of about _BLOCK
    pieces, so its memory is O(_BLOCK) whatever p + q is.  One pass over the
    blocks takes sup_f, sup_g and, block by block, the head over the periods
    that the bounds so far need; the blocks left short of the final count n
    (a prefix, as the bounds only grow) are built again for the remaining
    periods.  A period of one block is built once.

    It raises ToleranceError before allocating anything (``achieved`` = inf)
    for p + q - 1 > 2^25 pieces per period (a cap set by time, about 2.4 s at
    the cap) or 2pq > 2^53, and, with the attainable radius, when cfg.tol
    needs more periods n than cfg.max_periods, than keep the lattice n*pq
    exact in float64 (<= 2^53), or than keep (p + q - 1) n within 2^26
    pieces, the cap's own two-period budget.  As the running count of
    periods only grows, no head past the budget is summed: such a call
    costs one pass over a period plus at most the budget.
    """
    cfg = cfg or _DEFAULT_QCFG
    if isinstance(lam, (Fraction, int)):
        lam = Fraction(lam)
        if lam <= 0:
            if lam == 0:
                return CertifiedReal(0.0, 0.0)
            raise DomainError("a_quadrature requires lambda >= 0")
        return _a_quad_rational(lam, cfg)
    if lam <= 0:
        raise DomainError("a_quadrature requires lambda > 0 (or exact 0)")
    return _a_quad_irrational(float(lam), cfg)


def _a_quad_rational(lam: Fraction, cfg: QuadratureConfig) -> CertifiedReal:
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
    n_max = min(cfg.max_periods, n_exact, n_budget)

    def periods(sup_f: float, sup_g: float) -> int:  # n with the tail bound within tol/2
        if cfg.tail_order == 2:
            return max(2, math.ceil((4.0 * sup_g / cfg.tol) ** (1.0 / 3.0) / q))
        return max(2, math.ceil((4.0 * sup_f / cfg.tol) ** 0.5 / q))

    # One pass: each block takes the head over the periods that the bounds
    # so far need, never more than the final count; blocks left short take
    # the rest in a second pass.  (On the near-rational ops measured, the
    # first block's bounds already give the final count.)
    blocks, parts, reached = _lattice_blocks(p, q), [], []
    for block, (mu, nu, sup_f, sup_g) in _period_stats(p, q, blocks):
        reached.append(periods(sup_f, sup_g))
        if reached[-1] <= n_max:
            parts.append(_head_block(p, q, block, 0, reached[-1]))
    n_periods = periods(sup_f, sup_g)
    if n_periods > n_max:
        big_t = n_max * q
        achieved = (
            2.0 * sup_g / big_t**3 if cfg.tail_order == 2 else 2.0 * sup_f / big_t**2
        )
        raise ToleranceError(
            f"a_quadrature({lam}): tol {cfg.tol} needs {n_periods} periods "
            f"(max {cfg.max_periods}; exact float64 lattice up to {n_exact}; "
            f"{n_budget} periods of {p + q - 1} pieces within the budget of 2^26 pieces)",
            achieved=achieved,
        )
    short = [n for n in reached if n < n_periods]  # a prefix: reached only grows
    parts += [_head_block(p, q, block, n, n_periods) for n, block in zip(short, blocks())]
    big_t = n_periods * q
    head, round_err, trunc_err = _head_sum(parts)
    if cfg.tail_order == 2:
        tail = mu / big_t + nu / big_t**2
        tail_err = 2.0 * sup_g / big_t**3
    else:
        tail = mu / big_t
        tail_err = 2.0 * sup_f / big_t**2
    value = head + tail
    return CertifiedReal(value, tail_err + trunc_err + round_err + 2e-16 * (1.0 + abs(value)))


def _a_quad_irrational(lam: float, cfg: QuadratureConfig) -> CertifiedReal:
    if cfg.tail_order == 2:
        big_t = math.ceil(1.0 / cfg.tol)
        tail, tail_err = 0.25 / big_t, 1.0 / big_t
    else:
        big_t = math.ceil(0.5 / cfg.tol)
        tail, tail_err = 0.5 / big_t, 0.5 / big_t
    n_pieces = big_t * (1.0 + lam)
    if n_pieces > 4 * cfg.max_periods:
        raise ToleranceError(
            f"a_quadrature({lam}): cutoff {big_t} needs ~{n_pieces:.2e} pieces",
            achieved=float("inf"),
        )
    ints = np.arange(1.0, math.floor(big_t) + 1.0)
    lams = np.arange(1.0, math.floor(lam * big_t) + 1.0) / lam
    edges = np.union1d(ints, lams)
    edges = np.concatenate([[0.0], edges[edges <= big_t], [float(big_t)]])
    edges = np.unique(edges)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    m = np.floor(mid)
    n = np.floor(lam * mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = np.log1p((b - a) / a)
        rr = 1.0 / a - 1.0 / b
        terms = lam * (b - a) - (n + lam * m) * ell + m * n * rr
    terms[0] = lam * (b[0] - a[0])
    head = math.fsum(terms)
    value = head + tail
    return CertifiedReal(value, tail_err + 1e-15 * (1.0 + abs(value)))


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


def a_phi2_relation_residual(lam: Fraction, cfg: QuadratureConfig | None = None) -> float:
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


def delta_functional_equation_residual(
    p: int, q: int, t: Fraction, cfg: QuadratureConfig | None = None
) -> float:
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
