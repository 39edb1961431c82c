"""The multiplicative autocorrelation A(lambda) = integral {t}{lambda t} t^-2 dt.

Two fully independent evaluation paths:

* ``a_quadrature``: piecewise-exact integration.  For rational lambda = p/q
  the integrand's numerator is q-periodic; the head is summed in closed form
  over M periods and the tail is mu/T + nu/T^2.  mu = 1/4 + 1/(12pq) is the
  per-period mean of the integrand (closed form, Franel's integral); nu, the
  mean of its oscillation antiderivative, and the antiderivative bounds are
  float64 sums over one period, with a rigorous remainder bound from the
  second antiderivative.
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
    phi1_rational,
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
from .vasyunin import modular_inverse, vasyunin_cot


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
_MAX_PIECES = 2**23  # pieces per period, p + q - 1 (2/3 +- 2^-20 has ~5.2M)
_HEAD_BLOCK = 1 << 16  # pieces per head-sum block, so its temporaries stay in cache


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
# per-period statistics for the quadrature tail
# ----------------------------------------------------------------------


def _piece_coeffs(p: int, q: int, u: np.ndarray):
    """Per-piece arrays of one period, shared by every period.

    For the piece starting at u_left (u = p*t) the integrand's numerator is
    f0 + f1 tau + (p/q) tau^2 in local coordinates tau = t - u_left/p, with
    f0 = {t}{(p/q)t} and f1 = {(p/q)t} + (p/q){t} at the left edge.  Since
    (j*pq + u) % p = u % p, the arrays hold for every period j.  Returns
    (u_left, du, f0, f1).
    """
    u_left = np.concatenate([[0], u[:-1]])
    fp0 = (u_left % p) / p
    fq0 = (u_left % q) / q
    return u_left, u - u_left, fp0 * fq0, fq0 + (p / q) * fp0


def _period_stats(p: int, q: int, du: np.ndarray, f0: np.ndarray, f1: np.ndarray):
    """Per-period means and antiderivative bounds for the quadrature tail.

    mu is exact: by Franel's integral int_0^1 B1(ax) B1(bx) dx = 1/(12ab)
    for coprime a, b, the mean of {t}{(p/q)t} over a period is
    1/4 + 1/(12pq).  nu, sup_f and sup_g are float64 accumulations over the
    pieces, with sup_f, sup_g inflated to cover their rounding.  Returns
    (mu, nu, sup_f, sup_g).
    """
    lam = p / q
    mu = (3 * p * q + 1) / (12 * p * q)
    dt = du / p
    dt2 = dt * dt
    dt3 = dt2 * dt
    ig = lam * dt3 / 3.0 + f1 * dt2 / 2.0 + f0 * dt
    iosc = ig - mu * dt
    f_bp = np.concatenate([[0.0], np.cumsum(iosc)[:-1]])
    ifs = f_bp * dt + lam * dt2 * dt2 / 12.0 + f1 * dt3 / 6.0 + (f0 - mu) * dt2 / 2.0
    nu = float(ifs.sum() / q)
    g_bp = np.cumsum(ifs - nu * dt)
    maxgap = float(dt.max())
    max_f = float(np.abs(f_bp).max())
    max_g = float(np.abs(g_bp).max())
    sup_f = 1.000001 * (max_f + maxgap) + 1e-12
    sup_g = 1.000001 * (max_g + maxgap * (max_f + abs(nu) + maxgap)) + 1e-12
    return mu, nu, sup_f, sup_g


def _kernels(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log1p(x) - x/(1+x), x(2+x)/(1+x) - 2 log1p(x)), values ~ x^2/2, x^3/3.

    Each element takes one branch: the power series where x < 0.01, the
    log1p form elsewhere.
    """
    big = x >= 0.01
    mixed = big.any()
    xs = x[~big] if mixed else x
    v = xs * xs * (
        1.0 / 2.0
        - xs * (2.0 / 3.0 - xs * (3.0 / 4.0 - xs * (4.0 / 5.0 - xs * (5.0 / 6.0 - xs * 6.0 / 7.0))))
    )
    u = xs**3 * (
        1.0 / 3.0
        - xs * (2.0 / 4.0 - xs * (3.0 / 5.0 - xs * (4.0 / 6.0 - xs * 5.0 / 7.0)))
    )
    if not mixed:
        return v, u
    kv = np.empty_like(x)
    ku = np.empty_like(x)
    kv[~big], ku[~big] = v, u
    xb = x[big]
    lg = np.log1p(xb)
    kv[big] = lg - xb / (1.0 + xb)
    ku[big] = xb * (2.0 + xb) / (1.0 + xb) - 2.0 * lg
    return kv, ku


def _head_sum(
    p: int, q: int, u_left: np.ndarray, du: np.ndarray, f0: np.ndarray, f1: np.ndarray,
    n_periods: int,
) -> tuple[float, float]:
    """Closed-form sum of integral {t}{(p/q)t}/t^2 over [0, n_periods*q].

    Each piece is integrated in local coordinates t = a + tau, where the
    integrand is (f2 tau^2 + f1 tau + f0)/(a+tau)^2 with f0, f1 of unit
    size, so no large cancelling terms appear.  Pieces are summed in blocks
    of about _HEAD_BLOCK: whole periods when a period is shorter, else
    slices of one period.  A block broadcasts its left edges j*pq + u_left
    (in u = p*t, exact in float64 while n_periods*pq <= 2^53) against the
    period-invariant arrays.  Returns a pair (value, rounding_estimate).
    """
    lam = p / q
    pq = p * q
    duf = du.astype(np.float64)
    u_leftf = u_left.astype(np.float64)
    f0pdu = f0 * (p * duf)
    rows = max(1, _HEAD_BLOCK // du.size)
    sums = []
    sq_acc = 0.0
    for j0 in range(0, n_periods, rows):
        js = np.arange(j0, min(j0 + rows, n_periods), dtype=np.float64) * pq
        for c0 in range(0, du.size, _HEAD_BLOCK):
            c = slice(c0, c0 + _HEAD_BLOCK)
            leftf = js[:, None] + u_leftf[c]
            with np.errstate(divide="ignore", invalid="ignore"):
                kv, ku = _kernels(duf[c] / leftf)
                terms = (
                    f0pdu[c] / (leftf * (leftf + duf[c])) + f1[c] * kv + lam * (leftf / p) * ku
                )
            if j0 == 0 and c0 == 0:
                terms[0, 0] = lam * duf[0] / p  # piece at t = 0: integrand == lam
            sums.append(float(terms.sum()))
            sq_acc += float((terms * terms).sum())
    return math.fsum(sums), 4e-16 * math.sqrt(sq_acc) + 1e-16 * abs(math.fsum(sums))


def a_quadrature(lam, cfg: QuadratureConfig | None = None) -> CertifiedReal:
    """A(lambda) by certified piecewise-exact quadrature.

    Rational lambda (Fraction or int) takes the periodic closed-form path;
    float lambda takes the best-effort cutoff path with a wide certified
    tail bracket.

    The rational path raises ToleranceError before allocating anything
    (``achieved`` = inf) for p + q - 1 > 2^23 pieces per period or 2pq > 2^53,
    and, with the attainable radius, when cfg.tol needs more periods n than
    cfg.max_periods or than keep the lattice n*pq exact in float64 (<= 2^53).
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
    u_left, du, f0, f1 = _piece_coeffs(p, q, merged_breakpoints(p, q, 0, p * q))
    mu, nu, sup_f, sup_g = _period_stats(p, q, du, f0, f1)
    if cfg.tail_order == 2:
        t_needed = (4.0 * sup_g / cfg.tol) ** (1.0 / 3.0)
    else:
        t_needed = (4.0 * sup_f / cfg.tol) ** 0.5
    n_periods = max(2, math.ceil(t_needed / q))
    n_max = min(cfg.max_periods, n_exact)
    if n_periods > n_max:
        big_t = n_max * q
        achieved = (
            2.0 * sup_g / big_t**3 if cfg.tail_order == 2 else 2.0 * sup_f / big_t**2
        )
        raise ToleranceError(
            f"a_quadrature({lam}): tol {cfg.tol} needs {n_periods} periods "
            f"(max {cfg.max_periods}; exact float64 lattice up to {n_exact})",
            achieved=achieved,
        )
    big_t = n_periods * q
    head, round_err = _head_sum(p, q, u_left, du, f0, f1, n_periods)
    if cfg.tail_order == 2:
        tail = mu / big_t + nu / big_t**2
        tail_err = 2.0 * sup_g / big_t**3
    else:
        tail = mu / big_t
        tail_err = 2.0 * sup_f / big_t**2
    value = head + tail
    return CertifiedReal(value, tail_err + round_err + 2e-16 * (1.0 + abs(value)))


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
        ell = np.log(b / a)
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
    lam = p / q
    return (
        0.5 * (1.0 - lam) * math.log(lam)
        + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA)
        - PI / (2 * q) * (vasyunin_cot(p, q) + vasyunin_cot(q, p))
    )


def a_via_phi1(p: int, q: int) -> float:
    """A(p/q) through phi_1: algebraically identical to a_rational."""
    if q < 1 or p < 1 or math.gcd(p, q) != 1:
        raise DomainError("a_via_phi1 requires coprime p, q >= 1")
    lam = p / q
    return (
        0.5 * (1.0 - lam) * math.log(lam)
        + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA)
        - phi1_rational(p, q)
        - lam * phi1_rational(q, p)
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
    integration-by-parts tail, minus the exact mean part.
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
    """A(p/q) over the Farey fractions of the given order in [lo, hi]."""
    if Fraction(lo) < 0:
        raise DomainError("farey_scan requires lo >= 0")
    records = []
    for f in farey_sequence(order, lo, hi):
        p, q = f.numerator, f.denominator
        value = 0.0 if p == 0 else a_rational(p, q)
        records.append(FareyScanRecord(p=p, q=q, lam=p / q, a_value=value))
    return records


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
