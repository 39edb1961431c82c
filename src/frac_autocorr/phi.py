"""The functions phi_n(x) = sum_k B_n(kx)/k^n and their local machinery.

phi_n at a rational p/q is resummed exactly through Hurwitz zeta values,
phi_n(p/q) = q^{-n} sum_{r=1}^{q} B_n(rp/q) zeta(n, r/q),
which is the only route that reaches machine precision for n = 2 (direct
truncation converges like 1/K and is kept as a cross-check).  The module
also owns the uniform phi_2 grids, built in O(b log b) by FFT correlations
over the unit groups (Z/m)^* with m | b, and the one integrator of
Delta(t) = phi_2(x0 + t) - phi_2(x0) against t^{-a} out to infinity
(``delta_power_integral``) that the autocorrelation and Mellin modules use.
Its whole periods j >= j1 take no loop: with d_k = Delta(k/b), h = 1/b,
s_k = k h - 1/2 and w_j = j + 1/2 (t = w_j + s_k), their panels sum to
sum_n binom(-a, n) h^(n+1) sum_m binom(-a-n, m) Z_(n+m) (F_m/(n+1) + G_m/(n+2)),
F_m = sum_k d_k s_k^m, G_m = sum_k (d_{k+1} - d_k) s_k^m, Z_e = zeta(a + e, j1 + 1/2),
each order cut where its binomial tail bound B_M rho^M/(1 - kappa) is below 1e-17
(``_binomial_terms``; rho = 1/(2 j1 + 1) in m, so M is 49-52 at j1 = 1, |a| <= 3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ToleranceError
from .fracpart import bernoulli_poly, max_abs_bernoulli, zeta_upper_bound
from .rational_core import divisors, unit_coordinates
from .specfun import (
    EULER_GAMMA,
    LOG_2PI,
    PI,
    CertifiedReal,
    hurwitz_zeta,
    hurwitz_zeta_int_vec,
)
from .vasyunin import vasyunin_cot


@dataclass(frozen=True)
class PhiEvalConfig:
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol < 1e-14:
            raise ValueError("tol below 1e-14 is not supported")


_DEFAULT_CFG = PhiEvalConfig()
_MAX_TERMS = 10_000_000  # terms of the truncated phi_n series
# Denominators of the resummation, capped by time: it holds about 80 bytes a
# term and takes about 0.3 s at the cap (shared 2-core x86-64, numpy 2.4).
_MAX_RESUM_Q = 2**20


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Constants of the local model of phi_2 / A near the rational p/q.

    c_plus/c_minus multiply t in the phi_2 increment, d_plus/d_minus in the
    autocorrelation increment, quad_plus/quad_minus are the quadratic
    coefficients q(p+q+-1)/(4p^2).
    """

    c_plus: float
    c_minus: float
    d_plus: float
    d_minus: float
    quad_plus: float
    quad_minus: float
    p: int
    q: int


def phi_sup_bound(n: int) -> float:
    """Rigorous sup_x |phi_n(x)| <= max|B_n| zeta(n)."""
    return max_abs_bernoulli(n) * zeta_upper_bound(n)


def phi_resum_rational(n: int, x: Fraction) -> float:
    """Exact resummation of phi_n at a rational point, n >= 2.

    Serves denominators up to _MAX_RESUM_Q (DomainError above, before
    anything is allocated)."""
    x = Fraction(x) - math.floor(x)
    p, q = x.numerator, x.denominator
    if q > _MAX_RESUM_Q:
        raise DomainError(f"phi_{n}({x}): denominator {q} exceeds 2^20, the resummation's cap")
    r = np.arange(1, q + 1, dtype=np.int64)
    frac = ((r * p) % q) / q
    bvals = bernoulli_poly(n, frac)
    zvals = hurwitz_zeta_int_vec(n, r / q)
    return math.fsum(bvals * zvals) / q**n


def phi_n(n: int, x, cfg: PhiEvalConfig | None = None) -> CertifiedReal:
    """phi_n(x) with a certified absolute error radius (n >= 2).

    Rational x (Fraction or int) uses the exact resummation (error from the
    Hurwitz evaluations only); a float x truncates the series with the
    rigorous tail bound max|B_n| sum_{k>K} k^{-n}.
    """
    if n < 2:
        raise ValueError("phi_n requires n >= 2 (phi_1 only exists at rationals)")
    cfg = cfg or _DEFAULT_CFG
    if isinstance(x, (Fraction, int)):
        val = phi_resum_rational(n, Fraction(x))
        err = 4e-15 * (abs(val) + phi_sup_bound(n))
        return CertifiedReal(val, err)
    xf = float(x)
    if not math.isfinite(xf):
        raise DomainError(f"phi_{n}({x}): x must be finite")
    mn = max_abs_bernoulli(n)
    k_need = math.ceil((mn / ((n - 1) * cfg.tol)) ** (1.0 / (n - 1)))
    if k_need > _MAX_TERMS:
        achieved = mn * _MAX_TERMS ** (1 - n) / (n - 1)
        raise ToleranceError(
            f"phi_{n}({x}): tolerance {cfg.tol} needs {k_need} terms (max {_MAX_TERMS})",
            achieved=achieved,
        )
    chunks = []
    for start in range(1, k_need + 1, 1_000_000):
        k = np.arange(start, min(start + 1_000_000, k_need + 1), dtype=np.float64)
        kx = k * xf
        frac = kx - np.floor(kx)
        chunks.append(math.fsum(bernoulli_poly(n, frac) / k**n))
    total = math.fsum(chunks)
    tail = mn * k_need ** (1 - n) / (n - 1)
    return CertifiedReal(total, tail + 1e-15 * abs(total) * math.log(k_need + 1.0))


def phi1_rational(p: int, q: int) -> float:
    """phi_1(p/q) = (pi / 2q) V(p, q)."""
    return PI / (2 * q) * vasyunin_cot(p, q)


def delta(p: int, q: int, t: Fraction) -> CertifiedReal:
    """Delta_{p,q}(t) = phi_2(p/q + t) - phi_2(p/q) for rational t."""
    if math.gcd(p, q) != 1:
        raise ValueError("delta requires gcd(p, q) = 1")
    t = Fraction(t)
    a = phi_n(2, Fraction(p, q) + t)
    b = phi_n(2, Fraction(p, q))
    return CertifiedReal(a.value - b.value, a.err + b.err)


def _c_plus(p: int, q: int) -> float:
    """C+(p, q) = pi V(p, q) + 2 log q + log 2pi - gamma - 1, the t-coefficient
    of q Delta_{p,q}(t) for t -> 0+ (p = 0, q = 1 allowed)."""
    return PI * vasyunin_cot(p, q) + 2.0 * math.log(q) + LOG_2PI - EULER_GAMMA - 1.0


def expansion_coeffs(p: int, q: int) -> ExpansionCoefficients:
    """The C+-, D+- and quadratic coefficients of the local models at p/q."""
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError("expansion_coeffs requires coprime p, q >= 1")
    vqp = vasyunin_cot(q, p)
    c_plus = _c_plus(p, q)
    c_minus = 2.0 * PI * vasyunin_cot(p, q) - c_plus
    d_common = -0.5 * math.log(p / q) + 0.5 * (LOG_2PI - EULER_GAMMA) - PI / (2 * p) * vqp
    d_var = math.log(q) / p + (LOG_2PI - EULER_GAMMA - 1.0) / (2 * p)
    return ExpansionCoefficients(
        c_plus=c_plus,
        c_minus=c_minus,
        d_plus=d_common + d_var,
        d_minus=d_common - d_var,
        quad_plus=q * (p + q + 1) / (4.0 * p * p),
        quad_minus=q * (p + q - 1) / (4.0 * p * p),
        p=p,
        q=q,
    )


# ----------------------------------------------------------------------
# uniform grids and periodic tails
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def phi2_unit_grid(b: int) -> np.ndarray:
    """phi_2(i/b) for i = 0 .. b-1 by exact resummation, in O(b log b).

    Write i/b = a/q in lowest terms and group r = 1 .. q of the resummation
    by m = q / gcd(r, q):

        phi_2(a/q) = q^-2 sum_{m | q} C_m(a mod m),
        C_m(x) = sum_{u in (Z/m)^*} B_2({ux/m}) zeta(2, u/m),  C_1 = zeta(2)/6.

    Each C_m is a correlation on the unit group (Z/m)^*, computed with real
    FFTs in discrete-log coordinates (``rational_core.unit_coordinates``),
    the reindexing of Rader's prime-length DFT.  The Hurwitz values are the
    one vector zeta(2, r/b), r = 1 .. b, read at r = u b/m.  Cost: the FFTs
    over the m | b cover sum phi(m) = b points, O(b log b); the gather over
    the q | b takes sum_q tau(q) phi(q) <= tau(b) b element operations.
    Error: within 1e-15 absolute of the O(b^2) direct sum (kept as a test
    oracle) and about 1e-16 from a 30-digit reference, at b up to 16384.
    """
    zvals = hurwitz_zeta_int_vec(2, np.arange(1, b + 1, dtype=np.int64) / b)
    units, corr = {}, {}
    for m in divisors(b):
        u = unit_coordinates(m)
        x = u / m
        bvals = x * x - x + (1.0 / 6.0)
        zu = zvals[u * (b // m) - 1]  # m = 1: u = 0 reads zeta(2, 1) at r = b
        axes = tuple(range(u.ndim))
        spec = np.fft.rfftn(bvals, axes=axes) * np.fft.rfftn(zu, axes=axes).conj()
        c = np.zeros(m, dtype=np.float64)
        c[u] = np.fft.irfftn(spec, s=u.shape, axes=axes)
        units[m], corr[m] = u.ravel(), c
    out = np.empty(b, dtype=np.float64)
    for q, a in units.items():
        out[a * (b // q)] = sum(corr[m][a % m] for m in divisors(q)) / (q * q)
    return out


# mellin_delta, mellin_autocorr and the Delta functional equation read a period 2-4 times
@functools.lru_cache(maxsize=4)
def _delta_period(x0: Fraction, q: int) -> tuple[int, float, np.ndarray]:
    """(b, phi_2(x0), Delta(k/b) for k = 0 .. b), Delta(t) = phi_2(x0 + t) - phi_2(x0).

    b = q max(1, 16384 // q) points per unit, q a multiple of the denominator
    of x0 (so x0 and every multiple of 1/q lie on the grid); the values are
    read from the cached ``phi2_unit_grid(b)``, and returned read-only.
    """
    b = q * max(1, 16384 // q)
    c = phi_resum_rational(2, x0)
    ks = np.arange(b + 1, dtype=np.int64)
    d = phi2_unit_grid(b)[(ks + x0.numerator * (b // x0.denominator)) % b] - c
    d.flags.writeable = False
    return b, c, d


def delta_power_integral(x0: Fraction, q: int, lo: Fraction, a: complex) -> complex:
    """integral_lo^inf (phi_2(x0 + t) - phi_2(x0)) t^{-a} dt, lo > 0, Re a > 1.

    The piecewise-linear interpolant of one period of Delta (``_delta_period``)
    is integrated exactly: lo's partial period panel by panel (with the exact
    resummed value at lo; an integer lo takes no panels), every whole period
    from ceil(lo) on by the module docstring's moment sum (``_periods_power``).
    No radius: checked only through the identities that use it.
    """
    x0, lo, a = Fraction(x0), Fraction(lo), complex(a)
    if lo <= 0 or a.real <= 1.0:
        raise ValueError("delta_power_integral requires lo > 0 and Re a > 1")
    b, c, d = _delta_period(x0, q)
    k_lo, j1 = math.ceil(lo * b), math.ceil(lo)
    r = k_lo - (j1 - 1) * b  # in [1, b]: lo's period starts at t = j1 - 1
    t = np.arange(r, b + 1) / b + (j1 - 1)
    total = _linear_panels_power(t, d[r:], a) + _periods_power(d, a, j1)
    if k_lo != lo * b:
        d_lo = phi_resum_rational(2, x0 + lo) - c
        total += _linear_panels_power(np.array([float(lo), t[0]]), np.array([d_lo, d[r]]), a)
    return total


def _binomial_terms(beta: float, rho: float) -> int:
    """Smallest M with sum_{m >= M} |binom(-z, m)| rho^m <= 1e-17, |z| <= beta, rho < 1, by the bound
    B_M rho^M/(1 - kappa), B_m = prod_{i<m} (beta + i)/(i + 1), kappa = rho max(beta + M, M + 1)/(M + 1)."""
    m, term = 0, 1.0  # B_m rho^m
    while (kappa := rho * max(beta + m, m + 1.0) / (m + 1)) >= 1.0 or term > 1e-17 * (1.0 - kappa):
        term *= rho * (beta + m) / (m + 1)
        m += 1
    return m


def _periods_power(d: np.ndarray, a: complex, j1: int) -> complex:
    """The panels over the samples d at t = j + k/b, b = d.size - 1, for every
    j >= j1 >= 1, by the module docstring's sum: orders N in r = h/t0 <= 1/(b j1)
    and M in |s_k|/w_j <= 1/(2 j1 + 1), |a + n| < |a| + N; Re a > 1."""
    h = 1.0 / (d.size - 1)
    n_ord = _binomial_terms(abs(a), h / j1)
    m_ord = _binomial_terms(abs(a) + n_ord - 1, 1.0 / (2 * j1 + 1))
    s = np.arange(d.size - 1) * h - 0.5
    ws = np.stack((d[:-1], np.diff(d)))
    x, mom = np.ones(s.size), np.empty((2, m_ord))  # x = s_k^m
    for m in range(m_ord):
        mom[:, m] = ws @ x
        x *= s
    z = hurwitz_zeta(a + np.arange(n_ord + m_ord - 1), j1 + 0.5)  # Z_e
    m = np.arange(1, m_ord)
    total, c = 0.0 + 0.0j, 1.0 + 0.0j
    for n in range(n_ord):
        bm = np.cumprod(np.concatenate(([1.0], (-a - n - m + 1) / m)))  # binom(-a-n, m)
        total += c * h ** (n + 1) * np.dot(bm * z[n : n + m_ord], mom[0] / (n + 1) + mom[1] / (n + 2))
        c *= (-a - n) / (n + 1)
    return complex(total)


def _linear_panels_power(t: np.ndarray, f: np.ndarray, a: complex) -> complex:
    """integral of the piecewise-linear interpolant of f against t^{-a}, a != 1, 2.

    Panels are consecutive (t0, t0 + h), t0 > 0, each integrated exactly in
    local coordinates about its left end, t = t0 (1 + u), u in [0, r], r = h/t0:

        h t0^{-a} (f0 P0(r) + (f1 - f0) P1(r)),
        P0 = r^-1 int_0^r (1+u)^-a du,  P1 = r^-2 int_0^r u (1+u)^-a du,

    both O(1), so no term grows with t0.  Where r < 1/(16 (1 + |a|)) the closed
    form of P1 cancels, and P0, P1 are power series in r with the binomial
    coefficients c_n of -a, cut where ``_binomial_terms`` bounds the tail by 1e-17:
    those panels add up to sum_n c_n (M0_n/(n+1) + M1_n/(n+2)) with the moments
    M0_n = sum h t0^-a f0 r^n, M1_n = sum h t0^-a (f1 - f0) r^n.
    The other panels take expm1/log1p closed forms.
    """
    a = complex(a)
    t0, h = t[:-1], np.diff(t)
    r = h / t0
    # rows re, im of h t0^-a f0, then of h t0^-a (f1 - f0), in place: real
    # exp, cos and sin beat numpy's complex exp, and few temporaries keep
    # the allocator from mapping fresh pages for every call
    lt = np.log(t0)
    wf = np.empty((4, r.size))
    np.multiply(lt, -a.imag, out=wf[1])
    np.cos(wf[1], out=wf[0])
    np.sin(wf[1], out=wf[1])
    lt *= -a.real
    np.exp(lt, out=lt)
    lt *= h
    wf[:2] *= lt
    np.multiply(wf[:2], np.diff(f), out=wf[2:])
    wf[:2] *= f[:-1]
    small = r < 1.0 / (16.0 * (1.0 + abs(a)))
    total = 0.0 + 0.0j
    if small.any():
        rs, ws = (r, wf) if small.all() else (r[small], wf[:, small])
        x, c = np.ones_like(rs), 1.0 + 0.0j  # r^n, binom(-a, n)
        for n in range(_binomial_terms(abs(a), float(rs.max()))):
            m = ws @ x
            total += c * (complex(m[0], m[1]) / (n + 1) + complex(m[2], m[3]) / (n + 2))
            x *= rs
            c *= (-a - n) / (n + 1)
    big = ~small
    if big.any():
        rb = r[big]
        lg = np.log1p(rb)
        i0 = np.expm1((1.0 - a) * lg) / (1.0 - a)
        i1 = np.expm1((2.0 - a) * lg) / (2.0 - a) - i0
        wb = wf[:, big]
        total += complex(((wb[0] + 1j * wb[1]) * (i0 / rb) + (wb[2] + 1j * wb[3]) * (i1 / (rb * rb))).sum())
    return total
