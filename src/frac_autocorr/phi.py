"""The functions phi_n(x) = sum_k B_n(kx)/k^n and their local machinery.

phi_n at a rational p/q is resummed exactly through Hurwitz zeta values,
phi_n(p/q) = q^{-n} sum_{r=1}^{q} B_n(rp/q) zeta(n, r/q),
which is the only route that reaches machine precision for n = 2 (direct
truncation converges like 1/K and is kept as a cross-check).  The module
also owns the uniform phi_2 grids, built in O(b log b) by FFT correlations
over the unit groups (Z/m)^* with m | b and sampled through one helper
(``phi2_grid_samples``), and the integration-by-parts tails of
integral_X^inf phi_2(x0 + t) t^{-a} dt used by the autocorrelation and
Mellin modules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ToleranceError
from .fracpart import _B_TABLES, bernoulli_fn, max_abs_bernoulli
from .rational_core import divisors, unit_coordinates
from .specfun import (
    EULER_GAMMA,
    LOG_2PI,
    PI,
    CertifiedReal,
    hurwitz_zeta_int_vec,
)
from .vasyunin import vasyunin_cot


@dataclass(frozen=True)
class PhiEvalConfig:
    tol: float = 1e-10
    max_terms: int = 10_000_000
    rational_resum: bool = True

    def __post_init__(self):
        if self.tol < 1e-14:
            raise ValueError("tol below 1e-14 is not supported")


_DEFAULT_CFG = PhiEvalConfig()


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


def zeta_int(n: int) -> float:
    """zeta(n) for integer n >= 2."""
    return float(hurwitz_zeta_int_vec(n, np.array([1.0]))[0])


def phi_sup_bound(n: int) -> float:
    """Rigorous sup_x |phi_n(x)| <= max|B_n| zeta(n)."""
    return max_abs_bernoulli(n) * zeta_int(n)


def phi_at_zero(n: int) -> float:
    """phi_n(0) = B_n zeta(n)."""
    return float(_B_TABLES[n][0]) * zeta_int(n)


def _bernoulli_poly_vec(n: int, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in reversed(_B_TABLES[n]):
        acc = acc * x + float(c)
    return acc


def phi_resum_rational(n: int, x: Fraction) -> float:
    """Exact resummation of phi_n at a rational point."""
    x = Fraction(x) - math.floor(x)
    p, q = x.numerator, x.denominator
    r = np.arange(1, q + 1, dtype=np.int64)
    frac = ((r * p) % q) / q
    bvals = _bernoulli_poly_vec(n, frac)
    if n == 1:  # B_1 convention: zero at integers
        bvals = np.where((r * p) % q == 0, 0.0, bvals)
    zvals = hurwitz_zeta_int_vec(n, r / q)
    return math.fsum(bvals * zvals) / q**n


def phi_n(n: int, x, cfg: PhiEvalConfig | None = None) -> CertifiedReal:
    """phi_n(x) with a certified absolute error radius (n >= 2).

    Rational x with cfg.rational_resum uses the exact resummation (error
    from the Hurwitz evaluations only); otherwise the series is truncated
    with the rigorous tail bound max|B_n| sum_{k>K} k^{-n}.
    """
    if n < 2:
        raise ValueError("phi_n requires n >= 2 (phi_1 only exists at rationals)")
    cfg = cfg or _DEFAULT_CFG
    if cfg.rational_resum and isinstance(x, (Fraction, int)):
        val = phi_resum_rational(n, Fraction(x))
        err = 4e-15 * (abs(val) + phi_sup_bound(n))
        return CertifiedReal(val, err)
    xf = float(x)
    mn = max_abs_bernoulli(n)
    k_need = math.ceil((mn / ((n - 1) * cfg.tol)) ** (1.0 / (n - 1)))
    if k_need > cfg.max_terms:
        achieved = mn * cfg.max_terms ** (1 - n) / (n - 1)
        raise ToleranceError(
            f"phi_{n}({x}): tolerance {cfg.tol} needs {k_need} terms "
            f"(max_terms={cfg.max_terms})",
            achieved=achieved,
        )
    total = 0.0
    chunks = []
    for start in range(1, k_need + 1, 1_000_000):
        k = np.arange(start, min(start + 1_000_000, k_need + 1), dtype=np.float64)
        kx = k * xf
        frac = kx - np.floor(kx)
        chunks.append(math.fsum(_bernoulli_poly_vec(n, frac) / k**n))
    total = math.fsum(chunks)
    tail = mn * k_need ** (1 - n) / (n - 1)
    return CertifiedReal(total, tail + 1e-15 * abs(total) * math.log(k_need + 1.0))


def phi1_rational(p: int, q: int) -> float:
    """phi_1(p/q) = (pi / 2q) V(p, q)."""
    return PI / (2 * q) * vasyunin_cot(p, q)


def delta(p: int, q: int, t: Fraction, cfg: PhiEvalConfig | None = None) -> CertifiedReal:
    """Delta_{p,q}(t) = phi_2(p/q + t) - phi_2(p/q) for rational t."""
    if math.gcd(p, q) != 1:
        raise ValueError("delta requires gcd(p, q) = 1")
    t = Fraction(t)
    a = phi_n(2, Fraction(p, q) + t, cfg)
    b = phi_n(2, Fraction(p, q), cfg)
    return CertifiedReal(a.value - b.value, a.err + b.err)


def expansion_coeffs(p: int, q: int) -> ExpansionCoefficients:
    """The C+-, D+- and quadratic coefficients of the local models at p/q."""
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError("expansion_coeffs requires coprime p, q >= 1")
    vpq = vasyunin_cot(p, q)
    vqp = vasyunin_cot(q, p)
    base = 2.0 * math.log(q) + LOG_2PI - EULER_GAMMA - 1.0
    c_plus = PI * vpq + base
    c_minus = PI * vpq - base
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


def phi2_grid_samples(
    x0: Fraction, q: int, lo: Fraction, hi: int, target: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """(b, t, phi_2(x0 + t)) at t = k/b for k = ceil(lo b) .. hi b.

    b = q max(1, target // q) points per unit, q a multiple of the
    denominator of x0 (so x0 and every multiple of 1/q lie on the grid);
    the values are read from the cached ``phi2_unit_grid(b)``.
    """
    b = q * max(1, target // q)
    grid = phi2_unit_grid(b)
    ks = np.arange(math.ceil(lo * b), hi * b + 1, dtype=np.int64)
    offset = x0.numerator * (b // x0.denominator)
    return b, ks / b, grid[(ks + offset) % b]


def phi2_tail_integral(x0: Fraction, big_x: int, a: complex) -> tuple[complex, float]:
    """(value, bound) for integral_X^inf phi_2(x0 + t) t^{-a} dt, Re a > 0.

    Three integrations by parts against the periodic antiderivatives
    phi_3/3, phi_4/4, phi_5/5; X integer so the boundary values are the
    phi_n(x0).
    """
    a = complex(a)
    if a.real <= 0:
        raise ValueError("phi2_tail_integral requires Re a > 0")
    x0 = Fraction(x0)
    p3 = phi_resum_rational(3, x0)
    p4 = phi_resum_rational(4, x0)
    p5 = phi_resum_rational(5, x0)
    xa = big_x ** (-a)
    value = (
        -p3 * xa / 3.0
        - a * p4 * xa / big_x / 12.0
        - a * (a + 1.0) * p5 * xa / big_x**2 / 60.0
    )
    bound = (
        abs(a * (a + 1.0) * (a + 2.0))
        / 60.0
        * phi_sup_bound(5)
        * big_x ** (-a.real - 2.0)
        / (a.real + 2.0)
    )
    return value, bound


def phi2_tail_weighted(lam: Fraction, exponent: int = 3, big_x: int | None = None) -> CertifiedReal:
    """integral_lam^inf phi_2(t) t^{-exponent} dt with a certified radius.

    Panel-exact integration of the interpolated phi_2 grid on [lam, X],
    then the integration-by-parts tail beyond the integer X.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("phi2_tail_weighted requires lam > 0")
    big_x = big_x or max(16, math.ceil(lam) + 4)
    # panel edges k/b from lam to X (exact alignment: b is a multiple of lam's denominator)
    _, t, f = phi2_grid_samples(Fraction(0), lam.denominator, lam, big_x, 8192)
    val_mid = _linear_panels_power(t, f, float(exponent)).real
    tail_val, tail_err = phi2_tail_integral(Fraction(0), big_x, float(exponent))
    # interpolation error: cusp field of phi_2, estimated via the half-grid
    f_half = f[::2]
    t_half = t[::2]
    val_half = _linear_panels_power(t_half, f_half, float(exponent)).real
    est = abs(val_mid - val_half) + 1e-14
    return CertifiedReal(val_mid + tail_val.real, est + tail_err)


def _linear_panels_power(t: np.ndarray, f: np.ndarray, a: complex) -> complex:
    """integral of the piecewise-linear interpolant of f against t^{-a}.

    Panels are consecutive (t[i], t[i+1]); exact antiderivative per panel.
    """
    t0, t1 = t[:-1], t[1:]
    f0, f1 = f[:-1], f[1:]
    c1 = (f1 - f0) / (t1 - t0)
    c0 = f0 - c1 * t0
    e1 = 1.0 - a
    e2 = 2.0 - a
    p0 = (t1**e1 - t0**e1) / e1
    p1 = (t1**e2 - t0**e2) / e2
    vals = c0 * p0 + c1 * p1
    return complex(vals.sum())


def phi2_continuity_scan(dlt: float, grid: int = 4096) -> float:
    """Empirical modulus of continuity of phi_2 at scale dlt, normalised.

    sup over the grid of |phi_2(x) - phi_2(y)| for |x - y| <= dlt, divided
    by dlt * log(1/dlt).
    """
    if not 0.0 < dlt <= 0.5:
        raise ValueError("phi2_continuity_scan requires 0 < dlt <= 1/2")
    vals = phi2_unit_grid(grid)
    w = max(1, round(dlt * grid))
    padded = np.concatenate([vals, vals[: w + 1]])
    windows = np.lib.stride_tricks.sliding_window_view(padded, w + 1)
    sup = float((windows.max(axis=1) - windows.min(axis=1)).max())
    return sup / (dlt * math.log(1.0 / dlt))


# ----------------------------------------------------------------------
# divisor-weighted sine sums
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def divisor_sieve(n: int) -> np.ndarray:
    """tau(k) for k = 0 .. n (tau(0) unused)."""
    tau = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        tau[d::d] += 1
    return tau


def tau_sin_partial_sum(n_terms: int, x: float) -> float:
    """sum_{k<=K} tau(k) sin(kx)/k via the divisor-pair rearrangement
    sum_a (1/a) sum_{b<=K/a} sin(abx)/b."""
    if n_terms < 1:
        raise ValueError("tau_sin_partial_sum requires K >= 1")
    parts = []
    for a in range(1, n_terms + 1):
        b = np.arange(1, n_terms // a + 1, dtype=np.float64)
        parts.append(math.fsum(np.sin(a * b * x) / b) / a)
    return math.fsum(parts)


def tau_sin_scan(n_terms: int, xs: np.ndarray) -> np.ndarray:
    """Vector of sum_{k<=K} tau(k) sin(k x)/k over the grid xs (sieve form)."""
    tau = divisor_sieve(n_terms)[1:].astype(np.float64)
    k = np.arange(1, n_terms + 1, dtype=np.float64)
    w = tau / k
    out = np.zeros_like(xs, dtype=np.float64)
    block = max(1, 20_000_000 // max(1, xs.size))
    for start in range(0, n_terms, block):
        kk = k[start : start + block]
        ww = w[start : start + block]
        out += np.sin(np.outer(xs, kk)) @ ww
    return out
