"""Real and complex special functions used throughout the package.

Everything here is scalar binary64 (complex128) with conventional error
targets: digamma and log-gamma aim at <= 1e-13 relative error away from
poles, the Euler-Maclaurin Hurwitz zeta at <= 1e-12 relative error for
moderate |Im s|.  The Hurwitz zeta also takes an array of a (one row per
call); vectorised real variants for integer first argument are provided
for the grid computations of the phi modules.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

# Binary64 constants, kept in one place.
EULER_GAMMA = 0.5772156649015329
LOG_2PI = 1.8378770664093453
PI = math.pi

# Bernoulli numbers B_2, B_4, ..., B_24 (exact values as floats).
_BERNOULLI_2N = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)


@dataclass(frozen=True)
class CertifiedReal:
    """A computed value together with an absolute error radius.

    The radius is valid under the producing routine's stated error model
    (rigorous truncation bounds plus a first-order rounding allowance).
    """

    value: float
    err: float

    def __post_init__(self):
        if not math.isfinite(self.err) or self.err < 0:
            raise ValueError(f"error radius must be finite and >= 0, got {self.err}")

    def __float__(self) -> float:
        return self.value


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    return z.imag == 0.0 and z.real <= 0.5 and abs(z.real - round(z.real)) < tol


def sinpi(z: complex | float):
    """sin(pi z) with exact reduction of the real part modulo 1.

    Near-integer arguments keep full relative accuracy, which the naive
    sin(pi*z) loses to the rounding of pi*z.
    """
    want_real = not isinstance(z, complex)
    w = complex(z)
    m = round(w.real)
    val = cmath.sin(PI * (w - m))
    if m % 2:
        val = -val
    return val.real if want_real else val


def cospi(z: complex | float):
    """cos(pi z) with exact reduction of the real part modulo 1."""
    want_real = not isinstance(z, complex)
    w = complex(z)
    m = round(w.real)
    val = cmath.cos(PI * (w - m))
    if m % 2:
        val = -val
    return val.real if want_real else val


# ----------------------------------------------------------------------
# digamma / trigamma
# ----------------------------------------------------------------------

_PSI_SHIFT = 12.0


def digamma(z: complex | float):
    """psi(z) = Gamma'(z)/Gamma(z).

    Reflection to Re z >= 1/2, recurrence shift to |z| >= 12, then the
    asymptotic series log z - 1/(2z) - sum B_{2j}/(2j z^{2j}).
    """
    want_real = not isinstance(z, complex)
    w = complex(z)
    if _is_nonpositive_integer(w):
        raise PoleError(f"digamma pole at z={w}", location=w)
    if w.real < 0.5:
        # psi(z) = psi(1-z) - pi*cot(pi*z)
        val = _digamma_half(1.0 - w) - PI * cospi(w) / sinpi(w)
    else:
        val = _digamma_half(w)
    return val.real if want_real and val.imag == 0.0 else val


def _digamma_half(z: complex) -> complex:
    acc = 0.0 + 0.0j
    while abs(z) < _PSI_SHIFT:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    s = 0.0 + 0.0j
    p = inv2
    for j, b in enumerate(_BERNOULLI_2N[:8], start=1):
        s += b / (2 * j) * p
        p *= inv2
    return acc + cmath.log(z) - 0.5 / z - s


def trigamma(z: complex | float):
    """psi'(z) = sum_{n>=0} 1/(n+z)^2."""
    want_real = not isinstance(z, complex)
    w = complex(z)
    if _is_nonpositive_integer(w):
        raise PoleError(f"trigamma pole at z={w}", location=w)
    if w.real < 0.5:
        # psi'(z) + psi'(1-z) = pi^2 / sin^2(pi z)
        sp = sinpi(complex(w))
        val = PI * PI / (sp * sp) - _trigamma_half(1.0 - w)
    else:
        val = _trigamma_half(w)
    return val.real if want_real and val.imag == 0.0 else val


def _trigamma_half(z: complex) -> complex:
    acc = 0.0 + 0.0j
    while abs(z) < _PSI_SHIFT:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    s = inv + 0.5 * inv2
    p = inv * inv2
    for j, b in enumerate(_BERNOULLI_2N[:8], start=1):
        s += b * p
        p *= inv2
    return acc + s


def trigamma_vec(a: np.ndarray) -> np.ndarray:
    """Vectorised psi' for positive real arguments (grid workhorse)."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0):
        raise DomainError("trigamma_vec requires positive arguments")
    shift = np.maximum(0, np.ceil(_PSI_SHIFT - a)).astype(np.int64)
    nmax = int(shift.max()) if shift.size else 0
    acc = np.zeros_like(a)
    z = a.copy()
    for _ in range(nmax):
        mask = shift > 0
        acc[mask] += 1.0 / (z[mask] * z[mask])
        z[mask] += 1.0
        shift[mask] -= 1
    inv = 1.0 / z
    inv2 = inv * inv
    s = inv + 0.5 * inv2
    p = inv * inv2
    for b in _BERNOULLI_2N[:8]:
        s += b * p
        p = p * inv2
    return acc + s


# ----------------------------------------------------------------------
# Hurwitz / Riemann zeta by Euler-Maclaurin continuation
# ----------------------------------------------------------------------

_EM_ORDER = 12  # Bernoulli correction order (B_2 .. B_24)


def hurwitz_zeta(s: complex | float, a):
    """zeta(s, a) for complex s != 1 and real a in (0, 1], a float or an ndarray.

    Euler-Maclaurin with an upward shift of a until the order-12 Bernoulli
    tail is negligible; valid on the whole s-plane minus the pole at 1.  The
    shift depends on s only, so an array of a (a whole row zeta(s, j/k)) is
    one vectorised pass; a float gives a complex, an array a complex array.
    Every entry is checked before any work is done.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("hurwitz_zeta pole at s=1", location=1.0 + 0.0j)
    x = np.asarray(a, dtype=np.float64)
    ok = (x > 0.0) & (x <= 1.0 + 1e-15)
    if not ok.all():
        raise DomainError(f"hurwitz_zeta requires a in (0,1], got {x[~ok].flat[0]}")
    n_shift = max(10, int(0.6 * abs(s)) + 8, int(4 - s.real))
    head = np.exp(-s * np.log(x[..., None] + np.arange(n_shift))).sum(axis=-1)
    w = x + n_shift
    ws = np.exp(-s * np.log(w))  # w^{-s}
    tail = w * ws / (s - 1.0) + 0.5 * ws
    # Bernoulli corrections B_{2j}/(2j)! (s)_{2j-1} w^{-s-2j+1}, summed by
    # Horner in w^-2 from the smallest term
    coef = []
    poch, fact = s, 2.0
    for j, b in enumerate(_BERNOULLI_2N[:_EM_ORDER], start=1):
        coef.append(b / fact * poch)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    w2 = 1.0 / (w * w)
    corr = coef[-1]
    for c in reversed(coef[:-1]):
        corr = corr * w2 + c
    out = head + tail + corr * ws / w
    return complex(out) if out.ndim == 0 else out


def riemann_zeta(s: complex | float) -> complex:
    """zeta(s) = hurwitz_zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0)


def hurwitz_zeta_int_vec(n: int, a: np.ndarray) -> np.ndarray:
    """zeta(n, a) for integer n >= 2 on a vector of reals in (0, 1]."""
    if n < 2:
        raise DomainError("hurwitz_zeta_int_vec requires n >= 2")
    if n == 2:
        return trigamma_vec(a)
    a = np.asarray(a, dtype=np.float64)
    nshift = 14
    acc = np.zeros_like(a)
    for k in range(nshift):
        acc += (a + k) ** (-float(n))
    w = a + nshift
    res = acc + w ** (1.0 - n) / (n - 1.0) + 0.5 * w ** (-float(n))
    poch = float(n)
    wpow = w ** (-float(n) - 1.0)
    fact = 2.0
    w2 = w * w
    for j, b in enumerate(_BERNOULLI_2N[:8], start=1):
        res = res + (b / fact) * poch * wpow
        poch *= (n + 2 * j - 1) * (n + 2 * j)
        wpow = wpow / w2
        fact *= (2 * j + 1) * (2 * j + 2)
    return res


# ----------------------------------------------------------------------
# log Gamma (principal branch) and Gamma values
# ----------------------------------------------------------------------

_STIRLING_CUT = 9.0


def log_gamma(z: complex | float):
    """Principal branch of log Gamma on the cut plane C minus (-inf, 0].

    The recurrence log Gamma(z) = log Gamma(z+n) - sum Log(z+k) keeps the
    branch principal because every cut of Log(z+k) lies inside the overall
    cut; Stirling with Bernoulli terms finishes the job.
    """
    want_real = not isinstance(z, complex)
    w = complex(z)
    if w.imag == 0.0 and w.real <= 0.0:
        raise PoleError(f"log_gamma on the cut at z={w}", location=w)
    acc = 0.0 + 0.0j
    while w.real < _STIRLING_CUT:
        acc -= cmath.log(w)
        w += 1.0
    val = (w - 0.5) * cmath.log(w) - w + 0.5 * LOG_2PI
    zin = 1.0 / w
    zin2 = zin * zin
    p = zin
    for j, b in enumerate(_BERNOULLI_2N[:10], start=1):
        val += b / (2 * j * (2 * j - 1)) * p
        p *= zin2
    val += acc
    return val.real if want_real and val.imag == 0.0 else val


def gamma_fn(z: complex | float) -> complex:
    """Gamma(z) as a value, via log_gamma and reflection on the left."""
    w = complex(z)
    if _is_nonpositive_integer(w):
        raise PoleError(f"gamma pole at z={w}", location=w)
    if w.real >= 0.5:
        return cmath.exp(log_gamma(w))
    return PI / (sinpi(complex(w)) * cmath.exp(log_gamma(1.0 - w)))


# ----------------------------------------------------------------------
# J(z) and J_{1,2}(z, x) remainder integrals
# ----------------------------------------------------------------------


def j_function(z: complex | float):
    """J(z) = integral_0^inf ({t} - 1/2)/(t+z) dt on the cut plane.

    Evaluated through its closed form in log Gamma.
    """
    want_real = not isinstance(z, complex)
    w = complex(z)
    val = -log_gamma(w) + (w - 0.5) * cmath.log(w) - w + 0.5 * LOG_2PI
    return val.real if want_real and val.imag == 0.0 else val


def j12(z: complex | float, x: float, tol: float = 1e-13):
    """J_{1,2}(z, x) = integral_x^inf B_1(t)/(t+z)^2 dt, for x + Re z > 0.

    Piecewise closed forms on unit intervals, then a Bernoulli-chain tail
    -B_2(N)/2 (N+z)^-2 - B_4(N)/4 (N+z)^-4 with remainder <= (N+Re z)^-4/120,
    the cutoff N chosen so that the remainder is below ``tol``.
    """
    want_real = not isinstance(z, complex)
    w = complex(z)
    if x + w.real <= 0.0:
        raise DomainError(f"j12 requires x + Re z > 0, got x={x}, z={w}")

    def piece(a: float, b: float, m: float) -> complex:
        # integral of (t - m - 1/2)/(t+w)^2 over [a, b]
        return (
            cmath.log(b + w)
            - cmath.log(a + w)
            + (m + 0.5 + w) * (1.0 / (b + w) - 1.0 / (a + w))
        )

    n_first = math.floor(x) + 1  # first integer breakpoint > x (or x itself)
    if x == math.floor(x):
        n_first = int(x)
    n_end = max(n_first, math.ceil((1.0 / (60.0 * tol)) ** 0.25 - w.real))
    total = 0.0 + 0.0j
    if x < n_first:
        total += piece(x, float(n_first), math.floor(x))
    for n in range(n_first, n_end):
        total += piece(float(n), float(n + 1), float(n))
    # B_2(N) = 1/6 and B_4(N) = -1/30 at integer N
    total += -(1.0 / 12.0) * (n_end + w) ** (-2.0)
    total += (1.0 / 120.0) * (n_end + w) ** (-4.0)
    return total.real if want_real and total.imag == 0.0 else total


# ----------------------------------------------------------------------
# stable cotangent
# ----------------------------------------------------------------------


# Largest q of a cotangent table (and of a V kernel row): 2^25 entries take
# 256 MB, and the float64 remainders of the V kernel are exact for q^2 < 2^53.
COT_TABLE_MAX_Q = 2**25


def cot_pi_frac_table(q: int) -> np.ndarray:
    """Array of cot(k*pi/q) for k = 1 .. q-1, 1 <= q <= 2^25.

    tan is taken only for 2k <= q, at pi*k/q; an entry with 2k > q is
    cot(-pi*(q-k)/q), so it is the negated entry q-k, filled by negation:
    the table is exactly odd.  Raises DomainError for q > 2^25 before
    allocating anything.
    """
    if q > COT_TABLE_MAX_Q:
        raise DomainError(f"cot_pi_frac_table: q = {q} exceeds 2^25")
    out = np.arange(1.0, q)
    half = out[: q // 2]
    half *= PI
    half /= q
    np.tan(half, out=half)
    np.divide(1.0, half, out=half)
    np.negative(out[: q - 1 - half.size][::-1], out=out[half.size :])
    return out
