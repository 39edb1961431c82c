"""Real and complex special functions used throughout the package.

Everything here is scalar binary64 (complex128) with conventional error
targets: digamma (and Lehmer's gamma(r, q) from it) and log-gamma aim at
<= 1e-13 relative error away from poles, the Euler-Maclaurin Hurwitz zeta
at <= 1e-12 relative error for moderate |Im s|.  The Hurwitz zeta also
takes an array of a (one row per call); vectorised real variants for
integer first argument are provided for the grid computations of the phi
modules.  The exact Bernoulli polynomials, and the Bernoulli numbers that
every asymptotic series here reads, come from one table.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PoleError

# Binary64 constants, kept in one place.
EULER_GAMMA = 0.5772156649015329
LOG_2PI = 1.8378770664093453
PI = math.pi


def _bernoulli_coeff_tables(nmax: int) -> list[list[Fraction]]:
    """Coefficients C(n, k) B_{n-k} of x^k in b_0 .. b_nmax, B_1 = -1/2 and B_2n =
    (-1)^(n-1) 2n T_n/(4^n (4^n - 1)), tangent numbers T_n by Brent-Harvey's recurrence."""
    half = nmax // 2
    t = [0] + [math.factorial(k - 1) for k in range(1, half + 1)]  # T_k at index k
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    nums = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * nmax
    for n in range(1, half + 1):
        nums[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * t[n], 4**n * (4**n - 1))
    return [[math.comb(n, k) * nums[n - k] for k in range(n + 1)] for n in range(nmax + 1)]


# The exact Bernoulli polynomials b_0 .. b_24, and the numbers B_2, B_4, ..., B_24
# (their constant terms) as correctly rounded floats.
BERNOULLI_POLYS = _bernoulli_coeff_tables(24)
_BERNOULLI_2N = tuple(float(c[0]) for c in BERNOULLI_POLYS[2::2])


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


def lehmer_gamma(r: int, q: int) -> float:
    """Lehmer's gamma(r, q) = -(psi(r/q) + log q)/q, the constant term of
    sum_{n<=x, n=r mod q} 1/n - (log x)/q."""
    if not 1 <= r <= q:
        raise ValueError("lehmer_gamma requires 1 <= r <= q")
    return -(digamma(r / q) + math.log(q)) / q


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


def digamma_vec(a: np.ndarray) -> np.ndarray:
    """Vectorised psi for positive reals: the series at z = a + n >= _PSI_SHIFT less
    sum_{j<n} 1/(a + j), each term added with its exact rounding error (Knuth's
    TwoSum), as below 1 the two cancel to a third of their size."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0):
        raise DomainError("digamma_vec requires positive arguments")
    n = max(0, math.ceil(_PSI_SHIFT - a.min())) if a.size else 0
    z = a + n
    inv2 = 1.0 / (z * z)
    acc, err, t, v, buf = (np.zeros_like(a) for _ in range(5))
    for j in range(8, 0, -1):  # the series, Horner in z^-2, into t
        t += _BERNOULLI_2N[j - 1] / (2 * j)
        t *= inv2
    shifts = (np.divide(-1.0, np.add(a, j, out=buf), out=buf) for j in range(n))  # made as added
    for x in itertools.chain(shifts, (np.log(z), np.divide(-0.5, z, out=z), np.negative(t, out=inv2))):
        np.add(acc, x, out=t)  # in place: acc + x = t + (acc - (t - v)) + (x - v), v = t - acc
        np.subtract(t, acc, out=v)
        x -= v
        acc -= np.subtract(t, v, out=v)
        acc += x
        err += acc
        acc, t = t, acc
    return np.add(acc, err, out=acc)


def trigamma_taylor(a: np.ndarray, degree: int) -> np.ndarray:
    """psi^(i+1)(a)/i! = (-1)^i (i+1) zeta(i+2, a), i <= degree, at positive reals a,
    as a (degree + 1, a.size) array: one shift n for the whole array to
    z = a + n >= _PSI_SHIFT + degree, where z^-(i+1) (1 + (i+1)/(2z) +
    sum_{j<=8} B_2j C(2j+i, i) z^-2j) is within about 2e-18 relative at i = 0
    and 4e-15 at i = 50 (the first omitted term), plus the terms
    (i+1)/(a+k)^(i+2), k < n, all of one sign, from k = n - 1 down."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0):
        raise DomainError("trigamma_taylor requires positive arguments")
    n = max(0, math.ceil(_PSI_SHIFT + degree - a.min())) if a.size else 0
    i = np.arange(degree + 1.0)[:, None]
    inv = 1.0 / (a + n)
    acc, comb, inv2 = np.zeros((degree + 1, a.size)), 1.0, inv * inv
    bracket = []
    for j in range(1, 9):
        comb = comb * (i + 2 * j - 1) * (i + 2 * j) / ((2 * j - 1) * (2 * j))  # C(2j + i, i)
        bracket.append(comb * _BERNOULLI_2N[j - 1])
    for c in reversed(bracket):  # Horner in z^-2
        acc += c
        acc *= inv2
    acc += 1.0 + (i + 1.0) * inv / 2
    acc *= np.power(inv, i + 1.0)
    w = np.empty_like(a)
    for k in range(n - 1, -1, -1):
        np.divide(1.0, np.add(a, k, out=w), out=w)
        acc += (i + 1.0) * np.power(w, i + 2.0)
    acc[1::2] *= -1.0
    return acc


# ----------------------------------------------------------------------
# Hurwitz / Riemann zeta by Euler-Maclaurin continuation
# ----------------------------------------------------------------------

_EM_ORDER = 12  # Bernoulli correction order (B_2 .. B_24)


def hurwitz_zeta(s, a):
    """zeta(s, a) for complex s != 1 and finite real a > 0, scalars or ndarrays that broadcast.

    Euler-Maclaurin with an upward shift of a until the order-12 Bernoulli
    tail is negligible; valid on the whole s-plane minus the pole at 1.  One
    shift, set by the largest |s| and the smallest Re s, serves a whole row
    zeta(s, j/k) or the orders zeta(s + e, a) (log(a + j) shared) in one
    vectorised pass; two scalars give a complex, otherwise a complex array.
    At 1 < a <= 2^15, 1 < Re s <= 60, |Im s| <= 30 the relative error is within
    1e-15 (1 + |s| log a), the rounding of a^-s.  Every entry is checked first.
    """
    s = complex(s) if np.ndim(s) == 0 else np.asarray(s, dtype=np.complex128)
    if np.any(s == 1):
        raise PoleError("hurwitz_zeta pole at s=1", location=1.0 + 0.0j)
    x = np.asarray(a, dtype=np.float64)
    ok = (x > 0.0) & np.isfinite(x)
    if not ok.all():
        raise DomainError(f"hurwitz_zeta requires finite a > 0, got {x[~ok].flat[0]}")
    n_shift = max(10, int(0.6 * np.max(np.abs(s))) + 8, int(4 - np.min(np.real(s))))
    head = np.exp(-np.expand_dims(s, -1) * np.log(x[..., None] + np.arange(n_shift))).sum(axis=-1)
    w = x + n_shift
    ws = np.exp(-s * np.log(w))  # w^{-s}
    tail = w * ws / (s - 1.0) + 0.5 * ws
    # Bernoulli corrections B_{2j}/(2j)! (s)_{2j-1} w^{-s-2j+1}, summed by
    # Horner in w^-2 from the smallest term (poch is rebound: an array s stays as given)
    coef = []
    poch, fact = s, 2.0
    for j, b in enumerate(_BERNOULLI_2N[:_EM_ORDER], start=1):
        coef.append(b / fact * poch)
        poch = poch * ((s + 2 * j - 1) * (s + 2 * j))
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
    """zeta(n, a) for integer n >= 2 on an array of positive reals: row n - 2 of
    trigamma_taylor, (-1)^n (n-1) zeta(n, a)."""
    if n < 2:
        raise DomainError("hurwitz_zeta_int_vec requires n >= 2")
    a = np.asarray(a, dtype=np.float64)
    return np.abs(trigamma_taylor(a.ravel(), n - 2)[n - 2]).reshape(a.shape) / (n - 1)


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
