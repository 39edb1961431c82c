"""Piecewise-exact integrals of fractional-part expressions.

Between consecutive breakpoints both floor(t) and floor(theta*t) are
constant, so every integrand handled here has an elementary antiderivative
per piece.  For theta = p/q, p, q coprime, the breakpoints are the multiples
of p and q on the grid u = p*t.  With s = p + q those of p sit at indices
floor(k s/q) of the sorted union and those of q at floor(j s/p), k, j >= 1:
complementary Beatty sequences, meeting only at multiples of pq.  So index i
holds c = floor((i + 1) q/s) multiples of p and i - c of q, U(i) = max(c p,
(i - c) q), and D = c s - i q in (-p, q] is U mod q if D > 0 (U = c p), else
-(U mod p): f1 = {U/q} + (p/q){U/p} = |D|/q, but 0 at a period's end (D = q).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .rational_core import INDEX_RANGE


def merged_breakpoints(p: int, q: int, u_lo: int, u_hi: int, *, out=None, frac=None) -> np.ndarray:
    """Sorted u-breakpoints (multiples of p or q) in (u_lo, u_hi] into out[:n], their
    f1 = {(p/q)t} + (p/q){t} (u = p t) into frac[:n] (new arrays if None); returns out[:n].
    With p, q reduced by their gcd, breakpoint j past 0 is U(j + m), m = floor((j - 1)/(s - 1))
    periods.  The floors are of half-integers over s - 1 and s, 1/(2s) or more from an integer:
    products with 1/(s - 1) and 1/s serve while |i + 1| q < 2^51 unreduced, which bounds |u|
    too (else DomainError); all else is on integers below 2^53: f1 is correctly rounded."""
    g = math.gcd(p, q)
    p, q, s = p // g, q // g, (p + q) // g
    j0, j1 = (v // p + v // q - v // (p * q) for v in (u_lo // g, max(u_hi, u_lo) // g))
    n = j1 - j0  # j = j0 + 1 .. j1
    if ((max(abs(j0), abs(j1)) + 2) * s // (s - 1) + 3) * q * g > 2**51:  # >= |i + 1| q g
        raise DomainError(f"merged_breakpoints: ({u_lo}, {u_hi}] at p/q = {p * g}/{q * g} is past exact float64")
    a, b = (np.empty(n) if v is None else v[:n] for v in (frac, out))
    np.add(INDEX_RANGE[:n] if n <= INDEX_RANGE.size else np.arange(float(n)), j0 + 0.5, out=a)  # j - 1/2
    a += np.floor(np.multiply(a, 1.0 / (s - 1), out=b), out=b)  # i - 1/2
    a *= q
    a += 1.5 * q + 0.5  # (i + 1) q + 1/2
    np.floor(np.multiply(a, 1.0 / s, out=b), out=b)  # c
    a -= np.multiply(b, s, out=b)  # R + 1/2, R = (i + 1) q - c s
    a -= q + 0.5  # R - q = -D
    b /= s
    b *= 2 * p
    b += a
    b += np.abs(a, out=a)  # 2 U = 2 c p - D + |D|
    b *= 0.5 * g
    a /= q
    a[(-j0 - 1) % (s - 1) :: s - 1] = 0.0  # the ends of periods, u = m pq
    return b


def frac_product_integral(theta: Fraction, T: Fraction | float) -> float:
    """integral_0^T {t} {theta t} / t^2 dt, theta = p/q > 0 rational, piecewise exact.

    The pieces end at the merged_breakpoints of (0, floor(T p)] (u = p t) and
    at T.  On a piece from u to u' the integrand is theta - (n + theta m)/t + m n/t^2,
    m = u // p and n = u // q; width (u' - u)/p, u/p and u'/p are correctly
    rounded quotients of integers.  The first piece, where m = n = 0, gives theta d.
    """
    theta, T = Fraction(theta), Fraction(T)
    if theta <= 0 or T <= 0:
        raise ValueError("frac_product_integral requires theta > 0 and T > 0")
    p, q, top = theta.numerator, theta.denominator, T * theta.numerator
    lam = p / q
    u = np.concatenate(([0.0], merged_breakpoints(p, q, 0, top.numerator // top.denominator)))
    d, ends = np.diff(u) / p, u[1:] / p
    tail = top - int(u[-1])  # the piece past the last breakpoint, in u
    if tail:
        d, ends = np.append(d, float(tail / p)), np.append(ends, float(T))
    left, d1 = u[1 : d.size], d[1:]
    m, n, a = left // p, left // q, left / p
    terms = lam * d1 - (n + lam * m) * np.log1p(d1 / a) + m * n * d1 / (a * ends[1:])
    return math.fsum([lam * float(d[0]), *terms.tolist()])


def frac_over_t2_integral(a: float, b: float) -> float:
    """integral_a^b {t} / t^2 dt (a, b > 0, either order)."""
    if a <= 0 or b <= 0:
        raise ValueError("frac_over_t2_integral requires positive bounds")
    if a == b:
        return 0.0
    if a > b:
        return -frac_over_t2_integral(b, a)
    terms = []
    lo = a
    while lo < b:
        m = math.floor(lo)
        hi = min(float(m + 1), b)
        terms.append(math.log(hi / lo) + m * (1.0 / hi - 1.0 / lo))
        lo = hi
    return math.fsum(terms)
