"""Piecewise-exact integrals of fractional-part expressions.

Between consecutive breakpoints both floor(t) and floor(theta*t) are
constant, so every integrand handled here has an elementary antiderivative
per piece.  Breakpoints for rational theta = p/q are merged exactly on the
integer grid u = p*t (floor(t) jumps at u = i*p, floor(theta*t) at u = j*q).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def merged_breakpoints(
    p: int, q: int, u_lo: int, u_hi: int, *, out=None, scratch=None, frac=None
) -> np.ndarray:
    """Sorted u-breakpoints (multiples of p or q) in (u_lo, u_hi].

    Scatter merge, O(p + q) with no sort: a multiple m lands at index
    #(p-multiples) + #(q-multiples) - #(lcm-multiples) in (u_lo, m], minus 1.
    A common multiple is written twice, to the same index; a range holding
    none has no lcm count to take.

    Buffers: out[:n] takes the n breakpoints and is returned; scratch, int64 (3, >= either
    count), the intermediates; frac, f1 = {(p/q)t} + (p/q){t} at each u = p t from the
    scatter's remainders, the doubles of frac_ratio(u, q) + (p/q) frac_ratio(u, p).
    """
    u_hi = max(u_hi, u_lo)
    lcm = p // math.gcd(p, q) * q
    n_common = u_hi // lcm - u_lo // lcm
    n = u_hi // p - u_lo // p + u_hi // q - u_lo // q - n_common
    out = np.empty(n, dtype=np.int64) if out is None else out
    scratch = np.empty((3, n), dtype=np.int64) if scratch is None else scratch
    for m, other in ((p, q), (q, p)):
        k = np.arange(u_lo // m + 1, u_hi // m + 1, dtype=np.int64)  # mine = k m
        mine, idx, rem = scratch[:, : k.size]
        np.multiply(k, m, out=mine)
        np.floor_divide(mine, other, out=idx)
        np.subtract(mine, np.multiply(idx, other, out=rem), out=rem)  # mine mod other
        idx += k
        if n_common:
            idx -= np.floor_divide(mine, lcm, out=k)
        idx += (u_lo // lcm if n_common else 0) - u_lo // other - u_lo // m - 1
        out[idx] = mine
        if frac is not None:  # the fractions take the 8 bytes of each scattered mine
            f = np.divide(rem, float(other), out=mine.view(np.float64))
            frac[idx] = np.multiply(f, p / q if m == q else 1.0, out=f)
    return out[:n]


def piece_grid(theta: Fraction, lo: Fraction, hi: Fraction):
    """Piece decomposition of [lo, hi] for the pair ({t}, {theta t}).

    Returns (left, right, m, n): exact rational piece edges together with
    m = floor(t), n = floor(theta*t), constant on each open piece.
    """
    p = theta.numerator
    inner = merged_breakpoints(p, theta.denominator, math.floor(lo * p), math.floor(hi * p))
    edges = [lo] + [Fraction(int(u), p) for u in inner]
    if edges[-1] != hi:
        edges.append(hi)
    left = edges[:-1]
    right = edges[1:]
    m = [math.floor(a) for a in left]
    n = [math.floor(a * theta) for a in left]
    return left, right, m, n


def frac_product_integral(theta: Fraction, T: Fraction | float) -> float:
    """integral_0^T {t} {theta t} / t^2 dt, piecewise exact, theta rational > 0."""
    theta = Fraction(theta)
    T = Fraction(T)
    if theta <= 0 or T <= 0:
        raise ValueError("frac_product_integral requires theta > 0 and T > 0")
    lam = float(theta)
    left, right, ms, ns = piece_grid(theta, Fraction(0), T)
    terms = []
    for a, b, m, n in zip(left, right, ms, ns):
        af, bf = float(a), float(b)
        d = float(b - a)
        if a == 0:
            terms.append(lam * d)  # m = n = 0 piece
            continue
        L = math.log1p(d / af)
        terms.append(lam * d - (n + lam * m) * L + m * n * d / (af * bf))
    return math.fsum(terms)


def frac_square_integral(T: Fraction | float) -> float:
    """integral_0^T ({t}/t)^2 dt, piecewise exact."""
    T = float(T)
    if T <= 0:
        raise ValueError("frac_square_integral requires T > 0")
    terms = [min(T, 1.0)]  # [0, 1): integrand is exactly 1
    m = 1
    while m < T:
        a = float(m)
        b = min(a + 1.0, T)
        # integral of (t-m)^2/t^2 = t - 2m log t - m^2/t
        terms.append((b - a) - 2.0 * m * math.log(b / a) - m * m * (1.0 / b - 1.0 / a))
        m += 1
    return math.fsum(terms)


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
