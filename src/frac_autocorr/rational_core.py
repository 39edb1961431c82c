"""Exact rational arithmetic, Farey sequences, exact floor/fractional part,
divisors and the unit groups (Z/m)^*.

Rationals are plain ``fractions.Fraction`` values: always reduced, positive
denominator, arbitrary-precision integers, exact field operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class FareyScanRecord:
    """One row of a Farey sweep: the fraction p/q and the sampled value."""

    p: int
    q: int
    lam: float
    a_value: float


# 0, 1, .., 2^17 as float64, read-only: the index runs that merged_breakpoints
# (a lattice block, 2^14 + 5 at most) and the V kernel (a block's k = 1 .. 2^17) slice.
INDEX_RANGE = np.arange(2.0**17 + 1)
INDEX_RANGE.flags.writeable = False


def frac_rational(x: Fraction | int) -> Fraction:
    """Exact fractional part {x} in [0, 1)."""
    x = Fraction(x)
    return x - math.floor(x)


def farey_pairs(order: int, lo: Fraction | int = 0, hi: Fraction | int = 1) -> list[tuple[int, int]]:
    """(p, q) of every reduced fraction p/q with q <= order in [lo, hi], ascending.

    Consecutive terms a/b, c/d satisfy bc - ad = 1.  The walk starts at the
    first term >= lo and its predecessor, found by comparing ceil(lo d)/d
    over d <= order, then steps by mediants, O(1) integer work per term.
    """
    if order < 1:
        raise ValueError("farey_sequence requires order >= 1")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("farey_sequence requires lo < hi")
    a, b, c, d = -1, 0, 1, 0  # predecessor a/b < lo <= c/d, as +-infinity
    for den in range(1, order + 1):
        num = -(-lo.numerator * den // lo.denominator)  # the least num/den >= lo
        if num * d < c * den:
            c, d = num, den
        if (num - 1) * b > a * den:
            a, b = num - 1, den
    out = []
    while c * hi.denominator <= hi.numerator * d:
        out.append((c, d))
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


def farey_sequence(order: int, lo: Fraction | int = 0, hi: Fraction | int = 1) -> list[Fraction]:
    """The Farey fractions of farey_pairs(order, lo, hi) as Fractions."""
    return [Fraction(p, q) for p, q in farey_pairs(order, lo, hi)]


def frac_ratio(u: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """(u mod m)/m for a float64 array u of integers in [0, 2^53), m >= 1.

    Computed as (u - m floor(u/m))/m in float64, into out (a new array if
    None), which also holds the intermediates; u is left unchanged.  Every
    step before the last division is exact: for an integer u < 2^53 the
    rounded quotient u/m is off by less than 1/m, the least distance from a
    non-integer u/m to an integer, so its floor is exact, and m floor(u/m) <=
    u is an integer below 2^53.  So the result is the same double as the
    int64 (u % m) / m.  m enters as a float, at less cost per numpy call.
    """
    m = float(m)
    out = np.divide(u, m, out=out)
    np.floor(out, out=out)
    out *= m
    np.subtract(u, out, out=out)
    out /= m
    return out


# ----------------------------------------------------------------------
# divisors and unit groups
# ----------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing n >= 1, ascending p."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int, k: int) -> int:
    """A generator of the cyclic group (Z/p^k)^*, p an odd prime.

    The least primitive root g mod p generates mod every p^k unless
    g^(p-1) = 1 mod p^2, and then g + p does.
    """
    factors = [f for f, _ in _prime_powers(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))
    if k > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group(m: int) -> list[tuple[int, int]]:
    """(g_j, n_j): generators mod m and orders of cyclic factors of (Z/m)^*.

    The factors come from the prime powers p^k of m (CRT): (Z/p^k)^* is
    cyclic for odd p; for 2^k it is trivial (k = 1), generated by -1 (k = 2)
    or by -1 and 5 (k >= 3).  Each generator is lifted to be 1 modulo the
    other prime powers, so u = prod_j g_j^(e_j) mod m, 0 <= e_j < n_j, meets
    every unit exactly once.  Empty for m = 1, 2.
    """
    cyclic = []  # (generator mod p^k, order, p^k)
    for p, k in _prime_powers(m):
        pk = p**k
        if p != 2:
            cyclic.append((_primitive_root(p, k), pk // p * (p - 1), pk))
            continue
        if k >= 2:
            cyclic.append((pk - 1, 2, pk))
        if k >= 3:
            cyclic.append((5, pk // 4, pk))
    out = []
    for g, n, pk in cyclic:
        rest = m // pk
        lift = g + pk * ((1 - g) * pow(pk, -1, rest) % rest)
        out.append((lift % m, n))
    return out


def unit_coordinates(m: int) -> np.ndarray:
    """The units of Z/m laid out by their discrete-log coordinates.

    An int64 array U of shape (n_1, ..., n_t), the orders of unit_group(m),
    with U[e] = prod_j g_j^(e_j) mod m.  Multiplying units adds their
    coordinates: U[e] U[f] = U[(e + f) mod shape] (mod m), so a sum over
    u -> u x on (Z/m)^* is a cyclic correlation over the array.  A trivial
    group gives shape (1,) holding 1 mod m.
    """
    u = np.array(1 % m, dtype=np.int64)
    for g, n in unit_group(m):
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * g % m)
        u = (u[..., None] * np.array(powers, dtype=np.int64)) % m
    return u.reshape(u.shape or (1,))
