"""Bernoulli polynomials and exact fractional-part identities.

The summation identities (Hardy-Littlewood symmetry, which with f = g = id
is Sylvester's floor identity, and paired B_1 sums) are exact whenever the
inputs are rational: with theta = p/q every floor and residue is integer
arithmetic on p, q and the numerator and denominator of x, and Fraction is
met only at the boundary.  Integrals are floats; floats are also the
arithmetic of irrational parameters.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .piecewise import frac_over_t2_integral, frac_product_integral
from .specfun import BERNOULLI_POLYS


def bernoulli_poly(n: int, x):
    """b_n(x) by Horner evaluation of the exact coefficient table (n <= 24).

    Exact when x is a Fraction or int, float otherwise.
    """
    if not 0 <= n < len(BERNOULLI_POLYS):
        raise ValueError(f"bernoulli_poly supports 0 <= n <= {len(BERNOULLI_POLYS) - 1}")
    coeffs = BERNOULLI_POLYS[n]
    if isinstance(x, (Fraction, int)):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def zeta_upper_bound(n: int) -> float:
    """zeta(n) <= sum_{k<64} k^-n + integral_63^inf t^-n dt (n >= 2), the one
    zeta(n) of the sup bounds."""
    return sum(k ** (-float(n)) for k in range(1, 64)) + 63.0 ** (1 - n) / (n - 1)


def max_abs_bernoulli(n: int) -> float:
    """Rigorous bound sup |B_n| <= 2 n! zeta(n) / (2 pi)^n (n >= 2)."""
    if n == 1:
        return 0.5
    return 2.0 * math.factorial(n) * zeta_upper_bound(n) / (2.0 * math.pi) ** n


def hl_symmetry_residual(theta, x, f, g):
    """LHS minus RHS of the floor-symmetry summation identity.

    sum_{m<=x} f(floor(m theta))(g(m)-g(m-1)) + sum_{n<=theta x}
    g(floor(n/theta))(f(n)-f(n-1)) equals f(floor(theta x)) g(floor(x)),
    plus the correction sum_{k<=x/q} (g(kq)-g(kq-1))(f(kp)-f(kp-1)) when
    theta = p/q is rational.  f and g are callables on the integers.  For a
    rational theta (x = a/b exact) the floors are m p // q, n q // p,
    p a // (q b) and a // b, so the residual is exact.
    """
    if f(0) != 0 or g(0) != 0:
        raise ValueError("identity requires f(0) = g(0) = 0")
    if isinstance(theta, (Fraction, int)):
        p, q = theta.numerator, theta.denominator
        a, b = Fraction(x).numerator, Fraction(x).denominator
        fx, ftx = a // b, p * a // (q * b)
        lhs = sum(f(m * p // q) * (g(m) - g(m - 1)) for m in range(1, fx + 1))
        lhs += sum(g(n * q // p) * (f(n) - f(n - 1)) for n in range(1, ftx + 1))
        lhs -= sum((g(k * q) - g(k * q - 1)) * (f(k * p) - f(k * p - 1)) for k in range(1, a // (q * b) + 1))
    else:
        fx, ftx = math.floor(x), math.floor(theta * x)
        lhs = sum(f(math.floor(m * theta)) * (g(m) - g(m - 1)) for m in range(1, fx + 1))
        lhs += sum(g(math.floor(n / theta)) * (f(n) - f(n - 1)) for n in range(1, ftx + 1))
    return lhs - f(ftx) * g(fx)


def gronwall_sup_scan(n_max: int = 2000, grid: int = 4096) -> float:
    """sup over N <= n_max and x = j/grid in (0, 1/2) of the partial sums."""
    xs = np.arange(1, grid // 2) / grid
    sup = 0.0
    partial = np.zeros_like(xs)
    for n in range(1, n_max + 1):
        partial += np.sin(2.0 * math.pi * n * xs) / (math.pi * n)
        m = float(partial.max())
        if m > sup:
            sup = m
    return sup


def frullani_integral_check(theta, x) -> float:
    """Residual of the Frullani-type identity

    integral_0^x ({theta t} - theta {t}) t^-2 dt
        = theta log(1/theta) + theta integral_x^{theta x} {u} u^-2 du,

    both sides piecewise exact in floats.  Below alpha = min(1, 1/theta) the
    integrand is 0, so the pieces run from alpha to x between the floats
    k and k/theta, each side's floor taken at the piece's midpoint.
    """
    if x <= 0:
        raise ValueError("frullani_integral_check requires x > 0")
    lam, x = float(theta), float(x)
    if lam <= 0:
        raise ValueError("frullani_integral_check requires theta > 0")
    alpha = min(1.0, 1.0 / lam)
    edges = sorted(
        {alpha, x}
        | {float(k) for k in range(math.ceil(alpha), math.floor(x) + 1)}
        | {k / lam for k in range(math.ceil(alpha * lam), math.floor(x * lam) + 1)}
    )
    edges = [e for e in edges if alpha <= e <= x]
    lhs = math.fsum(
        (lam * math.floor(0.5 * (a + b)) - math.floor(lam * 0.5 * (a + b))) * (1.0 / a - 1.0 / b)
        for a, b in zip(edges[:-1], edges[1:])
    )
    rhs = lam * math.log(1.0 / lam) + lam * frac_over_t2_integral(x, lam * x)
    return lhs - rhs


def b1_pair_sum_check(theta: Fraction, x: Fraction):
    """Exact (lhs, rhs) of the paired B_1 identity

    sum_{n<=theta x} B_1(n/theta) + sum_{m<=x} B_1(m theta)
        = ({theta x} - theta {x})^2 / (2 theta)
          + (theta - 1)({theta x} - theta {x}) / (2 theta).
    """
    theta, x = Fraction(theta), Fraction(x)
    if theta <= 0 or x <= 0:
        raise ValueError("b1_pair_sum_check requires positive arguments")
    a, b, tx = theta.numerator, theta.denominator, theta * x
    lhs = _b1_partial_sum(b, a, math.floor(tx)) + _b1_partial_sum(a, b, math.floor(x))
    d = (tx - math.floor(tx)) - theta * (x - math.floor(x))
    rhs = d * d / (2 * theta) + (theta - 1) * d / (2 * theta)
    return lhs, rhs


def _b1_partial_sum(num: int, den: int, count: int) -> Fraction:
    """sum_{n=1..count} B_1(n num/den) for coprime num, den >= 1, in integer residues:
    den consecutive terms take the residues n num mod den = 0 .. den - 1 once each
    and sum to 0, and each of the last count mod den terms, with a residue
    r > 0, is r/den - 1/2."""
    rest = count % den
    return Fraction(sum(n * num % den for n in range(1, rest + 1)), den) - Fraction(rest, 2)


def weighted_b1_identity_residual(theta: Fraction, x: float) -> float:
    """Residual of the weighted B_1 identity linking the two B_1 sums to the
    fractional-part integrals (both sides evaluated piecewise exactly).

    With theta = p/q, B_1(m theta) is (2r - q)/(2q) for the residue r = m p mod q
    (0 at r = 0), a correctly rounded quotient of integers, and B_1(n/theta)
    likewise from n q mod p."""
    theta = Fraction(theta)
    if theta <= 0 or x <= 0:
        raise ValueError("weighted_b1_identity_residual requires positive arguments")
    p, q, lam = theta.numerator, theta.denominator, float(theta)

    def b1(r: int, den: int) -> float:
        return (2 * r - den) / (2 * den) if r else 0.0

    lhs = math.fsum(b1(m * p % q, q) / m for m in range(1, math.floor(x) + 1))
    lhs += lam * math.fsum(b1(n * q % p, p) / n for n in range(1, math.floor(lam * x) + 1))
    fx = x - math.floor(x)
    ftx = lam * x - math.floor(lam * x)
    d = ftx - lam * fx
    rhs = (
        0.5 * lam * frac_product_integral(1, Fraction(x))
        + 0.5 * frac_product_integral(1, Fraction(lam * x))
        - frac_product_integral(theta, Fraction(x))
        + 0.5 * (lam - 1.0) * math.log(1.0 / lam)
        + 0.5 * (lam - 1.0) * frac_over_t2_integral(x, lam * x)
        + d * d / (2.0 * lam * x)
        + (lam - 1.0) * d / (2.0 * lam * x)
    )
    return lhs - rhs
