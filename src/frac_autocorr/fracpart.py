"""Bernoulli polynomials/functions and exact fractional-part identities.

The summation identities (Hardy-Littlewood symmetry, Sylvester floors,
paired B_1 sums) are evaluated in exact rational arithmetic whenever the
inputs are rational; floats are reserved for irrational parameters.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .piecewise import (
    frac_over_t2_integral,
    frac_product_integral,
    frac_square_integral,
    piece_grid,
)

_MAX_BERNOULLI = 20


def _bernoulli_coeff_tables(nmax: int) -> list[list[Fraction]]:
    """Coefficients of b_0 .. b_nmax (ascending powers), from b_n' = n b_{n-1}
    with the normalisation integral_0^1 b_n = 0 for n >= 1."""
    tables = [[Fraction(1)]]
    for n in range(1, nmax + 1):
        prev = tables[-1]
        coeffs = [Fraction(0)] + [Fraction(n) * c / (k + 1) for k, c in enumerate(prev)]
        const = -sum(c / (k + 1) for k, c in enumerate(coeffs) if k > 0)
        coeffs[0] = const
        tables.append(coeffs)
    return tables


_B_TABLES = _bernoulli_coeff_tables(_MAX_BERNOULLI)


def bernoulli_poly(n: int, x):
    """b_n(x) by Horner evaluation of the exact coefficient table (n <= 20).

    Exact when x is a Fraction or int, float otherwise.
    """
    if n < 0 or n > _MAX_BERNOULLI:
        raise ValueError(f"bernoulli_poly supports 0 <= n <= {_MAX_BERNOULLI}")
    coeffs = _B_TABLES[n]
    if isinstance(x, (Fraction, int)):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def bernoulli_fn(n: int, x):
    """Periodised Bernoulli function B_n(x) = b_n({x}), with B_1 zero at integers."""
    if n < 1:
        raise ValueError("bernoulli_fn requires n >= 1")
    if isinstance(x, (Fraction, int)):
        fx = Fraction(x) - math.floor(x)
        if n == 1:
            return Fraction(0) if fx == 0 else fx - Fraction(1, 2)
        return bernoulli_poly(n, fx)
    fx = x - math.floor(x)
    if n == 1:
        return 0.0 if fx == 0.0 else fx - 0.5
    return bernoulli_poly(n, fx)


def max_abs_bernoulli(n: int) -> float:
    """Rigorous bound sup |B_n| <= 2 n! zeta(n) / (2 pi)^n (n >= 2)."""
    if n == 1:
        return 0.5
    zeta_n = sum(k ** (-float(n)) for k in range(1, 64)) + 63.0 ** (1 - n) / (n - 1)
    return 2.0 * math.factorial(n) * zeta_n / (2.0 * math.pi) ** n


def hl_symmetry_residual(theta, x, f, g):
    """LHS minus RHS of the floor-symmetry summation identity.

    sum_{m<=x} f(floor(m theta))(g(m)-g(m-1)) + sum_{n<=theta x}
    g(floor(n/theta))(f(n)-f(n-1)) equals f(floor(theta x)) g(floor(x)),
    plus the correction sum_{k<=x/q} (g(kq)-g(kq-1))(f(kp)-f(kp-1)) when
    theta = p/q is rational.  f and g are callables on the integers.  Exact
    (Fraction/int) when theta and x are.
    """
    if f(0) != 0 or g(0) != 0:
        raise ValueError("identity requires f(0) = g(0) = 0")
    rational = isinstance(theta, (Fraction, int))
    theta_x = (Fraction(theta) if rational else theta) * x
    lhs = sum(
        f(math.floor(m * theta)) * (g(m) - g(m - 1)) for m in range(1, math.floor(x) + 1)
    )
    lhs += sum(
        g(math.floor(n / theta)) * (f(n) - f(n - 1))
        for n in range(1, math.floor(theta_x) + 1)
    )
    rhs = f(math.floor(theta_x)) * g(math.floor(x))
    if rational:
        p, q = Fraction(theta).numerator, Fraction(theta).denominator
        rhs += sum(
            (g(k * q) - g(k * q - 1)) * (f(k * p) - f(k * p - 1))
            for k in range(1, math.floor(Fraction(x) / q) + 1)
        )
    return lhs - rhs


def sylvester_sum_check(theta, x):
    """Both sides of the Sylvester floor identity, as (lhs, rhs) integers.

    lhs = sum_{m<=x} floor(m theta) + sum_{n<=theta x} floor(n/theta);
    rhs = floor(x) floor(theta x), plus floor(x/q) when theta = p/q.
    """
    rational = isinstance(theta, (Fraction, int))
    theta_ = Fraction(theta) if rational else theta
    theta_x = theta_ * x
    lhs = sum(math.floor(m * theta_) for m in range(1, math.floor(x) + 1))
    lhs += sum(math.floor(n / theta_) for n in range(1, math.floor(theta_x) + 1))
    rhs = math.floor(x) * math.floor(theta_x)
    if rational:
        rhs += math.floor(Fraction(x) / Fraction(theta_).denominator)
    return lhs, rhs


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

    both sides piecewise exact.
    """
    if x <= 0:
        raise ValueError("frullani_integral_check requires x > 0")
    rational = isinstance(theta, (Fraction, int))
    theta_ = Fraction(theta) if rational else theta
    if theta_ <= 0:
        raise ValueError("frullani_integral_check requires theta > 0")
    lam = float(theta_)
    alpha = min(Fraction(1), 1 / Fraction(theta_)) if rational else min(1.0, 1.0 / theta_)
    lhs_terms = []
    if rational:
        left, right, ms, ns = piece_grid(theta_, Fraction(alpha), Fraction(x))
        for a, b, m, n in zip(left, right, ms, ns):
            c = lam * m - n  # ({theta t} - theta {t}) / t^2 = (theta m - n)/t^2
            lhs_terms.append(c * (1.0 / float(a) - 1.0 / float(b)))
    else:
        edges = sorted(
            {float(alpha), float(x)}
            | {float(k) for k in range(math.ceil(alpha), math.floor(x) + 1)}
            | {k / theta_ for k in range(math.ceil(alpha * theta_), math.floor(x * theta_) + 1)}
        )
        edges = [e for e in edges if alpha <= e <= x]
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            c = lam * math.floor(mid) - math.floor(theta_ * mid)
            lhs_terms.append(c * (1.0 / a - 1.0 / b))
    lhs = math.fsum(lhs_terms)
    rhs = lam * math.log(1.0 / lam) + lam * frac_over_t2_integral(float(x), lam * float(x))
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
    fractional-part integrals (both sides evaluated piecewise exactly)."""
    theta = Fraction(theta)
    if theta <= 0 or x <= 0:
        raise ValueError("weighted_b1_identity_residual requires positive arguments")
    lam = float(theta)
    lhs = math.fsum(
        float(bernoulli_fn(1, m * theta)) / m for m in range(1, math.floor(x) + 1)
    )
    lhs += lam * math.fsum(
        float(bernoulli_fn(1, Fraction(n) / theta)) / n
        for n in range(1, math.floor(lam * x) + 1)
    )
    fx = x - math.floor(x)
    ftx = lam * x - math.floor(lam * x)
    d = ftx - lam * fx
    rhs = (
        0.5 * lam * frac_square_integral(x)
        + 0.5 * frac_square_integral(lam * x)
        - frac_product_integral(theta, Fraction(x))
        + 0.5 * (lam - 1.0) * math.log(1.0 / lam)
        + 0.5 * (lam - 1.0) * frac_over_t2_integral(x, lam * x)
        + d * d / (2.0 * lam * x)
        + (lam - 1.0) * d / (2.0 * lam * x)
    )
    return lhs - rhs
