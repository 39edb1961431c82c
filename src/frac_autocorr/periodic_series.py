"""Euler constants for arithmetic progressions and periodic Dirichlet series.

Everything reduces to digamma values at rationals: gamma(r, q) is the
progression analogue of Euler's constant, and a period-q coefficient
sequence with zero mean sums against 1/n to a finite psi combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DivergenceError
from .specfun import digamma, j12


@dataclass(frozen=True)
class PeriodicCoefficients:
    """Period-q coefficients g(1..q), extended by periodicity (g(0) := g(q))."""

    period: int
    values: tuple

    def __post_init__(self):
        if self.period < 1 or len(self.values) != self.period:
            raise ValueError("values must have exactly `period` entries")

    def __call__(self, n: int):
        return self.values[(n - 1) % self.period]

    def mean(self):
        """S(g) = (1/q) sum g(r); exact if the coefficients are exact."""
        if all(isinstance(v, (int, Fraction)) for v in self.values):
            return Fraction(sum(self.values), self.period)
        return sum(self.values) / self.period


def lehmer_gamma(r: int, q: int) -> float:
    """gamma(r, q) = -(psi(r/q) + log q)/q, the constant term of
    sum_{n<=x, n=r mod q} 1/n - (log x)/q."""
    if not 1 <= r <= q:
        raise ValueError("lehmer_gamma requires 1 <= r <= q")
    return -(digamma(r / q) + math.log(q)) / q


def progression_partial_sum(x: float, r: int, q: int) -> tuple[float, float]:
    """(exact partial sum, predicted value) for sum_{n<=x, n=r mod q} 1/n.

    The prediction is (log x)/q + gamma(r,q) + R(x,r,q) with the remainder
    from its closed form, so the two agree to rounding error.
    """
    if x <= r:
        raise ValueError("progression_partial_sum requires x > r")
    total = math.fsum(1.0 / n for n in range(r, math.floor(x) + 1, q))
    y = (x - r) / q
    rem = (0.5 - (y - math.floor(y))) / x + j12(r / q, y) / q
    predicted = math.log(x) / q + lehmer_gamma(r, q) + rem
    return total, predicted


def periodic_series_sum(g: PeriodicCoefficients):
    """sum_{n>=1} g(n)/n = -(1/q) sum_r g(r) psi(r/q), requiring S(g) = 0."""
    s = g.mean()
    if s != 0:
        raise DivergenceError(f"series diverges: S(g) = {s}", mean=s)
    q = g.period
    total = sum(complex(v) * digamma(r / q) for r, v in enumerate(g.values, start=1))
    total = -total / q
    if total.imag == 0.0:
        return total.real
    return total


def b1_series_partial(p: int, q: int, n_terms: int) -> float:
    """Partial sum of sum_k B_1(kp/q)/k, which converges to (pi/2q) V(p, q)."""
    if math.gcd(p, q) != 1:
        raise ValueError("b1_series_partial requires gcd(p, q) = 1")
    k = np.arange(1, n_terms + 1, dtype=np.int64)
    r = (k * (p % q)) % q
    terms = np.where(r == 0, 0.0, r / q - 0.5) / k
    return math.fsum(terms)


def shifted_series_sum(g: PeriodicCoefficients):
    """sum_{n>=1} g(n)/(n(n+1)) = g(0) + (1/q) sum_r (g(r-1)-g(r)) psi(r/q)."""
    q = g.period
    g0 = g.values[-1]  # g(0) by periodicity
    total = sum(
        (complex(g(r - 1)) - complex(g(r))) * digamma(r / q)
        for r in range(1, q + 1)
    )
    result = complex(g0) + total / q
    if result.imag == 0.0:
        return result.real
    return result
