"""Lehmer's Euler constants for progressions and periodic Dirichlet series.

A period-q coefficient sequence g(1..q) (a tuple, extended by periodicity,
g(0) := g(q)) with zero mean sums against 1/n to a finite digamma
combination; the helpers here state those identities and the remainder
integral J_{1,2} that the progression sums need.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import bernoulli_fn
from frac_autocorr.phi import phi1_rational
from frac_autocorr.specfun import EULER_GAMMA, PI, digamma, lehmer_gamma
from frac_autocorr.vasyunin import vasyunin_cot


def _j12(z: complex | float, x: float, tol: float = 1e-13):
    """J_{1,2}(z, x) = integral_x^inf B_1(t)/(t+z)^2 dt, for x + Re z > 0.

    Piecewise closed forms on unit intervals, then a Bernoulli-chain tail
    -B_2(N)/2 (N+z)^-2 - B_4(N)/4 (N+z)^-4 with remainder <= (N+Re z)^-4/120,
    the cutoff N chosen so that the remainder is below ``tol``.  The pieces
    are added by math.fsum, so the error is below ``tol`` plus a few eps |J|.
    """
    want_real = not isinstance(z, complex)
    w = complex(z)

    def piece(a: float, b: float, m: float) -> complex:
        # integral of (t - m - 1/2)/(t+w)^2 over [a, b]
        return cmath.log(b + w) - cmath.log(a + w) + (m + 0.5 + w) * (1.0 / (b + w) - 1.0 / (a + w))

    n_first = int(x) if x == math.floor(x) else math.floor(x) + 1  # first integer breakpoint >= x
    n_end = max(n_first, math.ceil((1.0 / (60.0 * tol)) ** 0.25 - w.real))
    parts = [piece(float(n), float(n + 1), float(n)) for n in range(n_first, n_end)]
    if x < n_first:
        parts.append(piece(x, float(n_first), math.floor(x)))
    # B_2(N) = 1/6 and B_4(N) = -1/30 at integer N
    parts.append(-(1.0 / 12.0) * (n_end + w) ** (-2.0))
    parts.append((1.0 / 120.0) * (n_end + w) ** (-4.0))
    total = complex(math.fsum(t.real for t in parts), math.fsum(t.imag for t in parts))
    return total.real if want_real and total.imag == 0.0 else total


def _progression_partial_sum(x: float, r: int, q: int) -> tuple[float, float]:
    """(exact partial sum, predicted value) for sum_{n<=x, n=r mod q} 1/n, x > r.

    The prediction is (log x)/q + gamma(r,q) + R(x,r,q) with the remainder
    from its closed form, so the two agree to rounding error.
    """
    total = math.fsum(1.0 / n for n in range(r, math.floor(x) + 1, q))
    y = (x - r) / q
    rem = (0.5 - (y - math.floor(y))) / x + _j12(r / q, y) / q
    return total, math.log(x) / q + lehmer_gamma(r, q) + rem


def _periodic_series_sum(vals: tuple):
    """sum_{n>=1} g(n)/n = -(1/q) sum_r g(r) psi(r/q), for S(g) = 0."""
    q = len(vals)
    assert sum(vals) == 0
    total = -sum(complex(v) * digamma(r / q) for r, v in enumerate(vals, start=1)) / q
    return total.real if total.imag == 0.0 else total


def _shifted_series_sum(vals: tuple):
    """sum_{n>=1} g(n)/(n(n+1)) = g(0) + (1/q) sum_r (g(r-1)-g(r)) psi(r/q)."""
    q = len(vals)
    total = sum((complex(vals[r - 2]) - complex(vals[r - 1])) * digamma(r / q) for r in range(1, q + 1))
    result = complex(vals[-1]) + total / q
    return result.real if result.imag == 0.0 else result


def _b1_series_partial(p: int, q: int, n_terms: int) -> float:
    """Partial sum of sum_k B_1(kp/q)/k, which converges to (pi/2q) V(p, q)."""
    k = np.arange(1, n_terms + 1, dtype=np.int64)
    r = (k * (p % q)) % q
    return math.fsum(np.where(r == 0, 0.0, r / q - 0.5) / k)


def test_lehmer_gamma_values():
    assert lehmer_gamma(1, 1) == pytest.approx(EULER_GAMMA, abs=1e-14)
    assert lehmer_gamma(1, 2) == pytest.approx((EULER_GAMMA + math.log(2.0)) / 2.0, abs=1e-13)
    assert lehmer_gamma(2, 2) == pytest.approx((EULER_GAMMA - math.log(2.0)) / 2.0, abs=1e-13)


@pytest.mark.parametrize(
    "x,r,q",
    [(1e4, 1, 1), (1e3, 1, 2), (50.5, 3, 7), (777.25, 5, 12)],
)
def test_progression_partial_sum(x, r, q):
    total, predicted = _progression_partial_sum(x, r, q)
    assert abs(total - predicted) < 1e-12
    # remainder bound |R| <= 1/x
    rem = predicted - math.log(x) / q - lehmer_gamma(r, q)
    assert abs(rem) <= 1.0 / x + 1e-15


def test_lehmer_gamma_sums_to_gamma():
    for q in range(1, 101):
        total = math.fsum(lehmer_gamma(r, q) for r in range(1, q + 1))
        assert abs(total - EULER_GAMMA) < 1e-11


def test_periodic_series_alternating():
    assert _periodic_series_sum((1, -1)) == pytest.approx(math.log(2.0), rel=1e-13)


def test_periodic_series_b1_coefficients():
    vals = tuple(bernoulli_fn(1, Fraction(k, 3)) for k in (1, 2, 3))
    want = PI / 6.0 * vasyunin_cot(1, 3)
    assert _periodic_series_sum(vals) == pytest.approx(want, abs=1e-13)
    assert want == pytest.approx(-PI / (18.0 * math.sqrt(3.0)), abs=1e-14)


def test_periodic_partial_sum_decomposition():
    rng = random.Random(77)
    worst = 0.0
    for _ in range(200):
        q = rng.randint(1, 20)
        vals = tuple(rng.randint(-5, 5) for _ in range(q))
        x = rng.uniform(q + 1, 1e5)
        n = np.arange(1, math.floor(x) + 1, dtype=np.int64)
        coeffs = np.array(vals, dtype=np.float64)[(n - 1) % q]
        direct = math.fsum(coeffs / n)
        s_g = sum(vals) / q
        gamma_g = math.fsum(v * lehmer_gamma(r, q) for r, v in enumerate(vals, start=1))
        rem = math.fsum(
            v
            * (
                (0.5 - math.modf((x - r) / q)[0]) / x
                + _j12(r / q, (x - r) / q) / q
            )
            for r, v in enumerate(vals, start=1)
        )
        worst = max(worst, abs(direct - s_g * math.log(x) - gamma_g - rem))
        assert abs(rem) <= sum(abs(v) for v in vals) / x + 1e-14
    assert worst < 1e-12


def test_b1_series_partial():
    assert _b1_series_partial(1, 2, 1000) == 0.0
    assert _b1_series_partial(1, 1, 500) == 0.0
    partial = _b1_series_partial(1, 3, 300_000)
    assert abs(partial - phi1_rational(1, 3)) < 1e-4
    assert phi1_rational(1, 3) == pytest.approx(-PI / (18.0 * math.sqrt(3.0)), abs=1e-14)


def test_b1_series_convergence_rate():
    # |partial - limit| <= C q / K with a small constant
    for p, q in [(1, 3), (2, 5), (3, 7)]:
        lim = phi1_rational(p, q)
        for k_terms in (10_000, 40_000):
            err = abs(_b1_series_partial(p, q, k_terms) - lim)
            assert err <= 5.0 * q / k_terms


def test_shifted_series_telescoping():
    assert _shifted_series_sum((1,)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("vals", [(1, -1), (0, 1, 0)])
def test_shifted_series_vs_direct(vals):
    q = len(vals)
    n = np.arange(1, 10_000_001, dtype=np.float64)
    coeff = np.array(vals, dtype=np.float64)[(np.arange(1, 10_000_001) - 1) % q]
    direct = float((coeff / (n * (n + 1.0))).sum())
    assert abs(_shifted_series_sum(vals) - direct) < 1e-7


def test_shifted_series_formula_shape():
    vals = (0, 1, 0)
    want = vals[-1] + sum((vals[r - 2] - vals[r - 1]) * digamma(r / 3) for r in range(1, 4)) / 3
    assert _shifted_series_sum(vals) == pytest.approx(want.real if isinstance(want, complex) else want)


def test_j12_relations():
    for z in (2.0, 5.0, 10.0):
        want = digamma(z) - math.log(z) + 0.5 / z
        assert abs(_j12(z, 0.0) - want) < 1e-10
    # J'(3) = log 3 + gamma + 1/6 - H_3
    want = math.log(3.0) + EULER_GAMMA + 1.0 / 6.0 - (1.0 + 0.5 + 1.0 / 3.0)
    assert -_j12(3.0, 0.0) == pytest.approx(want, abs=1e-11)
    assert abs(_j12(1.0, 1e6)) <= 5e-7
    assert abs(_j12(2.0 + 1j, 3.7)) <= 1.0 / (2.0 * (3.7 + 2.0))


def _j12_reference(mp, z: complex, x: float):
    """30-digit J_{1,2}(z, x).  With n = floor(x), f = x - n and w = n + z,
    periodicity shifts the integral to [f, inf) at w; over [0, inf) it is
    psi(w) - log w + 1/(2w) (Binet), and over [0, f] the elementary
    log((w + f)/w) + (w + 1/2)(1/(w + f) - 1/w).  Their difference, with
    psi(w) + 1/w = psi(w + 1) and the log w terms cancelled, is
    psi(w + 1) + 1 - log(x + z) - (w + 1/2)/(x + z): no pole at w = 0 and
    no branch cut for Re w <= 0 < x + Re z."""
    w = mp.mpf(math.floor(x)) + mp.mpc(z)
    s = mp.mpf(x) + mp.mpc(z)
    return mp.digamma(w + 1) + 1 - mp.log(s) - (w + mp.mpf(0.5)) / s


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 60.0) | st.integers(0, 60).map(float),
    st.floats(1e-4, 20.0),
    st.floats(-10.0, 10.0) | st.just(0.0),
    st.booleans(),
)
@example(0.7, 0.7, 0.0, True)  # w = 0
@example(0.0, 1.2e-4, -9.6e-4, False)  # |J| ~ 500: large first piece
@example(14.0, 3e-4, 9e-4, False)
def test_j12_error_below_tol_against_mpmath(mp, x, gap, im, real):
    re = gap - x
    assume(x + re > 0.0)
    z = re if real else complex(re, im)
    tol = 1e-13
    got = _j12(z, x, tol)
    ref = _j12_reference(mp, complex(z), x)
    assert float(abs(mp.mpc(got) - ref)) <= tol + 4 * 2.0**-52 * float(abs(ref))
