import math
import random
from fractions import Fraction

import numpy as np
import pytest

from frac_autocorr.errors import DivergenceError
from frac_autocorr.fracpart import bernoulli_fn
from frac_autocorr.periodic_series import (
    PeriodicCoefficients,
    b1_series_partial,
    lehmer_gamma,
    periodic_series_sum,
    progression_partial_sum,
    shifted_series_sum,
)
from frac_autocorr.phi import phi1_rational
from frac_autocorr.specfun import EULER_GAMMA, PI, digamma, j12
from frac_autocorr.vasyunin import vasyunin_cot


def test_lehmer_gamma_values():
    assert lehmer_gamma(1, 1) == pytest.approx(EULER_GAMMA, abs=1e-14)
    assert lehmer_gamma(1, 2) == pytest.approx((EULER_GAMMA + math.log(2.0)) / 2.0, abs=1e-13)
    assert lehmer_gamma(2, 2) == pytest.approx((EULER_GAMMA - math.log(2.0)) / 2.0, abs=1e-13)


@pytest.mark.parametrize(
    "x,r,q",
    [(1e4, 1, 1), (1e3, 1, 2), (50.5, 3, 7), (777.25, 5, 12)],
)
def test_progression_partial_sum(x, r, q):
    total, predicted = progression_partial_sum(x, r, q)
    assert abs(total - predicted) < 1e-12
    # remainder bound |R| <= 1/x
    rem = predicted - math.log(x) / q - lehmer_gamma(r, q)
    assert abs(rem) <= 1.0 / x + 1e-15


def test_lehmer_gamma_sums_to_gamma():
    for q in range(1, 101):
        total = math.fsum(lehmer_gamma(r, q) for r in range(1, q + 1))
        assert abs(total - EULER_GAMMA) < 1e-11


def test_periodic_series_alternating():
    g = PeriodicCoefficients(2, (1, -1))
    assert periodic_series_sum(g) == pytest.approx(math.log(2.0), rel=1e-13)


def test_periodic_series_divergence():
    with pytest.raises(DivergenceError) as e:
        periodic_series_sum(PeriodicCoefficients(2, (1, 1)))
    assert e.value.mean == 1


def test_periodic_series_b1_coefficients():
    g = PeriodicCoefficients(3, tuple(bernoulli_fn(1, Fraction(k, 3)) for k in (1, 2, 3)))
    want = PI / 6.0 * vasyunin_cot(1, 3)
    assert periodic_series_sum(g) == pytest.approx(want, abs=1e-13)
    assert want == pytest.approx(-PI / (18.0 * math.sqrt(3.0)), abs=1e-14)


def test_periodic_partial_sum_decomposition():
    rng = random.Random(77)
    worst = 0.0
    for _ in range(200):
        q = rng.randint(1, 20)
        vals = tuple(rng.randint(-5, 5) for _ in range(q))
        g = PeriodicCoefficients(q, vals)
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
                + j12(r / q, (x - r) / q) / q
            )
            for r, v in enumerate(vals, start=1)
        )
        worst = max(worst, abs(direct - s_g * math.log(x) - gamma_g - rem))
        assert abs(rem) <= sum(abs(v) for v in vals) / x + 1e-14
    assert worst < 1e-12


def test_b1_series_partial():
    assert b1_series_partial(1, 2, 1000) == 0.0
    assert b1_series_partial(1, 1, 500) == 0.0
    partial = b1_series_partial(1, 3, 300_000)
    assert abs(partial - phi1_rational(1, 3)) < 1e-4
    assert phi1_rational(1, 3) == pytest.approx(-PI / (18.0 * math.sqrt(3.0)), abs=1e-14)


def test_b1_series_convergence_rate():
    # |partial - limit| <= C q / K with a small constant
    for p, q in [(1, 3), (2, 5), (3, 7)]:
        lim = phi1_rational(p, q)
        for k_terms in (10_000, 40_000):
            err = abs(b1_series_partial(p, q, k_terms) - lim)
            assert err <= 5.0 * q / k_terms


def test_shifted_series_telescoping():
    assert shifted_series_sum(PeriodicCoefficients(1, (1,))) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("vals", [(1, -1), (0, 1, 0)])
def test_shifted_series_vs_direct(vals):
    q = len(vals)
    g = PeriodicCoefficients(q, vals)
    n = np.arange(1, 10_000_001, dtype=np.float64)
    coeff = np.array(vals, dtype=np.float64)[(np.arange(1, 10_000_001) - 1) % q]
    direct = float((coeff / (n * (n + 1.0))).sum())
    assert abs(shifted_series_sum(g) - direct) < 1e-7


def test_shifted_series_formula_shape():
    g = PeriodicCoefficients(3, (0, 1, 0))
    want = g.values[-1] + sum(
        (g(r - 1) - g(r)) * digamma(r / 3) for r in range(1, 4)
    ) / 3
    assert shifted_series_sum(g) == pytest.approx(want.real if isinstance(want, complex) else want)
