import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import bernoulli_fn
from frac_autocorr.fracpart import (
    b1_pair_sum_check,
    bernoulli_poly,
    frullani_integral_check,
    gronwall_sup_scan,
    hl_symmetry_residual,
    max_abs_bernoulli,
    weighted_b1_identity_residual,
)

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_bernoulli_poly_table_values():
    assert bernoulli_poly(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_poly(1, Fraction(1, 2)) == 0
    assert bernoulli_poly(4, Fraction(0)) == Fraction(-1, 30)
    # recurrence-generated b_3 (the printed table's b_3 row is a typo)
    assert bernoulli_poly(3, Fraction(1)) == Fraction(1, 2) - Fraction(3, 2) + 1
    assert bernoulli_poly(12, 0) == Fraction(-691, 2730)  # B_12
    assert bernoulli_poly(24, 0) == Fraction(-236364091, 2730)  # B_24
    with pytest.raises(ValueError):
        bernoulli_poly(25, 0.5)


def test_bernoulli_fn_values():
    assert bernoulli_fn(1, 3.0) == 0.0
    assert bernoulli_fn(1, 0.25) == -0.25
    assert bernoulli_fn(2, 1.75) == pytest.approx(0.75**2 - 0.75 + 1.0 / 6.0, abs=1e-15)
    assert bernoulli_fn(1, Fraction(7, 1)) == 0
    assert bernoulli_fn(1, Fraction(-1, 4)) == Fraction(1, 4)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=64), st.integers(2, 8))
def test_bernoulli_parity(x, n):
    assert bernoulli_fn(n, -x) == (-1) ** n * bernoulli_fn(n, x)


def test_b1_odd_symmetry_exact():
    for x in [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(9, 4)]:
        fx = x - math.floor(x)
        fmx = -x - math.floor(-x)
        assert bernoulli_fn(1, x) == (fx - fmx) / 2


def test_bernoulli_fourier_truncation():
    rng = random.Random(2)
    for n in (2, 3, 4):
        for _ in range(20):
            x = rng.random()
            m_cut = 50
            acc = 0.0
            for k in range(1, m_cut + 1):
                acc += math.cos(2 * math.pi * k * x - math.pi * n / 2.0) / k**n
            series = -2.0 * math.factorial(n) / (2 * math.pi) ** n * acc
            tail = (
                2.0
                * math.factorial(n)
                / (2 * math.pi) ** n
                * (m_cut ** (1 - n) / (n - 1))
            )
            assert abs(series - bernoulli_fn(n, x)) <= tail + 1e-12


def test_max_abs_bernoulli_bound():
    xs = np.linspace(0, 1, 2001)
    for n in range(2, 9):
        vals = np.abs([bernoulli_poly(n, float(x)) for x in xs])
        assert vals.max() <= max_abs_bernoulli(n)


# ----------------------------------------------------------------------
# summation identities
# ----------------------------------------------------------------------


def test_hl_symmetry_examples():
    assert hl_symmetry_residual(Fraction(1, 2), 3, lambda n: n, lambda m: m) == 0
    assert abs(hl_symmetry_residual(SQRT2, 2.5, lambda n: n, lambda m: m)) < 1e-12
    assert hl_symmetry_residual(Fraction(3, 2), 4, lambda n: n * n, lambda m: m) == 0


def test_hl_symmetry_randomized_exact():
    rng = random.Random(101)
    for _ in range(300):
        theta = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        x = Fraction(rng.randint(1, 200), rng.randint(1, 8))
        need = math.floor(max(theta * x, Fraction(x))) + 2
        fseq = [0] + [rng.randint(-9, 9) for _ in range(need)]
        gseq = [0] + [rng.randint(-9, 9) for _ in range(need)]
        assert hl_symmetry_residual(theta, x, fseq.__getitem__, gseq.__getitem__) == 0


def test_hl_symmetry_irrational():
    rng = random.Random(5)
    for theta in (SQRT2, GOLDEN):
        for _ in range(100):
            x = rng.uniform(1.0, 60.0)
            need = math.floor(max(theta * x, x)) + 2
            fseq = [0] + [rng.randint(-9, 9) for _ in range(need)]
            gseq = [0] + [rng.randint(-9, 9) for _ in range(need)]
            r = hl_symmetry_residual(theta, x, fseq.__getitem__, gseq.__getitem__)
            assert r == 0


def _hl_fraction_oracle(theta, x, f, g):
    """The identity's residual with every floor a Fraction floor, theta rational."""
    theta, x = Fraction(theta), Fraction(x)
    p, q = theta.numerator, theta.denominator
    lhs = sum(f(math.floor(m * theta)) * (g(m) - g(m - 1)) for m in range(1, math.floor(x) + 1))
    lhs += sum(g(math.floor(n / theta)) * (f(n) - f(n - 1)) for n in range(1, math.floor(theta * x) + 1))
    rhs = f(math.floor(theta * x)) * g(math.floor(x))
    rhs += sum((g(k * q) - g(k * q - 1)) * (f(k * p) - f(k * p - 1)) for k in range(1, math.floor(x / q) + 1))
    return lhs - rhs


@given(
    st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60),
    st.one_of(st.fractions(min_value=Fraction(1, 12), max_value=300, max_denominator=12), st.integers(1, 300)),
)
@example(Fraction(1, 2), 3)
@example(Fraction(7, 3), Fraction(21, 7))  # theta x an integer, x a multiple of q
def test_hl_symmetry_integer_floors_match_fraction_floors(theta, x):
    # f and g record their arguments: the integer floors m p // q, n q // p,
    # p a // (q b) and a // b reach f and g as often and with the values of
    # the Fraction floors
    seen = []

    def f(n):
        seen.append(("f", n))
        return n * n + 3 * n

    def g(m):
        seen.append(("g", m))
        return 2 * m - m // 3

    got = hl_symmetry_residual(theta, x, f, g)
    calls, seen[:] = seen[2:], []  # past the f(0), g(0) check
    assert got == _hl_fraction_oracle(theta, x, f, g) == 0
    assert sorted(calls) == sorted(seen)


def _sylvester_sides(theta, x):
    """Sylvester's floor identity by direct sums, as (lhs, rhs) integers:
    sum_{m<=x} floor(m theta) + sum_{n<=theta x} floor(n/theta) and
    floor(x) floor(theta x), plus floor(x/q) when theta = p/q."""
    theta_x = theta * x
    lhs = sum(math.floor(m * theta) for m in range(1, math.floor(x) + 1))
    lhs += sum(math.floor(n / theta) for n in range(1, math.floor(theta_x) + 1))
    rhs = math.floor(x) * math.floor(theta_x)
    if isinstance(theta, Fraction):
        rhs += math.floor(Fraction(x) / theta.denominator)
    return lhs, rhs


def _identity(n):
    return n


def test_sylvester_examples():
    # Sylvester is the Hardy-Littlewood identity with f = g = id
    for theta, x, total in [(SQRT2, 2.5, 6), (Fraction(1, 2), 3, 4), (Fraction(1), 1, 2)]:
        assert _sylvester_sides(theta, x) == (total, total)
        assert hl_symmetry_residual(theta, x, _identity, _identity) == 0


def test_sylvester_randomized_exact():
    rng = random.Random(7)
    for _ in range(300):
        theta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        x = Fraction(rng.randint(1, 500), rng.randint(1, 9))
        lhs, rhs = _sylvester_sides(theta, x)
        assert lhs == rhs
        assert hl_symmetry_residual(theta, x, _identity, _identity) == 0


def test_triangular_fracpart_identity_exact():
    # sum_{n<=x} n = x^2/2 - x({x}-1/2) + {x}^2/2 - {x}/2, exactly
    rng = random.Random(31)
    for _ in range(500):
        x = Fraction(rng.randint(0, 4000), rng.randint(1, 40))
        fx = x - math.floor(x)
        lhs = Fraction(math.floor(x) * (math.floor(x) + 1), 2)
        rhs = x * x / 2 - x * (fx - Fraction(1, 2)) + fx * fx / 2 - fx / 2
        assert lhs == rhs


# ----------------------------------------------------------------------
# Gronwall
# ----------------------------------------------------------------------


def test_gronwall_single_term():
    # one term at the one grid point x = 1/4: sin(pi/2)/pi
    assert gronwall_sup_scan(n_max=1, grid=4) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_gronwall_bound_and_limit(mp):
    gibbs = float(mp.si(mp.pi)) / math.pi
    assert gibbs == pytest.approx(0.58948987223608, abs=1e-10)
    sup = gronwall_sup_scan(n_max=800, grid=2048)
    assert 0.0 < sup < gibbs < 0.58950
    # Cesaro-smoothed partial sums converge to 1/2 - {x} at x = 1/3
    n_big = 3000
    n = np.arange(1, n_big + 1)
    terms = np.sin(2 * np.pi * n / 3.0) / (np.pi * n)
    cesaro = float(((1.0 - (n - 1) / n_big) * terms).sum())
    assert abs(cesaro - (0.5 - 1.0 / 3.0)) < 2e-3


# ----------------------------------------------------------------------
# Frullani and the B_1 identities
# ----------------------------------------------------------------------


def test_frullani_examples():
    assert frullani_integral_check(Fraction(1), 5.0) == pytest.approx(0.0, abs=1e-15)
    assert abs(frullani_integral_check(Fraction(2), 3.0)) < 1e-10
    assert abs(frullani_integral_check(Fraction(1, 3), 5.0)) < 1e-10
    assert abs(frullani_integral_check(SQRT2, 7.7)) < 1e-9


def test_frullani_below_alpha_is_zero():
    # for x < alpha = min(1, 1/theta) the integrand is 0 on (0, x] and the right
    # side theta log(1/theta) + theta log(theta) is 0 too
    assert abs(frullani_integral_check(Fraction(2, 3), Fraction(1, 3))) <= 1e-15
    assert abs(frullani_integral_check(Fraction(3, 2), 0.5)) <= 1e-15


@given(
    st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40),
    st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
)
def test_frullani_below_alpha_hypothesis(theta, share):
    # the right side cancels theta log(1/theta) against theta log(theta): a few
    # ulps of |theta log theta| are rounding; a wrong piece walk misses by O(1)
    alpha = min(Fraction(1), 1 / theta)
    x = share * float(alpha)
    lam = float(theta)
    assert abs(frullani_integral_check(theta, x)) <= 8 * 2.0**-52 * (1 + lam * abs(math.log(lam)))


def test_b1_pair_sum_examples():
    lhs, rhs = b1_pair_sum_check(Fraction(1, 2), Fraction(1))
    assert lhs == rhs == 0
    lhs, rhs = b1_pair_sum_check(Fraction(1), Fraction(1))
    assert lhs == rhs == 0
    lhs, rhs = b1_pair_sum_check(Fraction(2, 3), Fraction(3, 2))
    assert lhs == rhs


def test_b1_pair_sum_randomized_exact():
    rng = random.Random(23)
    for _ in range(500):
        theta = Fraction(rng.randint(1, 25), rng.randint(1, 25))
        x = Fraction(rng.randint(1, 300), rng.randint(1, 12))
        lhs, rhs = b1_pair_sum_check(theta, x)
        assert lhs == rhs


def test_b1_pair_sum_residues_equal_the_fraction_terms():
    # the integer-residue sums against the B_1 terms as Fractions, exactly
    rng = random.Random(31)
    for _ in range(200):
        theta = Fraction(rng.randint(1, 25), rng.randint(1, 25))
        x = Fraction(rng.randint(1, 300), rng.randint(1, 12))
        tx = theta * x
        lhs = sum(bernoulli_fn(1, Fraction(n) / theta) for n in range(1, math.floor(tx) + 1))
        lhs += sum(bernoulli_fn(1, m * theta) for m in range(1, math.floor(x) + 1))
        d = (tx - math.floor(tx)) - theta * (x - math.floor(x))
        assert b1_pair_sum_check(theta, x) == (lhs, d * d / (2 * theta) + (theta - 1) * d / (2 * theta))


@pytest.mark.parametrize(
    "theta,x",
    [(Fraction(1), 10.0), (Fraction(1, 2), 7.3), (Fraction(3, 5), 20.0), (Fraction(7, 3), 11.4)],
)
def test_weighted_b1_identity(theta, x):
    assert abs(weighted_b1_identity_residual(theta, x)) < 1e-8


def test_weighted_b1_residues_equal_the_fraction_terms(monkeypatch):
    # with the integrals set to 0 the residual is the B_1 sums minus closed
    # terms: the residue quotients (2r - q)/(2q) give the doubles of the
    # Fraction B_1 terms, so the residual is the Fraction route's bit for bit
    from frac_autocorr import fracpart

    monkeypatch.setattr(fracpart, "frac_product_integral", lambda theta, T: 0.0)
    monkeypatch.setattr(fracpart, "frac_over_t2_integral", lambda a, b: 0.0)
    rng = random.Random(37)
    for _ in range(200):
        theta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        x = rng.uniform(0.5, 80.0)
        lam = float(theta)
        lhs = math.fsum(float(bernoulli_fn(1, m * theta)) / m for m in range(1, math.floor(x) + 1))
        lhs += lam * math.fsum(float(bernoulli_fn(1, n / theta)) / n for n in range(1, math.floor(lam * x) + 1))
        d = (lam * x - math.floor(lam * x)) - lam * (x - math.floor(x))
        rhs = 0.5 * (lam - 1.0) * math.log(1.0 / lam) + d * d / (2.0 * lam * x) + (lam - 1.0) * d / (2.0 * lam * x)
        assert fracpart.weighted_b1_identity_residual(theta, x) == lhs - rhs
