import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from frac_autocorr.rational_core import (
    divisors,
    farey_sequence,
    frac_rational,
    unit_coordinates,
    unit_group,
)


def _farey_full_walk(order: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Test oracle: every term of F_order in each unit cell from floor(lo)
    to floor(hi), kept when it lies in [lo, hi] (the shipped walk before it
    started at lo)."""
    out = []
    for base in range(math.floor(lo), math.floor(hi) + 1):
        a, b, c, d = 0, 1, 1, order
        cell = [(a, b)]
        while c <= order:
            k = (order + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b
            cell.append((a, b))
        for p, q in cell:
            if p == q and base + 1 <= math.floor(hi):
                continue  # integer endpoint reappears as 0/1 of the next cell
            f = Fraction(base * q + p, q)
            if lo <= f <= hi:
                out.append(f)
    return out


def totient_sum(n: int) -> int:
    """Brute-force oracle: number of reduced fractions p/q, q <= n, in (0, 1]."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return int(phi[1 : n + 1].sum())


def test_farey_small():
    f3 = farey_sequence(3, 0, 1)
    assert f3 == [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    assert farey_sequence(1, 0, 1) == [Fraction(0), Fraction(1)]


def test_farey_count_287():
    # oracle: 1 + sum of totients up to the order; the brute-force count of
    # coprime pairs (p, q), q <= 287 is 25158, so the sweep has 25159 rows
    assert len(farey_sequence(287, 0, 1)) == 1 + totient_sum(287)
    assert 1 + totient_sum(287) == 25159


def test_totient_oracle_vs_gcd_count():
    n = 150
    brute = sum(1 for q in range(1, n + 1) for p in range(1, q + 1) if math.gcd(p, q) == 1)
    assert totient_sum(n) == brute


def test_farey_subrange_and_wide_range():
    fs = farey_sequence(3, Fraction(1, 3), Fraction(3, 2))
    assert fs[0] == Fraction(1, 3) and fs[-1] == Fraction(3, 2)
    assert all(a < b for a, b in zip(fs, fs[1:]))
    assert Fraction(4, 3) in fs and Fraction(5, 4) not in fs
    wide = farey_sequence(2, 0, 3)
    assert wide == [Fraction(k, 2) for k in range(0, 7)]


@given(
    st.integers(1, 60),
    st.fractions(min_value=-3, max_value=3, max_denominator=100),
    st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=100),
)
@example(2, Fraction(0), Fraction(3))  # several unit cells
@example(7, Fraction(1, 3), Fraction(3, 2))  # lo in F_7
@example(7, Fraction(2, 17), Fraction(5, 11))  # lo outside F_7
@example(1, Fraction(-2), Fraction(1))  # integer endpoints, order 1
@example(5, Fraction(1), Fraction(2))  # one whole cell
@example(1, Fraction(1, 2), Fraction(1, 6))  # no term in [1/2, 2/3]
@example(60, Fraction(-1, 100), Fraction(1, 50))  # straddles 0
def test_farey_walk_matches_full_walk(order, lo, width):
    got = farey_sequence(order, lo, lo + width)
    assert got == _farey_full_walk(order, lo, lo + width)
    assert all(type(f) is Fraction for f in got)


@pytest.mark.parametrize("order", [50, 120, 300])
def test_farey_neighbor_determinant(order):
    fs = farey_sequence(order, 0, 1)
    for a, b in zip(fs, fs[1:]):
        assert a.denominator * b.numerator - a.numerator * b.denominator == 1


def test_frac_rational_examples():
    assert frac_rational(Fraction(7, 3)) == Fraction(1, 3)
    assert frac_rational(Fraction(-1, 4)) == Fraction(3, 4)
    assert frac_rational(Fraction(5, 1)) == Fraction(0, 1)


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=997),
    st.integers(min_value=-50, max_value=50),
)
def test_frac_rational_periodicity(x, n):
    assert frac_rational(x + n) == frac_rational(x)
    r = frac_rational(x)
    assert 0 <= r < 1 and (x - r).denominator == 1


_COORDS = st.lists(st.integers(min_value=0, max_value=10**6), min_size=6, max_size=6)


@given(st.integers(min_value=1, max_value=5000), _COORDS, _COORDS)
@example(1, [0] * 6, [0] * 6).via("trivial group, the unit 0 = 1 mod 1")
@example(8, [1] * 6, [3] * 6).via("(Z/8)^* = <-1> x <5>")
@example(2 * 3**7, [5] * 6, [1457] * 6).via("2 times an odd prime power")
def test_unit_coordinates_bijective_and_additive(m, xs, ys):
    u = unit_coordinates(m)
    units = [x for x in range(m) if math.gcd(x, m) == 1] if m > 1 else [0]
    assert u.dtype == np.int64 and sorted(u.ravel().tolist()) == units
    assert u.ndim <= 6
    e = tuple(x % n for x, n in zip(xs, u.shape))
    f = tuple(y % n for y, n in zip(ys, u.shape))
    total = tuple((x + y) % n for x, y, n in zip(e, f, u.shape))
    assert int(u[e]) * int(u[f]) % m == int(u[total])


@given(st.integers(min_value=1, max_value=5000))
def test_divisors_brute_force(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_unit_group_lifts_primitive_root_past_p_squared():
    # 5 is the least primitive root mod 40487 but 5^40486 = 1 mod 40487^2,
    # so the generator mod 40487^2 must be 5 + 40487
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    [(g, n)] = unit_group(p * p)
    assert (g, n) == (5 + p, p * (p - 1))
    for f in (2, 31, 653, p):  # the primes dividing p (p - 1)
        assert pow(g, n // f, p * p) != 1
