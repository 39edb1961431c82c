import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from frac_autocorr.errors import DomainError
from frac_autocorr.piecewise import frac_product_integral, merged_breakpoints
from frac_autocorr.rational_core import INDEX_RANGE


def _union_oracle(p: int, q: int, u_lo: int, u_hi: int) -> np.ndarray:
    """Multiples of p or q in (u_lo, u_hi], merged by sort (np.union1d)."""
    mp = np.arange(u_lo // p + 1, u_hi // p + 1, dtype=np.int64) * p
    mq = np.arange(u_lo // q + 1, u_hi // q + 1, dtype=np.int64) * q
    return np.union1d(mp, mq)


def _f1_oracle(p: int, q: int, u: np.ndarray) -> np.ndarray:
    """f1 = {(p/q)t} + (p/q){t} at u = p t, the correctly rounded (u mod q + u mod p)/q."""
    return np.array([float(Fraction(v % q + v % p, q)) for v in u.astype(np.int64).tolist()])


@given(
    st.integers(1, 80),
    st.integers(1, 80),
    st.integers(-300, 20_000),
    st.integers(-50, 20_000),
)
@example(7, 3, 10, 10)  # empty range
@example(7, 3, 10, 4)  # u_hi < u_lo
@example(7, 3, 0, 21)  # one whole period
@example(7, 3, 0, 5 * 21)  # several periods
@example(7, 3, 11, 3 * 21 + 4)  # starts and ends mid-period
@example(7, 3, -50, 40)  # across u = 0
@example(1, 1, 0, 5)  # p = q = 1: every point is common
@example(1, 9, 3, 40)  # q-multiples all common
@example(6, 4, 0, 50)  # not coprime: the lattice of 3/2, scaled by 2
@example(12, 12, -30, 70)  # p = q
def test_merged_breakpoints_matches_union(p, q, u_lo, span):
    u_hi = u_lo + span
    got = merged_breakpoints(p, q, u_lo, u_hi)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, _union_oracle(p, q, u_lo, u_hi))


@given(
    st.integers(1, 80),
    st.integers(1, 80),
    st.integers(-300, 20_000),
    st.integers(0, 20_000),
    st.integers(0, 10**6),
    st.sampled_from([1, "p", "q", "lcm"]),
)
@example(7, 3, 0, 42, 1, "lcm")  # two whole periods split at pq
@example(7, 3, 10, 40, 0, "p")  # mid = 14, the first p-multiple past lo
@example(7, 3, 0, 21, 7, "q")  # mid = 21 = hi: an empty second range
@example(1, 1, 3, 9, 0, 1)  # mid = lo: an empty first range
def test_merged_breakpoints_splits_at_any_mid(p, q, u_lo, span, pick, step):
    # (lo, mid] then (mid, hi] is the one range (lo, hi]: the lattice blocks
    # of a streamed quadrature concatenate to the whole period
    step = {"p": p, "q": q, "lcm": p // math.gcd(p, q) * q}.get(step, step)
    u_hi = u_lo + span
    first = -(-u_lo // step) * step
    assume(first <= u_hi)
    mid = first + step * (pick % ((u_hi - first) // step + 1))
    halves = [merged_breakpoints(p, q, u_lo, mid), merged_breakpoints(p, q, mid, u_hi)]
    np.testing.assert_array_equal(np.concatenate(halves), merged_breakpoints(p, q, u_lo, u_hi))


@given(
    st.integers(1, 80),
    st.integers(1, 80),
    st.integers(-300, 20_000),
    st.integers(-50, 20_000),
)
@example(7, 3, 0, 5 * 21)  # several periods, common multiples included
@example(1, 1, 0, 5)  # p = q = 1: every point is common
@example(7, 3, 10, 10)  # empty range
@example(6, 4, -13, 60)  # not coprime, across u = 0
def test_merged_breakpoints_buffers_and_frac(p, q, u_lo, span):
    # the buffer form writes the plain form's breakpoints into out, and frac
    # holds f1 = {(p/q)t} + (p/q){t} at each of them, correctly rounded
    u_hi = u_lo + span
    plain = merged_breakpoints(p, q, u_lo, u_hi)
    n = plain.size
    out, frac = np.full(n + 3, np.nan), np.full(n + 3, np.nan)
    got = merged_breakpoints(p, q, u_lo, u_hi, out=out, frac=frac)
    assert got.base is out
    np.testing.assert_array_equal(got, plain)
    assert frac[:n].tobytes() == _f1_oracle(p, q, plain).tobytes()
    assert np.isnan(out[n:]).all() and np.isnan(frac[n:]).all()


def test_merged_breakpoints_at_the_size_caps():
    # p + q - 1 = 2^25 - 1 pieces a period and pq = 2^48 - 1, the largest
    # lattice a quadrature builds: slices at the start, middle and end of the
    # period against the union oracle and the exact f1, the period's end f1 = 0
    p, q = 2**24 + 1, 2**24 - 1
    pq, width = p * q, 2**36  # about 2^13 breakpoints a slice
    for u_lo in (0, pq // 2 - width // 2, pq - width):
        frac = np.empty(2**14)
        got = merged_breakpoints(p, q, u_lo, u_lo + width, frac=frac)
        want = _union_oracle(p, q, u_lo, u_lo + width)
        assert 2**12 < want.size < 2**14
        np.testing.assert_array_equal(got, want)
        assert frac[: got.size].tobytes() == _f1_oracle(p, q, want).tobytes()
    assert got[-1] == pq and frac[got.size - 1] == 0.0


def test_merged_breakpoints_refuses_inexact_ranges():
    # float64 holds every step below 2^51; past it DomainError, not wrong
    # points (about 8 of them here, so a missing guard allocates nothing large)
    with pytest.raises(DomainError):
        merged_breakpoints(2**30 + 1, 2**30 + 3, 2**60, 2**60 + 2**32)
    g = 2**30 + 1  # 3/5 needs few steps, but the breakpoints scale by g past 2^53
    with pytest.raises(DomainError):
        merged_breakpoints(3 * g, 5 * g, 2**60, 2**60 + 2**36)


@pytest.mark.parametrize("T", [0.5, 1.0, 7.3, 20.0, 73.0])
def test_frac_product_integral_at_one_integrates_frac_t_over_t_squared(mp, T):
    # {t}{1 t} = {t}^2: the weighted B_1 identity reads integral_0^T ({t}/t)^2 dt here
    edges = [mp.mpf(0)] + [mp.mpf(m) for m in range(1, math.ceil(T))] + [mp.mpf(T)]
    want = mp.quad(lambda t: ((t - mp.floor(t)) / t) ** 2 if t else 1, edges)
    assert frac_product_integral(1, T) == pytest.approx(float(want), rel=1e-14)


def _frac_product_oracle(mp, theta: Fraction, T) -> float:
    """integral_0^T {t}{theta t}/t^2 dt by mp.quad between the breakpoints k and k q/p."""
    p, q = theta.numerator, theta.denominator
    T = Fraction(T)
    cuts = {Fraction(k) for k in range(1, math.ceil(T))} | {Fraction(k * q, p) for k in range(1, math.ceil(T * p / q))}
    edges = [mp.mpf(0)] + [mp.mpf(c.numerator) / c.denominator for c in sorted(cuts) if c < T]
    edges.append(mp.mpf(T.numerator) / T.denominator)
    th = mp.mpf(p) / q
    return float(mp.quad(lambda t: (t - mp.floor(t)) * (th * t - mp.floor(th * t)) / t**2 if t else th, edges))


@pytest.mark.parametrize(
    "theta,T",
    [
        (Fraction(2, 3), Fraction(1, 7)),  # one piece, below both breakpoints
        (Fraction(2, 3), 7.3),
        (Fraction(5, 7), Fraction(41, 3)),
        (Fraction(13, 4), 2.5),
        (Fraction(1, 9), 20.0),
        (Fraction(7, 3), 11.4),
        (Fraction(3, 5), Fraction(10)),  # T on a common breakpoint
        (Fraction(22, 7), Fraction(7, 22) * 5),  # T on a breakpoint k q/p
    ],
)
def test_frac_product_integral_at_rationals_against_mpmath(mp, theta, T):
    # pieces from merged_breakpoints, m = u // p and n = u // q, against 30-digit quadrature
    assert frac_product_integral(theta, T) == pytest.approx(_frac_product_oracle(mp, theta, T), rel=1e-14)


def test_merged_breakpoints_in_two_threads():
    # two threads build ranges of 2^14 and 2^14 - 1 points, and ranges longer
    # than the shared read-only index range, at once: each gets the bits of a sequential run
    p, q = 180229, 81920
    u = merged_breakpoints(p, q, 0, p * q).astype(np.int64).tolist()
    big = 2**17 + 1
    cases = [[(p, q, 0, u[2**14 - 1]), (p, q, 0, u[big])], [(p, q, u[0], u[2**14 - 1]), (p, q, u[0], u[big])]]
    want = [[merged_breakpoints(*c).tobytes() for c in row] for row in cases]
    assert [[len(w) // 8 for w in row] for row in want] == [[2**14, big + 1], [2**14 - 1, big]]
    assert INDEX_RANGE.size == big and not INDEX_RANGE.flags.writeable
    got = [None, None]

    def run(i):
        got[i] = [[merged_breakpoints(*c).tobytes() == w for c, w in zip(cases[i], want[i])] for _ in range(50)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[[True, True]] * 50] * 2
