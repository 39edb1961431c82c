import math

import numpy as np
from hypothesis import assume, example, given, strategies as st

from frac_autocorr.piecewise import merged_breakpoints
from frac_autocorr.rational_core import frac_ratio


def _union_oracle(p: int, q: int, u_lo: int, u_hi: int) -> np.ndarray:
    """Multiples of p or q in (u_lo, u_hi], merged by sort (np.union1d)."""
    mp = np.arange(u_lo // p + 1, u_hi // p + 1, dtype=np.int64) * p
    mq = np.arange(u_lo // q + 1, u_hi // q + 1, dtype=np.int64) * q
    return np.union1d(mp, mq)


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
@example(1, 1, 0, 5)  # p = q = 1: every point is common
@example(1, 9, 3, 40)  # q-multiples all common
def test_merged_breakpoints_matches_union(p, q, u_lo, span):
    assume(math.gcd(p, q) == 1)
    u_hi = u_lo + span
    got = merged_breakpoints(p, q, u_lo, u_hi)
    want = _union_oracle(p, q, u_lo, u_hi)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


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
    st.integers(0, 20_000),
    st.integers(-50, 20_000),
    st.sampled_from([np.int64, np.float64]),
)
@example(7, 3, 0, 5 * 21, np.float64)  # several periods, common multiples included
@example(1, 1, 0, 5, np.float64)  # p = q = 1: every point is common
@example(7, 3, 10, 10, np.int64)  # empty range
def test_merged_breakpoints_buffers_and_frac(p, q, u_lo, span, dtype):
    # the buffer form writes the plain form's breakpoints into out, and frac
    # holds f1 = {(p/q)t} + (p/q){t} at each of them, bit for bit as frac_ratio
    assume(math.gcd(p, q) == 1)
    u_hi = u_lo + span
    plain = merged_breakpoints(p, q, u_lo, u_hi)
    n = plain.size
    out, frac = np.zeros(n + 3, dtype=dtype), np.full(n + 3, np.nan)
    scratch = np.empty((3, n + 3), dtype=np.int64)
    got = merged_breakpoints(p, q, u_lo, u_hi, out=out, scratch=scratch, frac=frac)
    assert got.base is out and got.dtype == dtype
    np.testing.assert_array_equal(got, plain)
    u = plain.astype(np.float64)
    assert frac[:n].tobytes() == (frac_ratio(u, q) + (p / q) * frac_ratio(u, p)).tobytes()
