import math
import random
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frac_autocorr import mellin_verify, vasyunin
from frac_autocorr.autocorr import a_rational
from frac_autocorr.errors import DomainError, NonCoprimeError
from frac_autocorr.phi import phi_n, phi_resum_rational
from frac_autocorr.specfun import EULER_GAMMA, PI, cot_pi_frac_table, digamma_vec
from frac_autocorr.vasyunin import (
    modular_inverse,
    v_row,
    vasyunin_b1cot,
    vasyunin_cot,
    vasyunin_noncoprime,
    vasyunin_psi,
)

SQRT3 = math.sqrt(3.0)


def _cot_full_range(q: int) -> np.ndarray:
    """Test oracle: cot(k pi/q), k = 1 .. q-1, one tangent per entry, the
    numerator reduced to |k| <= q/2 first (the table before its half-range
    fill)."""
    k = np.arange(1, q)
    num = np.where(2 * k <= q, k, k - q)
    return 1.0 / np.tan(PI * num / q)


def _v_cot_fsum(p: int, q: int) -> float:
    """Test oracle: the defining sum over the full range, with its own
    cotangents, correctly rounded by math.fsum (the shipped route before
    the pairwise-summed kernel)."""
    if q == 1:
        return 0.0
    k = np.arange(1, q, dtype=np.int64)
    r = (k * (p % q)) % q
    return math.fsum((r / q) * _cot_full_range(q))


def _v_rows_int64(q: int, ps: np.ndarray) -> np.ndarray:
    """Test oracle: the V kernel with int64 remainders (the shipped kernel
    before the float64 remainders), with the same blocks and row sums."""
    ct = _cot_full_range(q)
    k = np.arange(1, q, dtype=np.int64)
    width = min(q - 1, vasyunin._V_BLOCK)
    rows = vasyunin._V_BLOCK // width
    out = np.zeros(ps.size, dtype=np.float64)
    for i in range(0, ps.size, rows):
        p = ps[i : i + rows, None]
        for j in range(0, q - 1, width):
            out[i : i + rows] += ((p * k[j : j + width]) % q / q * ct[j : j + width]).sum(axis=-1)
    return out


def _noncoprime_frac(a: int, b: int) -> float:
    """Test oracle: the companion sum_{m<b} {ma/b} psi(m/b), which carries the
    extra -(b/2)(log b + gamma) + (d/2)(log d + gamma), d = gcd(a, b), against
    the B_1 sum of vasyunin_noncoprime."""
    m = np.arange(1, b, dtype=np.int64)
    return math.fsum(((m * (a % b)) % b / b) * digamma_vec(m / b))


def _psi_frac(p: int, q: int) -> float:
    """Test oracle: V(p, q) through the fractional-part digamma sum,
    -(2/pi) sum {kp/q} psi(k/q) - (q/pi)(log q + gamma) + gamma/pi, the
    gamma/pi being the k = q term of sum_{k<=q} psi(k/q) = -q(log q + gamma)."""
    return -(2.0 / PI) * _noncoprime_frac(p % q, q) - (q / PI) * (math.log(q) + EULER_GAMMA) + EULER_GAMMA / PI


def _coprime_at_or_above(p: int, q: int) -> int:
    while math.gcd(p, q) != 1:
        p += 1
    return p


def test_defining_sum_hand_values():
    assert vasyunin_cot(1, 1) == 0.0
    assert vasyunin_cot(1, 3) == pytest.approx(-1.0 / (3.0 * SQRT3), abs=1e-14)
    assert vasyunin_cot(1, 4) == pytest.approx(-0.5, abs=1e-14)
    assert abs(vasyunin_cot(1, 2)) < 1e-15
    with pytest.raises(NonCoprimeError):
        vasyunin_cot(2, 4)


def test_b1cot_form():
    assert vasyunin_b1cot(1, 2) == 0.0
    # oddness transfers the hand values
    assert vasyunin_b1cot(2, 3) == pytest.approx(1.0 / (3.0 * SQRT3), abs=1e-13)
    assert vasyunin_b1cot(3, 4) == pytest.approx(0.5, abs=1e-13)


def test_psi_form_and_corrected_frac_form():
    assert vasyunin_psi(1, 3) == pytest.approx(vasyunin_cot(1, 3), abs=1e-12)
    assert abs(vasyunin_psi(1, 2)) < 1e-13
    # the fractional-part variant; q = 5, p = 2 as the worked example
    assert _psi_frac(2, 5) == pytest.approx(vasyunin_cot(2, 5), abs=1e-11)


def test_periodicity_and_oddness_exhaustive():
    for q in range(1, 101):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            v = vasyunin_cot(p, q)
            assert vasyunin_cot(p + q, q) == pytest.approx(v, abs=1e-11 * q)
            assert vasyunin_cot(-p, q) == pytest.approx(-v, abs=1e-11 * q)


def test_three_form_agreement_sample():
    rng = random.Random(9)
    for _ in range(60):
        q = rng.randint(2, 150)
        ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
        p = rng.choice(ps) if ps else 1
        v = vasyunin_cot(p, q)
        assert abs(v - vasyunin_b1cot(p, q)) <= 1e-10 * q
        assert abs(v - vasyunin_psi(p, q)) <= 1e-9 * q
        assert abs(v - _psi_frac(p, q)) <= 1e-9 * q


def test_growth_bound():
    worst = 0.0
    for q in range(3, 301):
        vmax = max(abs(v) for _, v in v_row(q))
        worst = max(worst, vmax / (q * math.log(q)))
    assert worst <= 2.0


def test_noncoprime_values():
    assert vasyunin_noncoprime(2, 6) == pytest.approx(PI / (3.0 * SQRT3), abs=1e-12)
    assert vasyunin_noncoprime(1, 3) == pytest.approx(
        -(PI / 2.0) * vasyunin_cot(1, 3), abs=1e-12
    )
    assert vasyunin_noncoprime(4, 4) == pytest.approx(0.0, abs=1e-12)
    # general reduction: sum = -(pi d / 2) V(a/d, b/d)
    rng = random.Random(3)
    for _ in range(40):
        a, b = rng.randint(1, 60), rng.randint(2, 60)
        d = math.gcd(a, b)
        want = -(PI * d / 2.0) * vasyunin_cot(a // d, b // d)
        assert vasyunin_noncoprime(a, b) == pytest.approx(want, abs=1e-10 * b)


def test_noncoprime_frac_display():
    rng = random.Random(4)
    for _ in range(40):
        a, b = rng.randint(1, 60), rng.randint(2, 60)
        d = math.gcd(a, b)
        want = (
            -(PI * d / 2.0) * vasyunin_cot(a // d, b // d)
            - (b / 2.0) * (math.log(b) + EULER_GAMMA)
            + (d / 2.0) * (math.log(d) + EULER_GAMMA)
        )
        assert _noncoprime_frac(a, b) == pytest.approx(want, abs=1e-9 * b)


def _trig_kl_sum(p: int, q: int, centered: bool = False) -> complex:
    """sum_{1<=k,l<=q} w_k w_l e^{2 pi i k l p / q} by the direct double sum,
    w_k = k, or 1/2 - k/q when centered."""
    k = np.arange(1, q + 1, dtype=np.int64)
    w = 0.5 - k / q if centered else k
    roots = np.exp(2j * PI * np.arange(q) / q)
    return complex((np.outer(w, w) * roots[(np.outer(k, k) * (p % q)) % q]).sum())


def test_trig_kl_sum():
    assert _trig_kl_sum(1, 1) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert _trig_kl_sum(1, 2) == pytest.approx(7.0 + 0.0j, abs=1e-12)
    for p, q in [(2, 5), (3, 7), (5, 12)]:
        pbar = modular_inverse(p, q)
        want = q * q / 4.0 * (3.0 * q + 1.0) - 0.5j * q * q * vasyunin_cot(pbar, q)
        assert abs(_trig_kl_sum(p, q) - want) <= 1e-9 * q**3


def test_centered_trig_sum():
    assert _trig_kl_sum(1, 1, centered=True) == pytest.approx(0.25 + 0.0j, abs=1e-14)
    assert _trig_kl_sum(1, 2, centered=True) == pytest.approx(0.25 + 0.0j, abs=1e-13)
    for p, q in [(3, 7), (2, 5), (7, 11)]:
        pbar = modular_inverse(p, q)
        want = 0.25 - 0.5j * vasyunin_cot(pbar, q)
        assert abs(_trig_kl_sum(p, q, centered=True) - want) <= 1e-9 * q


def test_modular_inverse():
    assert modular_inverse(3, 7) == 5
    assert modular_inverse(1, 11) == 1
    assert modular_inverse(10, 11) == 10
    assert modular_inverse(5, 1) == 1
    with pytest.raises(NonCoprimeError):
        modular_inverse(6, 9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4096), st.integers(0, 4095))
@example(1, 0)
@example(4096, 4095)
@example(4093, 1)
@example(3001, 1500)
def test_v_against_mpmath_and_fsum_oracle(mp, q, p):
    # 30-digit reference of the defining sum: nothing shared with the engine
    # but the integers r = kp mod q
    p = _coprime_at_or_above(p % q, q)
    ref = mp.fsum(mp.mpf((k * p) % q) / q * mp.cot(mp.pi * k / q) for k in range(1, q))
    v = vasyunin_cot(p, q)
    assert abs(v - float(ref)) <= 2e-15 * q
    assert abs(v - _v_cot_fsum(p, q)) <= 2e-15 * q


@pytest.mark.parametrize("q", [97, 1000, 1023, 4093, 4096])
def test_scattered_value_is_bit_identical_to_row_entry(q):
    # v_row's blocks hold many rows, vasyunin_cot's one: the pairwise row
    # sum must not depend on that
    row = dict(v_row(q))
    assert list(row) == [p for p in range(1, q) if math.gcd(p, q) == 1]
    for p, v in row.items():
        assert vasyunin_cot(p, q) == v
        assert vasyunin_cot(p + 3 * q, q) == v


@pytest.mark.parametrize("block, q", [(50, 97), (64, 1000), (1000, 4093)])
def test_rows_longer_than_a_block(monkeypatch, block, q):
    # small blocks force the path taken by rows longer than 2^17 elements
    monkeypatch.setattr(vasyunin, "_V_BLOCK", block)
    row = v_row(q)
    for p, v in row:
        assert vasyunin_cot(p, q) == v
    for p, v in row[::7]:
        assert abs(v - _v_cot_fsum(p, q)) <= 2e-15 * q


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 2**14 + 1),
    st.lists(st.integers(0, 2**14), min_size=1, max_size=6),
    st.sampled_from([None, 50, 1000]),
)
@example(2**14 + 1, [1, 2**14], None)
@example(2**14, [1, 8191], 50)
@example(2, [1], 1000)
@example(2**14 + 8, [1, 2**14], None)  # the widest row on the shared index range
@example(2**14 + 9, [1, 5], None)  # rows past it take their own range
@example(2**17, [1, 2**16 + 1], None)
@example(2**17 + 1, [1, 2**16], None)
def test_float_remainder_kernel_is_bit_identical_to_int64_oracle(q, ps, block):
    ps = np.array([_coprime_at_or_above(p % q, q) for p in ps], dtype=np.int64)
    with mock.patch.object(vasyunin, "_V_BLOCK", block or vasyunin._V_BLOCK):
        assert np.array_equal(vasyunin._v_rows(q, ps), _v_rows_int64(q, ps))


def test_cot_table_half_range_is_bit_identical_to_full_range():
    for q in [*range(1, 5001), 2**14, 2**14 + 1, 2**20 + 7]:
        assert np.array_equal(cot_pi_frac_table(q), _cot_full_range(q)), q


def test_a_unit_grid_is_bit_identical_with_int64_oracle_kernel():
    want = mellin_verify.a_unit_grid(1024)
    with mock.patch.object(vasyunin, "_v_rows", _v_rows_int64):
        got = mellin_verify.a_unit_grid.__wrapped__(1024)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (vasyunin.vasyunin_cot, (1, 2**25 + 1), "exceeds 2\\^25"),
        (a_rational, (1, 2**25 + 1), "exceeds 2\\^25"),
        (cot_pi_frac_table, (2**25 + 1,), "exceeds 2\\^25"),
        (vasyunin.vasyunin_b1cot, (1, 2**25 + 1), "exceeds 2\\^25"),
        (vasyunin_psi, (1, 2**20 + 1), "exceeds 2\\^20"),
        (vasyunin_noncoprime, (1, 2**20 + 1), "exceeds 2\\^20"),
        (phi_resum_rational, (2, Fraction(1, 2**20 + 1)), "exceeds 2\\^20"),
        (phi_n, (2, Fraction(1, 2**20 + 1)), "exceeds 2\\^20"),
    ],
    ids=[
        "vasyunin_cot", "a_rational", "cot_pi_frac_table", "vasyunin_b1cot",
        "vasyunin_psi", "vasyunin_noncoprime", "phi_resum_rational", "phi_n",
    ],
)
def test_v_kernel_size_guard_raises_before_allocating(fn, args, match):
    # float64 remainders p k mod q are exact only while q^2 < 2^53; the
    # digamma route and the phi_n resummation have their own caps, set by time
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(DomainError, match=match):
            fn(*args)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert elapsed < 1.0


def test_digamma_route_serves_its_cap():
    # b = 2^20 is the largest b the digamma route takes; a = 6 leaves d = 2
    b = 2**20
    want = -(PI * 2 / 2.0) * vasyunin_cot(3, b // 2)
    assert vasyunin_noncoprime(6, b) == pytest.approx(want, abs=1e-10 * b)


def _held_bytes_after(fn) -> int:
    """tracemalloc's current (held) bytes after fn() from a cold A grid cache."""
    mellin_verify.a_unit_grid.cache_clear()
    tracemalloc.start()
    try:
        fn()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def test_a_unit_grid_leaves_few_cot_tables_alive():
    # the grid meets most denominators once: a cot table kept past its call
    # would hold single-use tables (32 of the largest took about 24 MB at Q = 4096)
    assert _held_bytes_after(lambda: mellin_verify.a_unit_grid(4096)) < 4 << 20


def test_a_unit_grid_peak_holds_one_row_block_at_a_time():
    # at Q = 2^14 the rows q = 2^13, 2^14 take 2 MB block buffers, and each
    # cot table lives only through its own rows: the cold grid peaks at about
    # 4.4 MB (a 32-table cache of single-use tables took it to 6.4-8.3 MB)
    mellin_verify.a_unit_grid.cache_clear()
    tracemalloc.start()
    try:
        mellin_verify.a_unit_grid(1 << 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_scattered_values_leave_few_cot_tables_alive():
    rng = random.Random(11)

    def scattered():
        for _ in range(2000):
            q = rng.randint(1025, 4096)
            vasyunin_cot(_coprime_at_or_above(rng.randrange(1, q), q), q)

    assert _held_bytes_after(scattered) < 4 << 20


def test_large_q_values_leave_no_tables_alive():
    # a table of q entries takes 8q bytes (32 cached tables near 2^19 once
    # held 129 MB): each is freed with its call
    def large():
        for q in range(2**19 + 1, 2**19 + 81, 2):
            vasyunin_cot(1, q)

    assert _held_bytes_after(large) < 8 << 20


def test_digamma_route_holds_at_most_two_tables():
    # every caller loops p inside one q, so two tables (16 MB at the 2^20 cap)
    # hold all the reuse there is: a third q near 2^19 frees the first table
    vasyunin._psi_table.cache_clear()
    tables = []
    for q in (2**19 + 1, 2**19 + 3, 2**19 + 5):
        vasyunin_noncoprime(1, q)
        tables.append(weakref.ref(vasyunin._psi_table(q)))  # a hit: the table the call read
    assert vasyunin._psi_table.cache_info().currsize == 2
    assert [t() is None for t in tables] == [True, False, False]


@pytest.mark.parametrize("q", [97, 1000])
def test_uncached_tables_give_the_same_values(q):
    # every table is built per call: a whole row, each entry alone and the
    # other two routes agree
    row = v_row(q)
    assert v_row(q) == row
    for p, v in row:
        assert vasyunin_cot(p, q) == v
    for p, v in row[::7]:
        assert abs(v - vasyunin_b1cot(p, q)) <= 1e-10 * q
        assert abs(v - vasyunin_psi(p, q)) <= 1e-9 * q
        assert abs(v - _psi_frac(p, q)) <= 1e-9 * q


def test_psi_table_against_mpmath(mp):
    # the digamma rows of vasyunin_psi, one numpy pass: within 4 eps max(1, |psi|)
    # of a 30-digit psi(k/q) at 500 random k/q
    rng = random.Random(17)
    kq = [(rng.randint(1, q - 1), q) for q in (rng.randint(2, 2**14) for _ in range(500))]
    got = digamma_vec(np.array([k for k, _ in kq]) / np.array([q for _, q in kq]))
    eps = sys.float_info.epsilon
    for (k, q), g in zip(kq, got.tolist()):
        ref = mp.digamma(mp.mpf(k) / q)
        assert abs(g - ref) <= 4 * eps * max(1.0, abs(float(ref))), (k, q)
    for k, q in kq[:5]:
        assert vasyunin._psi_table.__wrapped__(q)[k - 1] == digamma_vec(np.array([k / q]))[0]
    with pytest.raises(DomainError):
        digamma_vec(np.array([0.5, 0.0]))
