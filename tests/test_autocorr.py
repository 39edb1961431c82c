import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frac_autocorr import autocorr
from frac_autocorr.autocorr import (
    QuadratureConfig,
    _a_closed,
    _head_block,
    _head_sum,
    _lattice_blocks,
    _smooth_plan,
    _smooth_tables,
    a_quadrature,
    a_rational,
    a_unit_grid,
    delta_functional_equation_residual,
    farey_scan,
    local_model,
    write_farey_csv,
    write_farey_svg,
)
from frac_autocorr.errors import DomainError, ToleranceError
from frac_autocorr.piecewise import merged_breakpoints
from frac_autocorr.phi import delta_power_integral, phi1_rational, phi_n
from frac_autocorr.specfun import EULER_GAMMA, LOG_2PI, PI
from frac_autocorr.vasyunin import vasyunin_cot

A1 = LOG_2PI - EULER_GAMMA  # A(1)


def test_a_rational_values():
    assert a_rational(1, 1) == pytest.approx(A1, rel=1e-14)
    # -(log 2)/4 + (3/4)(log 2pi - gamma); the oracle-confirmed decimal
    assert a_rational(1, 2) == pytest.approx(-math.log(2.0) / 4.0 + 0.75 * A1, abs=1e-14)
    assert a_rational(1, 2) == pytest.approx(0.7722092559908731, abs=1e-13)
    assert a_rational(2, 1) == pytest.approx(2.0 * a_rational(1, 2), rel=1e-14)
    assert a_rational(0, 1) == 0.0
    with pytest.raises(DomainError):
        a_rational(2, 4)


def test_a_quadrature_certified_agreement():
    cfg = QuadratureConfig(tol=1e-10)
    for lam in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(7, 5), Fraction(13, 4)):
        r = a_quadrature(lam, cfg)
        want = a_rational(lam.numerator, lam.denominator)
        assert abs(r.value - want) <= r.err + 1e-12
        assert r.err <= 2e-10


def test_a_quadrature_a1_example():
    r = a_quadrature(Fraction(1), QuadratureConfig(tol=1e-10))
    assert abs(r.value - A1) <= 1e-9


def test_a_quadrature_zero_and_small():
    assert a_quadrature(Fraction(0)).value == 0.0
    r = a_quadrature(1e-6, QuadratureConfig(tol=1e-3))
    assert r.value < 2e-3
    # |A(lambda)| <= ||phi||^2 sqrt(lambda) specialised
    assert r.value <= A1 * math.sqrt(1e-6) + r.err


def test_a_quadrature_tolerance_error():
    # the convergent after 6625109/9369319 has 38.6M pieces a period, past the
    # cap; the continuity bound at 9369319 is 2.8e-13, above tol/2
    with pytest.raises(ToleranceError) as e:
        a_quadrature(1.0 / math.sqrt(2.0), QuadratureConfig(tol=1e-13))
    assert 5e-14 < e.value.achieved < math.inf


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_a_quadrature_rejects_nonfinite_and_nonpositive_float(lam):
    with pytest.raises(DomainError, match="finite lambda > 0"):
        a_quadrature(lam)


@pytest.mark.parametrize(
    "lam, match",
    [
        (Fraction(2**27 + 1, 2**27), "2pq exceeds 2\\^53"),  # 2pq = 2^55 + 2^28
        (Fraction(2**26 + 1), "pieces per period"),  # 2^26 + 1 pieces, pq = 2^26 + 1
    ],
    ids=["float64-exactness", "pieces-per-period"],
)
def test_a_quadrature_size_guards_raise_before_allocating(lam, match):
    tracemalloc.start()
    try:
        with pytest.raises(ToleranceError, match=match) as e:
            a_quadrature(lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.value.achieved == math.inf
    assert peak < 1 << 20


def test_a_quadrature_pieces_times_periods_guard():
    # 2^22 + 1 pieces a period, which once needed 544 periods at tol 1e-10:
    # one period now, against lambda A(1/lambda) (criterion 3) within both radii
    lam = Fraction(2**22 + 1)
    start = time.perf_counter()
    r = a_quadrature(lam)
    assert time.perf_counter() - start < 1.0
    assert r.err <= 1e-10
    inv = a_quadrature(1 / lam)
    assert abs(r.value - float(lam) * inv.value) <= r.err + float(lam) * inv.err


def test_a_quadrature_irrational_brackets():
    lam = math.sqrt(2.0)
    r = a_quadrature(lam, QuadratureConfig(tol=1e-4))
    want = a_rational(665857, 470832)  # convergent of sqrt(2), 1.1e-12 away
    assert abs(r.value - want) <= r.err


def test_a_quadrature_float_lambda_covers_convergent():
    lam = 1.0 / math.sqrt(2.0)
    r = a_quadrature(lam, QuadratureConfig(tol=1e-7))
    ref = a_rational(6625109, 9369319)  # a convergent of the binary64 lam, 4e-15 away
    assert abs(r.value - ref) <= r.err


def _lemma_bound(lam: float, mu: Fraction) -> float:
    """L(delta) = delta (2 log(1/delta) + log max(1, lam, mu) + 3), delta = |lam - mu|."""
    delta = float(abs(Fraction(lam) - mu))
    return delta * (2.0 * math.log(1.0 / delta) + math.log(max(1.0, lam, float(mu))) + 3.0)


@pytest.mark.parametrize(
    "lam, tol, mu",
    [
        (0.5 + 2.0**-20, 1e-4, Fraction(1, 2)),
        (0.5 + 2.0**-20, 1e-9, Fraction(262144, 524287)),
        (0.5 + 2.0**-20, 2e-10, Fraction(2**19 + 1, 2**20)),  # tol/2 < 1.0e-10 < tol
        (3.0 - 2.0**-17, 1e-3, Fraction(3)),
    ],
)
def test_float_lambda_reduces_to_first_convergent_within_tol(lam, tol, mu):
    # the binary64 1/2 + 2^-20 is x = (2^19 + 1)/2^20, with convergents 1/2
    # (L = 2.9e-5), 262144/524287 (L = 1.0e-10) and x itself (L = 0); at
    # 3 - 2^-17 the convergent 3 has L = 2.1e-4, with log 3 in it
    x = Fraction(lam)
    r = a_quadrature(lam, QuadratureConfig(tol=tol))
    at_mu = a_quadrature(mu, QuadratureConfig(tol=tol / 2))
    widen = _lemma_bound(lam, mu) if mu != x else 0.0
    assert r.value == at_mu.value
    assert r.err == pytest.approx(at_mu.err + widen, rel=1e-12)
    assert abs(r.value - a_rational(x.numerator, x.denominator)) <= r.err <= tol


@pytest.mark.parametrize(
    "lam, p, q",
    [
        (1.0 / math.sqrt(2.0), 6625109, 9369319),
        (math.sqrt(2.0), 9369319, 6625109),
        (math.pi / 4.0, 5419351, 6900132),
        (math.e / 3.0, 9415243, 10391023),
        ((1.0 + math.sqrt(5.0)) / 2.0, 14930352, 9227465),
    ],
    ids=["1/sqrt2", "sqrt2", "pi/4", "e/3", "golden"],
)
def test_float_lambda_default_tol_covers_convergent(lam, p, q):
    # (p, q): a convergent of the binary64 lam with q near 10^7; a_rational
    # there, widened by the continuity bound, must lie inside the radius
    start = time.perf_counter()
    r = a_quadrature(lam)
    assert time.perf_counter() - start < 1.0
    assert r.err <= 1e-10
    assert abs(r.value - a_rational(p, q)) <= r.err + _lemma_bound(lam, Fraction(p, q))


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3)])
def test_continuity_lemma_on_closed_forms(p, q):
    # criterion 9's points p/q +- 2^-j, where A is a closed form on both sides
    base = Fraction(p, q)
    a_base = a_rational(p, q)
    for j in range(8, 21):
        for sign in (1, -1):
            lam = base + Fraction(sign, 2**j)
            got = abs(a_rational(lam.numerator, lam.denominator) - a_base)
            assert got <= _lemma_bound(float(lam), base)


@pytest.mark.parametrize(
    "lam",
    [
        Fraction(11, 5) + Fraction(1, 2**16),
        Fraction(11, 5) - Fraction(1, 2**16),
        Fraction(3, 7) - Fraction(1, 2**17),
        Fraction(11, 5) + Fraction(1, 2**17),
        Fraction(11, 5) + Fraction(1, 2**19),  # 8,388,612 pieces, 512 blocks
        Fraction(11, 5) - Fraction(1, 2**19),
    ],
    ids=["11/5+2^-16", "11/5-2^-16", "3/7-2^-17", "11/5+2^-17", "11/5+2^-19", "11/5-2^-19"],
)
def test_near_rational_radius_covers_closed_form(lam):
    r = a_quadrature(lam, QuadratureConfig(tol=1e-12))
    assert abs(r.value - a_rational(lam.numerator, lam.denominator)) <= r.err


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from([(11, 5), (2, 3), (1, 2), (1, 1), (3, 7), (5, 8)]),
    j=st.integers(8, 15),
    sign=st.sampled_from([1, -1]),
    tol=st.floats(1e-13, 1e-8),
)
@example(base=(11, 5), j=13, sign=1, tol=1e-13)
@example(base=(1, 1), j=8, sign=-1, tol=1e-13)
def test_near_rational_radius_within_tol(base, j, sign, tol):
    # the radius covers the closed form and stays within tol, and the head's
    # truncation bound, its degree set by tol, within tol/8
    lam = Fraction(*base) + Fraction(sign, 2**j)
    truncs = []

    def head_sum(parts):
        out = _head_sum(parts)
        truncs.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autocorr, "_head_sum", head_sum)
        r = a_quadrature(lam, QuadratureConfig(tol=tol))
    assert abs(r.value - a_rational(lam.numerator, lam.denominator)) <= r.err <= tol
    assert len(truncs) == 1 and truncs[0] <= tol / 8


def test_quadrature_memory_is_one_block():
    # 2/3 + 2^-20 has 5,242,883 pieces per period, 42 MB in each float64
    # per-piece array; the streamed passes hold one block at a time
    lam = Fraction(2, 3) + Fraction(1, 2**20)
    tracemalloc.start()
    try:
        r = a_quadrature(lam, QuadratureConfig(tol=1e-12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert r.err < 1e-12


def test_quadrature_allocates_no_block_arrays_after_warm_up():
    # 11/5 + 2^-13 has 131,076 pieces per period, eight blocks; after one
    # call, the next works in the thread's held block buffers
    lam = Fraction(11, 5) + Fraction(1, 2**13)
    want = a_quadrature(lam)
    tracemalloc.start()
    try:
        got = a_quadrature(lam)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current <= 512 << 10
    assert (got.value, got.err) == (want.value, want.err)


def _workspace_bytes() -> int:
    return sum(a.nbytes for a in vars(autocorr._WORKSPACE).values() if isinstance(a, np.ndarray))


def test_workspace_is_bounded_and_kept():
    a_quadrature(Fraction(3, 7))
    held = _workspace_bytes()
    assert 0 < held <= 2_098_304  # 16 rows of _BLOCK + 9 doubles at the default block
    rng = random.Random(23)
    for _ in range(20):
        p, q = rng.choice([(11, 5), (2, 3), (1, 1), (3, 7), (5, 8), (307, 256)])
        a_quadrature(Fraction(p, q) + Fraction(rng.choice([1, -1]), 2 ** rng.randint(4, 17)))
        assert _workspace_bytes() == held


def test_threads_keep_their_own_workspace():
    # two threads run the same quadratures at once; each has its own block
    # buffers, so both return the bits of a sequential run
    lams = [Fraction(p, q) + Fraction(s, 2**j) for (p, q), s, j in zip(
        [(11, 5), (2, 3), (1, 1), (3, 7), (5, 8), (1, 2)] * 2, [1, -1] * 6, range(6, 18)
    )]
    want = [(r.value, r.err) for r in map(a_quadrature, lams)]
    got = [None, None]

    def run(i):
        got[i] = [(r.value, r.err) for r in map(a_quadrature, lams)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want, want]


@pytest.mark.parametrize(
    "lam, block",
    [(Fraction(3, 7), 1 << 14), (Fraction(3, 7) - Fraction(1, 2**13), 64), (Fraction(307, 256), 64)],
    ids=["one-block", "one-pass", "short-prefix"],
)
def test_lattice_built_once_then_short_prefix(monkeypatch, lam, block):
    # every block is built once: no prefix of blocks is built again for more
    # periods, as the head of a period of several blocks takes one period
    p, q = lam.numerator, lam.denominator
    calls = []

    def traced(p_, q_, lo, hi, **kwargs):
        out = merged_breakpoints(p_, q_, lo, hi, **kwargs)
        calls.append(out.size)
        return out

    monkeypatch.setattr(autocorr, "merged_breakpoints", traced)
    monkeypatch.setattr(autocorr, "_BLOCK", block)
    cfg = QuadratureConfig(tol=1e-12)
    value = a_quadrature(lam, cfg)
    monkeypatch.undo()
    n_blocks = -(-(p + q - 1) // block)
    assert len(calls) == n_blocks and sum(calls) == p + q - 1 and max(calls) <= block + 2
    # against the default block, which holds the whole period
    assert abs(value.value - a_quadrature(lam, cfg).value) <= value.err


@settings(max_examples=200, deadline=None)
@given(
    lam=st.fractions(Fraction(1, 20), 20, max_denominator=50),
    x=st.floats(1e-9, 1.0),  # every piece but the one at t = 0 has h <= a
    h_frac=st.floats(0.001, 1.0),
    sa=st.floats(0.0, 1.0),
    sb=st.floats(0.0, 1.0),
    start=st.sampled_from(["p", "q"]),
    tol=st.sampled_from([0.0, 1e-13, 1e-10]),
)
@example(lam=Fraction(1), x=0.09, h_frac=1.0, sa=0.0, sb=0.0, start="p", tol=0.0)
@example(lam=Fraction(20), x=1e-9, h_frac=1.0, sa=1.0, sb=1.0, start="q", tol=0.0)
@example(lam=Fraction(1), x=1.0, h_frac=1.0, sa=0.0, sb=1.0, start="p", tol=0.0)
def test_head_series_against_mpmath(mp, lam, x, h_frac, sa, sb, start, tol):
    # one piece of width h at t = a = h/x with no breakpoint inside it:
    # {t} + h <= 1 and {lam t} + lam h <= 1 at its left edge, a breakpoint,
    # where {t} = 0 (a multiple of p in u = p t) or {lam t} = 0 (of q);
    # tol = 0 sums at the eps degree, else the degree follows tol
    p, q = lam.numerator, lam.denominator
    sa, sb = (0.0, sb) if start == "p" else (sa, 0.0)
    h = h_frac * min(1.0, q / p)
    fa, fb = sa * (1.0 - h), sb * (1.0 - p / q * h)
    f0, f1 = fa * fb, fb + p / q * fa
    d = h * p  # width and left edge in u = p t
    u0 = d / x
    piece = tuple(np.array([v]) for v in (u0, d, f1, (u0 + u0) + d))  # e = u_left + u_right
    got, _, bound = _head_sum([_head_block(p, q, piece, 1, tol, [tol / 8])])
    assert bound <= tol / 8
    with mp.workdps(40):
        a, mh, ml = mp.mpf(d / x) / p, mp.mpf(d) / p, mp.mpf(p) / q
        ref = mp.quad(lambda tau: (f0 + f1 * tau + ml * tau**2) / (a + tau) ** 2, [0, mh])
        assert abs(got - ref) <= bound + 8 * sys.float_info.epsilon * abs(ref)


@pytest.mark.parametrize(
    "lam, n",
    [(Fraction(3, 7) - Fraction(1, 2**8), 3), (Fraction(1) + Fraction(1, 2**8), 4), (Fraction(2, 3) - Fraction(1, 2**9), 2)],
    ids=["3/7-2^-8", "1+2^-8", "2/3-2^-9"],
)
def test_head_within_its_bounds_against_mpmath(mp, lam, n):
    # the whole head over n periods, its piece integrals in 30-digit log1p
    # forms, against the series sum: within the truncation bound plus the
    # rounding bound, at the eps degree (tol = 0) and with degrees set by tol
    p, q = lam.numerator, lam.denominator
    ml, us = mp.mpf(p) / q, [0] + merged_breakpoints(p, q, 0, p * q).tolist()
    ref = mp.mpf(0)
    for j in range(n):
        for u0, u1 in zip(us[:-1], us[1:]):
            a, h = mp.mpf(j * p * q + u0) / p, mp.mpf(u1 - u0) / p
            f1 = mp.mpf(u0 % q) / q + ml * (mp.mpf(u0 % p) / p)
            x = h / a if a else None
            ref += ml * h if a == 0 else f1 * (mp.log1p(x) - x / (1 + x)) + ml * a * (
                x * (2 + x) / (1 + x) - 2 * mp.log1p(x))
    for tol in (0.0, 1e-10):
        room = [tol / 8]
        head, rounding, trunc = _head_sum([_head_block(p, q, b, n, tol, room) for _, b in _lattice_blocks(p, q)])
        assert abs(head - ref) <= trunc + rounding and trunc <= tol / 8


def a_via_phi1(p: int, q: int) -> float:
    """A(p/q) through phi_1: algebraically identical to a_rational, so it
    checks the phi_1 route rather than giving A an independent one."""
    lam = p / q
    return (
        0.5 * (1.0 - lam) * math.log(lam)
        + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA)
        - phi1_rational(p, q)
        - lam * phi1_rational(q, p)
    )


def test_a_via_phi1_identity():
    for p, q in [(1, 1), (1, 3), (3, 5), (8, 5)]:
        assert abs(a_via_phi1(p, q) - a_rational(p, q)) <= 1e-12


def test_functional_equation_closed_form():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.randint(1, 30)
        p = rng.randint(1, 50 * q)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        lam = p / q
        assert abs(a_rational(p, q) - lam * a_rational(q, p)) < 1e-12 * (1 + lam)


def test_positivity_and_continuity_near_one():
    for rec in farey_scan(12, 0, 1)[1:]:
        assert rec.a_value > 0.0
    diffs = []
    for j in range(4, 14):
        lam = Fraction(2**j + 1, 2**j)
        diffs.append(abs(a_rational(lam.numerator, lam.denominator) - A1))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_cusp_structure():
    # the symmetric second difference is c_log |t| log|t| + c_lin |t| with
    # c_log = 2/(2p); the raw ratio converges only like 1/log(1/t) (the
    # linear D+ - D- term), so the cusp coefficient is extracted from two
    # scales and must be 1/p within 10%
    cfg = QuadratureConfig(tol=1e-10)
    mids = {}
    for p, q in [(1, 1), (1, 2), (2, 3)]:
        base = Fraction(p, q)
        mids[(p, q)] = a_rational(p, q)

        def sym(j: int) -> float:
            t = Fraction(1, 2**j)
            plus = a_quadrature(base + t, cfg).value
            minus = a_quadrature(base - t, cfg).value
            return plus + minus - 2.0 * mids[(p, q)]

        j1, j2 = 14, 20
        t1, t2 = 2.0**-j1, 2.0**-j2
        # solve [t log t, t; ...] c = sym for c_log
        a11, a12, b1 = t1 * math.log(t1), t1, sym(j1)
        a21, a22, b2 = t2 * math.log(t2), t2, sym(j2)
        c_log = (b1 * a22 - b2 * a12) / (a11 * a22 - a21 * a12)
        assert c_log == pytest.approx(1.0 / p, rel=0.10)


def test_local_model_window():
    for p, q in [(1, 1), (1, 2), (2, 3)]:
        lm = local_model(p, q)
        cfg = QuadratureConfig(tol=1e-11)
        for j in (9, 11):
            for sign in (1, -1):
                t = Fraction(sign, 2**j)
                got = a_quadrature(Fraction(p, q) + t, cfg).value
                assert abs(got - lm.predict(float(t))) <= 2.0 * q**4 / p * abs(float(t)) ** 3


def _phi2_tail(lam: Fraction, e: int) -> float:
    """integral_lam^inf phi_2(t) t^-e dt: the Delta integral at x0 = 0 plus the
    exact mean term (pi^2/36) lam^(1-e)/(e-1)."""
    value = delta_power_integral(Fraction(0), lam.denominator, lam, e).real
    return value + PI * PI / 36.0 * float(lam) ** (1 - e) / (e - 1)


def a_phi2_relation_residual(lam: Fraction) -> float:
    """Residual of A(l) = log(l)/2 + (1 - gamma + log 2pi)/2 + phi_2(l)/(2l)
    - l integral_l^inf phi_2(t) t^-3 dt."""
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("a_phi2_relation_residual requires lambda > 0")
    lamf = float(lam)
    lhs = a_rational(lam.numerator, lam.denominator)
    phi2_lam = phi_n(2, lam).value
    rhs = (
        0.5 * math.log(lamf)
        + 0.5 * (1.0 - EULER_GAMMA + LOG_2PI)
        + phi2_lam / (2.0 * lamf)
        - lamf * _phi2_tail(lam, 3)
    )
    return lhs - rhs


def test_a_phi2_relation():
    for lam in (Fraction(1), Fraction(1, 2), Fraction(3)):
        assert abs(a_phi2_relation_residual(lam)) < 1e-6


def test_phi1_tail_integral_displays():
    # phi_1(l) + l phi_1(1/l) - l I(l) = -(l/2) log l + (log 2pi - gamma)/2 l - 1/2
    for p, q in [(3, 1), (1, 2), (2, 3)]:
        lam = p / q
        integral = -phi_n(2, Fraction(p, q)).value / (2.0 * lam * lam) + _phi2_tail(Fraction(p, q), 3)
        lhs = phi1_rational(p, q) + lam * phi1_rational(q, p) - lam * integral
        rhs = -0.5 * lam * math.log(lam) + 0.5 * (LOG_2PI - EULER_GAMMA) * lam - 0.5
        assert abs(lhs - rhs) < 1e-6
        # second display: integral_0^inf (phi_2(l+u)-phi_2(l))/(l+u)^3 du
        second = integral
        want = (
            0.5 * math.log(lam)
            - 0.5 * (LOG_2PI - EULER_GAMMA)
            + 0.5 / lam
            + phi1_rational(q, p)
            + phi1_rational(p, q) / lam
        )
        assert abs(second - want) < 1e-6


def test_delta_functional_equation_reads_one_period():
    # the Delta integrals hold one period of the phi_2 grid and its panel
    # temporaries, not all X periods at once
    delta_functional_equation_residual(1, 3, Fraction(1, 10))  # warm the phi_2 grids
    tracemalloc.start()
    try:
        delta_functional_equation_residual(1, 3, Fraction(1, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_farey_scan_order_one():
    recs = farey_scan(1, 0, 1)
    assert [(r.p, r.q, r.lam) for r in recs] == [(0, 1, 0.0), (1, 1, 1.0)]
    assert recs[0].a_value == 0.0
    assert recs[1].a_value == pytest.approx(A1, rel=1e-14)


def test_farey_scan_order_three_symmetry():
    recs = farey_scan(3, 0, 1)
    assert len(recs) == 5
    for r in recs[1:]:
        lam = r.p / r.q
        assert r.a_value == pytest.approx(lam * a_rational(r.q, r.p), rel=1e-13)


@settings(deadline=None)
@given(
    st.integers(1, 80),
    st.fractions(min_value=0, max_value=3, max_denominator=100),
    st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=100),
)
@example(1, Fraction(0), Fraction(3))  # only integers: every V is V(., 1) = 0
@example(80, Fraction(0), Fraction(1))  # all of F_80
@example(13, Fraction(7, 3), Fraction(1, 2))  # p > q, so V(q mod p, p) with q < p
def test_farey_scan_batched_equals_a_rational(order, lo, width):
    # V by denominator, one kernel call each, gives every record exactly
    recs = farey_scan(order, lo, lo + width)
    for r in recs:
        assert r.a_value == (a_rational(r.p, r.q) if r.p else 0.0)
        assert type(r.a_value) is float


@pytest.mark.parametrize("big_q", [1, 2, 3, 12, 4095, 4096])
def test_a_unit_grid_entries_are_closed_forms_bit_for_bit(big_q):
    # k <= Q/2 is a_rational(p, q); past Q/2, V(p, q) is -V(q - p, q), by oddness
    grid = a_unit_grid(big_q)
    assert grid.shape == (big_q + 1,)
    for k, value in enumerate(grid.tolist()):
        f = Fraction(k, big_q)
        p, q = f.numerator, f.denominator
        if 2 * k <= big_q:
            assert value == a_rational(p, q), k
        else:
            assert value == _a_closed(p, q, -vasyunin_cot(q - p, q) + vasyunin_cot(q % p, p)), k


def test_farey_emitters(tmp_path):
    recs = farey_scan(5, 0, 1)
    path = tmp_path / "scan.csv"
    write_farey_csv(recs, str(path))
    write_farey_csv(recs, str(tmp_path / "scan2.csv"))
    data = path.read_bytes()
    assert data == (tmp_path / "scan2.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "p,q,lambda,A"
    assert len(lines) == len(recs) + 1
    # 17 significant digits round-trip
    for line, rec in zip(lines[1:], recs):
        p, q, lam, a = line.split(",")
        assert (int(p), int(q)) == (rec.p, rec.q)
        assert float(lam) == rec.lam and float(a) == rec.a_value
    svg = tmp_path / "scan.svg"
    write_farey_svg(recs, str(svg))
    text = svg.read_text()
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 600">')
    assert "polyline" in text and "http" not in text.split("xmlns")[1].split(">")[0][40:]


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(tol=1e-14)


def _smooth_oracle(mp, p: int, q: int, periods: int):
    """q^-2 int_0^q h(x) psi'(J + x/q) dx, h = {x}{(p/q)x}, piece by piece in 30 digits."""
    ml, us = mp.mpf(p) / q, [0] + merged_breakpoints(p, q, 0, p * q).tolist()
    total = mp.mpf(0)
    for u0, u1 in zip(us[:-1], us[1:]):
        a, h = mp.mpf(u0) / p, mp.mpf(u1 - u0) / p
        f1 = mp.mpf(u0 % q) / q + ml * (mp.mpf(u0 % p) / p)

        def integrand(tau, a=a, f1=f1):
            return (f1 * tau + ml * tau**2) * mp.psi(1, periods + (a + tau) / q)

        total += mp.quad(integrand, [0, h], method="gauss-legendre")
    return total / q**2


@pytest.mark.parametrize("periods", [1, 2, 8])
def test_smooth_part_against_mpmath(mp, monkeypatch, periods):
    # the blocks' smooth parts, at the default block and in blocks of 5 and
    # 1 pieces (a block's first piece starting in the one before), against
    # the 30-digit integral: within the plan's Taylor, moment and rounding
    # bounds at J = periods
    for p, q in [(3, 7), (13, 4), (47, 41), (2, 3), (1, 1)]:
        ref = _smooth_oracle(mp, p, q, periods)
        for block in (autocorr._BLOCK, 5, 1):
            monkeypatch.setattr(autocorr, "_BLOCK", block)
            n_b = -(-(p + q - 1) // block)
            plan = _smooth_plan(p, q, n_b, 1e-12, [periods])
            if plan is None:  # J = 1 at 1/1, or a reach of a 1-piece block beyond J
                assert periods == 1 or block == 1
                continue
            _, _, degrees, bound = plan
            y_c, tables = _smooth_tables(periods, n_b, -(-max(degrees) // 8) * 8)
            smooth = [(y_c[k], [t[k] for t in tables[: len(degrees)]], degrees) for k in range(n_b)]
            got = math.fsum(
                _head_block(p, q, b, periods, 1e-12, [1e-12 / 8], smooth[k])[2]
                for k, b in _lattice_blocks(p, q)
            )
            monkeypatch.undo()
            assert abs(got - ref) <= bound <= 1e-12 / 8


@pytest.mark.parametrize("block", [1, 5, 64])
def test_blocks_carry_their_sums(monkeypatch, block):
    # small blocks force the paths of lattices longer than a block (the last
    # breakpoint carried into the next block) and of several short periods per block
    for p, q, n in [(3, 7, 5), (13, 4, 3), (47, 41, 2), (1, 1, 40)]:
        one_block = _head_sum([_head_block(p, q, b, n, 0.0, [0.0]) for _, b in _lattice_blocks(p, q)])
        want = a_quadrature(Fraction(p, q), QuadratureConfig(tol=1e-12))
        monkeypatch.setattr(autocorr, "_BLOCK", block)
        head, _, _ = _head_sum([_head_block(p, q, b, n, 0.0, [0.0]) for _, b in _lattice_blocks(p, q)])
        got = a_quadrature(Fraction(p, q), QuadratureConfig(tol=1e-12))
        monkeypatch.undo()
        assert abs(head - one_block[0]) <= 1e-14 * abs(one_block[0])
        assert abs(got.value - want.value) <= got.err + want.err
