import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frac_autocorr import autocorr
from frac_autocorr.autocorr import (
    QuadratureConfig,
    _head_block,
    _head_sum,
    _lattice_blocks,
    _period_stats,
    a_phi2_relation_residual,
    a_quadrature,
    a_rational,
    delta_functional_equation_residual,
    farey_scan,
    local_model,
    write_farey_csv,
    write_farey_svg,
)
from frac_autocorr.errors import DomainError, ToleranceError
from frac_autocorr.piecewise import merged_breakpoints
from frac_autocorr.phi import phi1_rational, phi2_tail_weighted, phi_n
from frac_autocorr.specfun import EULER_GAMMA, LOG_2PI, PI

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
    r = a_quadrature(1e-6, QuadratureConfig(tol=1e-3, tail_order=1))
    assert r.value < 2e-3
    # |A(lambda)| <= ||phi||^2 sqrt(lambda) specialised
    assert r.value <= A1 * math.sqrt(1e-6) + r.err


def test_a_quadrature_tolerance_error():
    with pytest.raises(ToleranceError) as e:
        a_quadrature(Fraction(1), QuadratureConfig(tol=1e-13, max_periods=3))
    assert e.value.achieved > 0


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
    # 2^22 + 1 pieces a period; tol 1e-10 needs 544 periods, 15 fit in 2^26 pieces
    start = time.perf_counter()
    with pytest.raises(ToleranceError, match="budget of 2\\^26 pieces") as e:
        a_quadrature(Fraction(2**22 + 1))
    assert time.perf_counter() - start < 1.0
    assert 1e-10 < e.value.achieved < math.inf


def test_a_quadrature_irrational_brackets():
    lam = math.sqrt(2.0)
    r1 = a_quadrature(lam, QuadratureConfig(tol=1e-4, tail_order=1))
    want = a_rational(665857, 470832)  # convergent of sqrt(2), 1.1e-12 away
    assert abs(r1.value - want) <= r1.err + 1e-6
    r2 = a_quadrature(lam, QuadratureConfig(tol=1e-4, tail_order=2))
    assert abs(r2.value - want) <= r2.err


def test_a_quadrature_float_lambda_covers_convergent():
    # cutoff edges near T = 1/tol lie less than 1 apart, where log(b / a) cancels
    lam = 1.0 / math.sqrt(2.0)
    r = a_quadrature(lam, QuadratureConfig(tol=1e-7))
    ref = a_rational(6625109, 9369319)  # a convergent of the binary64 lam, 4e-15 away
    assert abs(r.value - ref) <= r.err


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


@pytest.mark.parametrize(
    "lam, block, rebuilt",
    [(Fraction(3, 7), 1 << 14, 0), (Fraction(3, 7) - Fraction(1, 2**13), 64, 0), (Fraction(307, 256), 64, 4)],
    ids=["one-block", "one-pass", "short-prefix"],
)
def test_lattice_built_once_then_short_prefix(monkeypatch, lam, block, rebuilt):
    # every block is built once; the prefix of blocks whose head stopped short
    # of the final period count (307/256: four of nine) is built again
    p, q = lam.numerator, lam.denominator
    calls = []

    def traced(p_, q_, lo, hi):
        out = merged_breakpoints(p_, q_, lo, hi)
        calls.append(out.size)
        return out

    monkeypatch.setattr(autocorr, "merged_breakpoints", traced)
    monkeypatch.setattr(autocorr, "_BLOCK", block)
    cfg = QuadratureConfig(tol=1e-12)
    value = a_quadrature(lam, cfg)
    monkeypatch.undo()
    n_blocks = -(-(p + q - 1) // block)
    assert len(calls) == n_blocks + rebuilt and sum(calls[:n_blocks]) == p + q - 1
    assert calls[n_blocks:] == calls[:rebuilt] and max(calls) <= block + 2
    # against the default block, which holds the whole period
    assert abs(value.value - a_quadrature(lam, cfg).value) <= value.err


@settings(max_examples=200, deadline=None)
@given(
    lam=st.fractions(Fraction(1, 20), 20, max_denominator=50),
    x=st.floats(1e-9, 0.09),
    h_frac=st.floats(0.001, 1.0),
    sa=st.floats(0.0, 1.0),
    sb=st.floats(0.0, 1.0),
)
@example(lam=Fraction(1), x=0.09, h_frac=1.0, sa=0.0, sb=0.0)
@example(lam=Fraction(20), x=1e-9, h_frac=1.0, sa=1.0, sb=1.0)
def test_head_series_against_mpmath(mp, lam, x, h_frac, sa, sb):
    # one piece of width h at t = a = h/x with no breakpoint inside it:
    # {t} + h <= 1 and {lam t} + lam h <= 1 at its left edge
    p, q = lam.numerator, lam.denominator
    h = h_frac * min(1.0, q / p)
    fa, fb = sa * (1.0 - h), sb * (1.0 - p / q * h)
    f0, f1 = fa * fb, fb + p / q * fa
    d = h * p  # width and left edge in u = p t
    piece = tuple(np.array([v]) for v in (d / x, d, f0, f1))
    got, _, bound = _head_sum([_head_block(p, q, piece, 0, 1)])
    with mp.workdps(40):
        a, mh, ml = mp.mpf(d / x) / p, mp.mpf(d) / p, mp.mpf(p) / q
        ref = mp.quad(lambda tau: (f0 + f1 * tau + ml * tau**2) / (a + tau) ** 2, [0, mh])
        assert abs(got - ref) <= bound + 8 * sys.float_info.epsilon * abs(ref)


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


def test_a_phi2_relation():
    for lam in (Fraction(1), Fraction(1, 2), Fraction(3)):
        assert abs(a_phi2_relation_residual(lam)) < 1e-6


def test_phi1_tail_integral_displays():
    # phi_1(l) + l phi_1(1/l) - l I(l) = -(l/2) log l + (log 2pi - gamma)/2 l - 1/2
    for p, q in [(3, 1), (1, 2), (2, 3)]:
        lam = p / q
        tail = phi2_tail_weighted(Fraction(p, q), 3)
        integral = -phi_n(2, Fraction(p, q)).value / (2.0 * lam * lam) + tail.value
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


@pytest.mark.parametrize(
    "p,q,t",
    [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 4)), (1, 3, Fraction(1, 10))],
)
def test_delta_functional_equation(p, q, t):
    assert delta_functional_equation_residual(p, q, t) < 1e-6


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
    with pytest.raises(ValueError):
        QuadratureConfig(tail_order=3)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_periods"):
            QuadratureConfig(max_periods=bad)
    # the smallest allowed value reaches the period-count guard, not a division by zero
    with pytest.raises(ToleranceError) as info:
        a_quadrature(Fraction(1), QuadratureConfig(max_periods=1))
    assert 0.0 < info.value.achieved < math.inf


def _period_stats_oracle(p: int, q: int):
    """Exact (Fraction) per-period statistics of the rational quadrature tail:
    (mu, nu, sup_f, sup_g) with the piecewise accumulations done in exact
    arithmetic over the lattice of one period."""
    lam = Fraction(p, q)
    pieces = []
    u_prev = 0
    for ui in merged_breakpoints(p, q, 0, p * q).tolist():
        fp0 = Fraction(u_prev % p, p)
        fq0 = Fraction(u_prev % q, q)
        pieces.append((Fraction(ui - u_prev, p), fp0 * fq0, fq0 + lam * fp0))
        u_prev = ui
    ig = [lam * dt**3 / 3 + f1 * dt**2 / 2 + f0 * dt for dt, f0, f1 in pieces]
    mu = sum(ig) / q
    f_acc = Fraction(0)
    max_f = Fraction(0)
    ifs = []
    for (dt, f0, f1), g_int in zip(pieces, ig):
        ifs.append(f_acc * dt + lam * dt**4 / 12 + f1 * dt**3 / 6 + (f0 - mu) * dt**2 / 2)
        f_acc += g_int - mu * dt
        max_f = max(max_f, abs(f_acc))
    nu = sum(ifs) / q
    g_acc = Fraction(0)
    max_g = Fraction(0)
    for (dt, _, _), if_int in zip(pieces, ifs):
        g_acc += if_int - nu * dt
        max_g = max(max_g, abs(g_acc))
    maxgap = max(dt for dt, _, _ in pieces)
    return mu, nu, max_f + maxgap, max_g + maxgap * (max_f + abs(nu) + maxgap)


def test_period_stats_against_fraction_oracle(monkeypatch):
    # the default block holds every period here; blocks of 1, 5 and 64
    # pieces split the lattice slices mid-period
    eps = sys.float_info.epsilon
    for q in range(1, 30):
        for p in range(1, 60):
            if math.gcd(p, q) != 1:
                continue
            mu, nu, sup_f, sup_g = _period_stats_oracle(p, q)
            assert mu == Fraction(1, 4) + Fraction(1, 12 * p * q)
            assert nu == Fraction(-(p + q), 24 * p)
            for block in (autocorr._BLOCK, 1, 5, 64):
                monkeypatch.setattr(autocorr, "_BLOCK", block)
                *_, (_, (got_mu, got_nu, got_f, got_g)) = _period_stats(p, q, _lattice_blocks(p, q))
                assert got_mu == float(mu)
                # the bound of the former float64 sum; the closed form is rounded once
                assert abs(got_nu - float(nu)) <= 4 * eps * (p + q) * abs(float(nu))
                assert got_f >= sup_f and got_g >= sup_g
            monkeypatch.undo()


@pytest.mark.parametrize("block", [1, 5, 64])
def test_blocks_carry_their_sums(monkeypatch, block):
    # small blocks force the paths of lattices longer than a block (sums and
    # maxima carried between blocks) and of several short periods per block
    eps = sys.float_info.epsilon
    for p, q, n in [(3, 7, 5), (13, 4, 3), (47, 41, 2), (1, 1, 40)]:
        whole = _lattice_blocks(p, q)
        one_block = _head_sum([_head_block(p, q, b, 0, n) for b in whole()])
        _, nu, sup_f, sup_g = _period_stats_oracle(p, q)
        monkeypatch.setattr(autocorr, "_BLOCK", block)
        parts = []
        for b, (_, got_nu, got_f, got_g) in _period_stats(p, q, _lattice_blocks(p, q)):
            parts.append(_head_block(p, q, b, 0, n))
        head, _, _ = _head_sum(parts)
        monkeypatch.undo()
        assert abs(got_nu - float(nu)) <= 4 * eps * (p + q) * abs(float(nu))
        assert sup_f <= got_f <= 1.000002 * float(sup_f) + 2e-12
        assert sup_g <= got_g <= 1.000002 * float(sup_g) + 2e-12
        assert abs(head - one_block[0]) <= 1e-14 * abs(one_block[0])
