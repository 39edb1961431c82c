import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import divisor_sieve
from frac_autocorr.errors import ToleranceError
from frac_autocorr.fracpart import max_abs_bernoulli
from frac_autocorr.phi import (
    PhiEvalConfig,
    _binomial_terms,
    _delta_period,
    _linear_panels_power,
    _periods_power,
    delta,
    delta_power_integral,
    expansion_coeffs,
    phi1_rational,
    phi2_tail_integral,
    phi2_unit_grid,
    phi_n,
    phi_resum_rational,
    phi_sup_bound,
)
from frac_autocorr.specfun import EULER_GAMMA, LOG_2PI, PI, hurwitz_zeta_int_vec
from frac_autocorr.vasyunin import vasyunin_cot

PI2 = PI * PI


def test_phi2_special_values():
    assert phi_n(2, Fraction(0)).value == pytest.approx(PI2 / 36.0, rel=1e-13)
    # resummation at 1/2: (1/4)[B_2(1/2) zeta(2,1/2) + B_2(1) zeta(2,1)] = -pi^2/288
    r = phi_n(2, Fraction(1, 2))
    assert r.value == pytest.approx(-PI2 / 288.0, abs=1e-14)
    assert r.err < 1e-13


def test_phi2_truncation_cross_check():
    # direct truncation at K = 10^6 converges like 1/K; compare loosely
    r = phi_n(2, 0.5, PhiEvalConfig(tol=2e-7))
    assert abs(r.value - (-PI2 / 288.0)) <= r.err + 1e-13
    with pytest.raises(ToleranceError):  # 1.7e9 terms, past the 10^7 cap
        phi_n(2, 0.5, PhiEvalConfig(tol=1e-10))


def test_phi_n_float_matches_rational():
    cfg = PhiEvalConfig(tol=1e-9)
    for n in (3, 4):
        for x in (0.25, 0.8125):
            r = phi_n(n, x, cfg)
            exact = phi_resum_rational(n, Fraction(x))
            assert abs(r.value - exact) <= r.err


def test_phi_sup_bound_t25():
    rng = random.Random(13)
    for n in range(2, 7):
        bound = 6.0 * math.factorial(n) * (2.0 * PI) ** (-n)
        assert phi_sup_bound(n) <= bound + 1e-12
        for _ in range(40):
            x = Fraction(rng.randint(0, 64), 64)
            assert abs(phi_resum_rational(n, x)) <= bound


@pytest.mark.parametrize("n", range(2, 9))
def test_phi_sup_bound_against_mpmath(mp, n):
    # the bound's zeta(n) is 63 terms plus the integral tail: at least the
    # 30-digit zeta(n), and within 1e-4 relative of it
    want = mp.mpf(max_abs_bernoulli(n)) * mp.zeta(n)
    assert want <= phi_sup_bound(n) <= want * (1 + mp.mpf("1e-4"))
    # and max|B_n| zeta(n) itself (|B_n| at x = 0 for even n) stays below it
    sup = max(abs(mp.bernpoly(n, mp.mpf(j) / 1024)) for j in range(1025))
    assert sup * mp.zeta(n) <= phi_sup_bound(n)


def test_phi_parity():
    for n in (2, 3, 4):
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 8)):
            a = phi_resum_rational(n, -x)
            b = phi_resum_rational(n, x)
            assert a == pytest.approx((-1) ** n * b, abs=2e-15)


def test_phi_derivative_relation():
    # central difference of phi_3 matches 3 phi_2 away from low-denominator rationals
    h = Fraction(1, 65536)
    for x in (Fraction(1157, 4096), Fraction(2731, 4096)):
        d = (phi_resum_rational(3, x + h) - phi_resum_rational(3, x - h)) / (2.0 * float(h))
        assert d == pytest.approx(3.0 * phi_resum_rational(2, x), abs=1e-6)


def test_phi1_rational_values():
    assert phi1_rational(0, 1) == 0.0
    assert abs(phi1_rational(1, 2)) < 1e-15
    assert phi1_rational(1, 3) == pytest.approx(-PI / (18.0 * math.sqrt(3.0)), abs=1e-14)


def test_delta_values():
    assert delta(1, 3, Fraction(0)).value == 0.0
    d = delta(0, 1, Fraction(1, 2))
    assert d.value == pytest.approx(-PI2 / 32.0, abs=1e-13)


def test_delta_slope_matches_phi1():
    # one-sided slope of Delta at t -> 0+ has coefficient pi V(p,q)/q = 2 phi_1(p/q)
    p, q = 1, 3
    c = expansion_coeffs(p, q)
    assert c.c_plus - c.c_minus == pytest.approx(
        2.0 * (2.0 * math.log(q) + LOG_2PI - EULER_GAMMA - 1.0), rel=1e-13
    )
    # the t-coefficient pi V(p,q)/q equals the termwise derivative 2 phi_1(p/q)
    assert PI * vasyunin_cot(p, q) / q == pytest.approx(2.0 * phi1_rational(p, q), abs=1e-13)
    assert (c.c_plus + c.c_minus) / 2.0 == pytest.approx(PI * vasyunin_cot(p, q), abs=1e-12)


def test_delta_local_model_small_t():
    # Delta_{1,2}(1/1000) against the local model within 10 q^4 t^3
    p, q, t = 1, 2, Fraction(1, 1000)
    tf = float(t)
    c = expansion_coeffs(p, q)
    model = (tf * math.log(tf) + c.c_plus * tf - q * tf * tf / 2.0) / q
    got = delta(p, q, t).value
    assert abs(got - model) <= 10.0 * q**4 * tf**3


def test_delta_local_model_envelope_q_up_to_8():
    # |Delta - model| <= C_frozen * 10 * (q t)^3 / q over the stated window;
    # C_frozen = 2.0 calibrated once over this grid
    worst = 0.0
    for q in range(1, 9):
        for p in [p for p in range(1, q + 1) if math.gcd(p, q) == 1]:
            c = expansion_coeffs(p, q)
            for denom in (10_000, 1_000, 100):
                for sign in (+1, -1):
                    t = Fraction(sign, denom)
                    tf = float(t)
                    cpm = c.c_plus if sign > 0 else c.c_minus
                    model = (abs(tf) * math.log(abs(tf)) + cpm * tf - q * tf * tf / 2.0) / q
                    got = delta(p % q if q > 1 else 0, q, t).value
                    err = abs(got - model)
                    env = 10.0 * (q * abs(tf)) ** 3 / q
                    worst = max(worst, err / env)
    assert worst <= 2.0


def test_expansion_coeffs_values():
    c = expansion_coeffs(1, 1)
    base = LOG_2PI - EULER_GAMMA - 1.0
    assert c.c_plus == pytest.approx(base, rel=1e-12)
    assert c.c_minus == pytest.approx(-base, rel=1e-12)
    assert c.d_plus == pytest.approx(LOG_2PI - EULER_GAMMA - 0.5, rel=1e-12)
    c2 = expansion_coeffs(1, 2)
    assert c2.c_plus == pytest.approx(2.0 * math.log(2.0) + base, rel=1e-12)
    assert c2.quad_plus == 2.0 * (1 + 2 + 1) / 4.0
    assert c2.quad_minus == 2.0 * (1 + 2 - 1) / 4.0


def _phi2_grid_matmul(b: int) -> np.ndarray:
    """O(b^2) reference for phi2_unit_grid: the unreduced resummation
    b^-2 sum_{r=1}^{b} B_2({ri/b}) zeta(2, r/b) as a blocked matmul over
    i <= b/2, mirrored by phi_2(1 - x) = phi_2(x)."""
    r = np.arange(1, b + 1, dtype=np.int64)
    zvals = hurwitz_zeta_int_vec(2, r / b)
    out = np.empty(b, dtype=np.float64)
    half = b // 2
    block = max(1, 2_000_000 // b)
    for start in range(0, half + 1, block):
        rows = np.arange(start, min(start + block, half + 1), dtype=np.int64)
        frac = ((rows[:, None] * r[None, :]) % b) / b
        bv = frac * frac - frac + (1.0 / 6.0)
        out[rows] = bv @ zvals / (b * b)
    for i in range(1, (b + 1) // 2):
        out[b - i] = out[i]
    return out


# every b <= 129, then powers of 2, 3, 5, 7, primes (4093, 9973), smooth and
# mixed composites up to the 16384-point grids the Mellin and Delta checks use
_GRID_SIZES = list(range(1, 130)) + [
    512, 1024, 2187, 2310, 2401, 3125, 4093, 4096, 4374, 6561, 8190, 8192,
    9973, 12288, 16380, 16383, 16384,
]


def test_phi2_unit_grid_matches_matmul():
    for b in _GRID_SIZES:
        err = float(np.abs(phi2_unit_grid(b) - _phi2_grid_matmul(b)).max())
        assert err <= 2e-15, (b, err)


def test_phi2_unit_grid_against_mpmath(mp):
    # phi_2(a/q) = pi^2/(36 q^2) + pi^2/(2 q^2) sum_{j=1}^{q-1} B_2({ja/q}) csc^2(pi j/q)
    # for gcd(a, q) = 1: the Fourier series of k -> B_2({ka/q}) mod q summed
    # against Re Li_2(e(t)) = pi^2 B_2({t}); no Hurwitz value is involved
    def reference(i, b):
        a, q = Fraction(i, b).numerator, Fraction(i, b).denominator
        total = mp.mpf(0)
        for j in range(1, q // 2 + 1):
            x = mp.mpf(j * a % q) / q
            term = (x * x - x + mp.mpf(1) / 6) / mp.sin(mp.pi * j / q) ** 2
            total += term if 2 * j == q else 2 * term
        return mp.pi**2 * (mp.mpf(1) / 36 + total / 2) / q**2

    for b, points in ((16383, (1, 2, 5461, 8191, 12000)), (16384, (1, 4097, 6144, 8191, 16383))):
        grid = phi2_unit_grid(b)
        for i in points:
            assert abs(grid[i] - float(reference(i, b))) <= 1e-15, (b, i)


def test_phi2_grid_consistency():
    grid = phi2_unit_grid(512)
    assert grid[0] == pytest.approx(PI2 / 36.0, rel=1e-12)
    assert grid[256] == pytest.approx(-PI2 / 288.0, abs=1e-14)
    for k in (1, 17, 100, 399):
        assert grid[k] == pytest.approx(phi_resum_rational(2, Fraction(k, 512)), abs=1e-13)


def test_phi2_tail_integral_against_direct():
    # integral_X^inf phi_2(t) t^-a dt vs brute-force grid integration
    big_x, a = 8, 3.0
    val, bound = phi2_tail_integral(Fraction(0), big_x, a)
    grid = phi2_unit_grid(4096)
    ts = np.arange(big_x * 4096, 64 * 4096 + 1) / 4096.0
    fs = grid[np.arange(big_x * 4096, 64 * 4096 + 1) % 4096]
    direct = float(np.trapezoid(fs * ts ** (-a), ts))
    assert abs(val.real - direct) < 5e-7
    assert bound < 1e-6


def test_phi2_tail_weighted():
    # integral_{1/2}^inf phi_2(t) t^-3 dt: the Delta integral at x0 = 0 plus
    # the exact mean term (pi^2/36) lam^-2 / 2
    value = delta_power_integral(Fraction(0), 2, Fraction(1, 2), 3, 16).real + PI2 / 36.0 * 2.0
    grid = phi2_unit_grid(8192)
    ts = np.arange(4096, 40 * 8192 + 1) / 8192.0
    fs = grid[np.arange(4096, 40 * 8192 + 1) % 8192]
    direct = float(np.trapezoid(fs * ts**-3.0, ts))
    direct += phi2_tail_integral(Fraction(0), 40, 3.0)[0].real
    assert abs(value - direct) < 1e-6


def _delta_power_contiguous(x0, q, lo, a, big_x):
    """The integral of ``delta_power_integral`` with the panels on [lo, X]
    sampled as one contiguous grid t = k/b, k = ceil(lo b) .. X b, as the
    Delta functional equation once computed it (test-only oracle)."""
    b = q * max(1, 16384 // q)
    c = phi_resum_rational(2, x0)
    ks = np.arange(math.ceil(lo * b), big_x * b + 1, dtype=np.int64)
    t, f = ks / b, phi2_unit_grid(b)[(ks + x0.numerator * (b // x0.denominator)) % b] - c
    val = _linear_panels_power(t, f, a)
    if (lo * b).denominator != 1:  # partial first panel, exact value at lo
        f_lo = phi_resum_rational(2, x0 + lo) - c
        val += _linear_panels_power(np.array([float(lo), t[0]]), np.array([f_lo, f[0]]), a)
    return val - c * big_x ** (1.0 - a) / (a - 1.0) + phi2_tail_integral(x0, big_x, a)[0]


@pytest.mark.parametrize("x0, q, lo", [
    (Fraction(1, 3), 3, Fraction(10, 9)),  # off the grid, lo > 1
    (Fraction(1, 2), 2, Fraction(1)),
    (Fraction(0), 1, Fraction(2)),
    (Fraction(2, 5), 5, Fraction(3, 7)),  # on the grid (7 | b = 16380), lo < 1
    (Fraction(1, 2), 2, Fraction(5, 7)),  # off the grid, lo < 1
])
@pytest.mark.parametrize("a", [3.0, 4.0, 1.3 - 0.7j])
def test_delta_power_integral_against_contiguous_grid(x0, q, lo, a):
    value = delta_power_integral(x0, q, lo, a, 24)
    assert abs(value - _delta_power_contiguous(x0, q, lo, complex(a), 24)) <= 1e-14 * (1.0 + abs(value))


def _delta_power_loop(x0, q, lo, a, big_x):
    """``delta_power_integral`` with every whole period j < X integrated by its
    own ``_linear_panels_power`` call, as it once computed them (test-only oracle)."""
    b, c, d = _delta_period(x0, q)
    t = np.arange(b + 1) / b
    k_lo = math.ceil(lo * b)
    j_lo, r = divmod(k_lo, b)
    total = _linear_panels_power(t[r:] + j_lo, d[r:], a)
    if k_lo != lo * b:
        d_lo = phi_resum_rational(2, x0 + lo) - c
        total += _linear_panels_power(np.array([float(lo), t[r] + j_lo]), np.array([d_lo, d[r]]), a)
    for j in range(j_lo + 1, big_x):
        total += _linear_panels_power(t + j, d, a)
    return total - c * big_x ** (1.0 - a) / (a - 1.0) + phi2_tail_integral(x0, big_x, a)[0]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]),
    st.one_of(  # a = 1 - s, s in the Mellin strip -1 < Re s < 0
        st.sampled_from([3.0, 4.0]),
        st.builds(lambda re, im: complex(1.0 - re, -im), st.floats(-0.95, -0.05), st.floats(-3.0, 3.0)),
    ),
    st.sampled_from([1, 2, 111]),
    st.integers(1, 64),
    st.integers(1, 96),
)
@example(Fraction(0), 1.5 - 2.0j, 1, 31, 48)  # lo = 1/2, X = 32 as in mellin_delta
@example(Fraction(1, 2), 3.0, 2, 1, 96)  # lo = X - 1 = 2: no whole period left
@example(Fraction(2, 5), 1.05 + 3.0j, 111, 64, 1)
def test_moment_route_against_panel_loop(x0, a, j1, periods, num):
    # lo in (j1 - 1, j1], so the whole periods start at j1 (at j1 + 1 for lo = j1)
    lo, big_x = j1 - 1 + Fraction(num, 96), j1 + periods
    value = delta_power_integral(x0, x0.denominator, lo, a, big_x)
    oracle = _delta_power_loop(x0, x0.denominator, lo, complex(a), big_x)
    assert abs(value - oracle) <= 1e-14 * (1.0 + abs(value))


def _phi2_continuity_scan(dlt: float, grid: int) -> float:
    """sup over the grid of |phi_2(x) - phi_2(y)| for |x - y| <= dlt, divided
    by dlt log(1/dlt): the empirical modulus of continuity of phi_2."""
    vals = phi2_unit_grid(grid)
    w = max(1, round(dlt * grid))
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals, vals[: w + 1]]), w + 1)
    return float((windows.max(axis=1) - windows.min(axis=1)).max()) / (dlt * math.log(1.0 / dlt))


def test_phi2_continuity_scan():
    for dlt in (0.25, 1.0 / 64.0):
        assert _phi2_continuity_scan(dlt, grid=2048) <= 5.0
    vals = [_phi2_continuity_scan(2.0**-k, grid=4096) for k in range(3, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b / a < 2.0


def _tau_sin_partial_sum(n_terms: int, x: float) -> float:
    """sum_{k<=K} tau(k) sin(kx)/k via the divisor-pair rearrangement
    sum_a (1/a) sum_{b<=K/a} sin(abx)/b."""
    parts = []
    for a in range(1, n_terms + 1):
        b = np.arange(1, n_terms // a + 1, dtype=np.float64)
        parts.append(math.fsum(np.sin(a * b * x) / b) / a)
    return math.fsum(parts)


def _tau_sin_scan(n_terms: int, xs: np.ndarray) -> np.ndarray:
    """sum_{k<=K} tau(k) sin(k x)/k over the grid xs, from the tau sieve."""
    k = np.arange(1, n_terms + 1, dtype=np.float64)
    w = divisor_sieve(n_terms)[1:] / k
    out = np.zeros_like(xs, dtype=np.float64)
    block = max(1, 20_000_000 // max(1, xs.size))
    for start in range(0, n_terms, block):
        out += np.sin(np.outer(xs, k[start : start + block])) @ w[start : start + block]
    return out


def test_tau_sin_values():
    assert _tau_sin_partial_sum(100, 0.0) == 0.0
    assert abs(_tau_sin_partial_sum(100, math.pi)) < 1e-12
    xs = np.array([0.3, 1.7, 2.9])
    scan = _tau_sin_scan(1000, xs)
    for x, v in zip(xs, scan):
        assert _tau_sin_partial_sum(1000, float(x)) == pytest.approx(float(v), abs=1e-9)


def test_tau_sin_log_bound():
    xs = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    for k_terms in (100, 1000, 10000):
        sup = float(np.abs(_tau_sin_scan(k_terms, xs)).max())
        assert sup / math.log(k_terms) <= 3.0


def test_divisor_sieve():
    tau = divisor_sieve(100)
    assert tau[1] == 1 and tau[12] == 6 and tau[97] == 2 and tau[100] == 9


def test_phi_at_zero():
    # phi_n(0) = B_n zeta(n), through the resummation at 0
    assert phi_n(2, Fraction(0)).value == pytest.approx(PI2 / 36.0, rel=1e-12)
    assert phi_n(3, Fraction(0)).value == 0.0
    assert phi_n(4, Fraction(0)).value == pytest.approx(-(PI2 * PI2) / 2700.0, rel=1e-10)


def _panels_exact(mp, t, f, a):
    """The interpolant's integral from the global antiderivative per panel,
    at 40 digits, where its cancellation costs nothing."""
    with mp.workdps(40):
        am = mp.mpc(a)
        ts = [mp.mpf(float(x)) for x in t]
        fs = [mp.mpf(float(x)) for x in f]
        w = [x ** (1 - am) for x in ts]
        ref = mp.mpf(0)
        for i in range(len(ts) - 1):
            c1 = (fs[i + 1] - fs[i]) / (ts[i + 1] - ts[i])
            c0 = fs[i] - c1 * ts[i]
            ref += c0 * (w[i + 1] - w[i]) / (1 - am)
            ref += c1 * (ts[i + 1] * w[i + 1] - ts[i] * w[i]) / (2 - am)
        return complex(ref)


@pytest.mark.parametrize("shift, k0, k1, b, a", [
    pytest.param(0, 1, 64, 32, 3.0, id="0-3.0"),
    pytest.param(0, 1, 64, 32, 1.3 - 0.4j, id="0-(1.3-0.4j)"),
    pytest.param(5, 1, 64, 32, 1.5 - 2.0j, id="5-(1.5-2j)"),
    pytest.param(1, 0, 16384, 16384, 1.5 - 2.0j, id="1-(1.5-2j)-b16384"),
    pytest.param(30, 0, 16384, 16384, 1.5 - 2.0j, id="30-(1.5-2j)-b16384"),
    pytest.param(10000, 0, 16384, 16384, 1.5 - 2.0j, id="10000-(1.5-2j)-b16384"),
])
def test_linear_panels_power_against_mpmath(mp, shift, k0, k1, b, a):
    # the piecewise-linear interpolant of f on t = shift + k/b, k0 <= k <= k1,
    # integrated against t^-a at 40 digits; on the short grids also by mpmath
    # quadrature panel by panel.  The panel terms cancel, so the error is
    # measured against the integral of |f| t^-Re(a), not the (possibly much
    # smaller) result.  Far from 0 (h/t ~ 2e-6 at t = 30, 6e-9 at t = 1e4) a
    # global antiderivative loses digits, and so does the closed form of P1
    t = shift + np.arange(k0, k1 + 1) / b
    f = np.random.default_rng(7).standard_normal(t.size)
    ref = _panels_exact(mp, t, f, a)
    scale = float(np.sum(np.abs(f) * t ** (-np.real(a)))) / b
    if t.size <= 64:
        quad = mp.mpf(0)
        for i in range(t.size - 1):
            t0, t1, f0, f1 = (mp.mpf(float(x)) for x in (t[i], t[i + 1], f[i], f[i + 1]))
            quad += mp.quad(lambda x: (f0 + (f1 - f0) * (x - t0) / (t1 - t0)) * x ** (-mp.mpc(a)), [t0, t1])
        assert abs(complex(quad) - ref) <= 1e-20 * scale
    assert abs(_linear_panels_power(t, f, a) - ref) <= 1e-11 * scale


@pytest.mark.parametrize("b, j1, big_x, a", [
    (32, 1, 8, 3.0),
    (32, 1, 8, 1.5 - 2.0j),
    (47, 2, 8, 4.0),
    (64, 1, 5, 1.05 + 0.3j),
    (100, 3, 8, 1.3 - 0.7j),
    (256, 1, 4, 1.7 + 2.0j),
    (256, 7, 8, 3.0),
    (32, 8, 8, 3.0),  # no whole period
])
def test_moment_route_against_mpmath(mp, b, j1, big_x, a):
    # one period of periodic samples d (d_b = d_0), repeated over j = j1 .. X-1,
    # against the 40-digit panels of the contiguous grid; with r = 1/(b j1) up
    # to 1/32 the route takes about twice the series orders of b = 16384
    d = np.random.default_rng(b + j1).standard_normal(b + 1)
    d[b] = d[0]
    k = np.arange((big_x - j1) * b + 1)
    t, f = j1 + k / b, d[k % b]
    scale = float(np.sum(np.abs(f) * t ** (-np.real(a)))) / b
    ref = _panels_exact(mp, t, f, a)
    assert abs(_periods_power(d, complex(a), j1, big_x) - ref) <= 1e-14 * scale


def test_binomial_terms_is_the_smallest_order_within_its_tail(mp):
    # sum_{m >= M} binom(beta + m - 1, m) rho^m, the tail of (1 - rho)^-beta, at
    # 50 digits: at most 1e-17 at the returned M and above it one term earlier
    # over the orders and ratios the moment route and the panels meet
    with mp.workdps(50):
        for beta in (0.5, 1.0, 2.3, 4.6, 7.0, 12.0):
            for rho in (1 / 3, 1 / 5, 1 / 223, 1 / 32, 1 / 16384, 1 / (2 * 10**5 + 1), 1e-9):
                m_ord = _binomial_terms(beta, rho)
                tails, term, head = [], mp.mpf(1), (1 - mp.mpf(rho)) ** -mp.mpf(beta)
                for m in range(m_ord + 1):
                    tails.append(head)
                    head -= term
                    term *= mp.mpf(rho) * (beta + m) / (m + 1)
                assert tails[m_ord] <= 1e-17 < tails[m_ord - 1], (beta, rho, m_ord)
