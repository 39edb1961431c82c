import math
import random
from fractions import Fraction

import numpy as np
import pytest

from frac_autocorr.errors import ToleranceError
from frac_autocorr.phi import (
    PhiEvalConfig,
    delta,
    divisor_sieve,
    expansion_coeffs,
    phi1_rational,
    phi2_continuity_scan,
    phi2_tail_integral,
    phi2_tail_weighted,
    phi2_unit_grid,
    phi_at_zero,
    phi_n,
    phi_resum_rational,
    phi_sup_bound,
    tau_sin_partial_sum,
    tau_sin_scan,
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
    r = phi_n(2, 0.5, PhiEvalConfig(tol=2e-7, rational_resum=False))
    assert abs(r.value - (-PI2 / 288.0)) <= r.err + 1e-13
    with pytest.raises(ToleranceError):
        phi_n(2, 0.5, PhiEvalConfig(tol=1e-10, max_terms=10_000, rational_resum=False))


def test_phi_n_float_matches_rational():
    cfg = PhiEvalConfig(tol=1e-9, rational_resum=False)
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
    r = phi2_tail_weighted(Fraction(1, 2), 3)
    grid = phi2_unit_grid(8192)
    ts = np.arange(4096, 40 * 8192 + 1) / 8192.0
    fs = grid[np.arange(4096, 40 * 8192 + 1) % 8192]
    direct = float(np.trapezoid(fs * ts**-3.0, ts))
    direct += phi2_tail_integral(Fraction(0), 40, 3.0)[0].real
    assert abs(r.value - direct) < 1e-6


def test_phi2_continuity_scan():
    for dlt in (0.25, 1.0 / 64.0):
        assert phi2_continuity_scan(dlt, grid=2048) <= 5.0
    vals = [phi2_continuity_scan(2.0**-k, grid=4096) for k in range(3, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b / a < 2.0


def test_tau_sin_values():
    assert tau_sin_partial_sum(100, 0.0) == 0.0
    assert abs(tau_sin_partial_sum(100, math.pi)) < 1e-12
    xs = np.array([0.3, 1.7, 2.9])
    scan = tau_sin_scan(1000, xs)
    for x, v in zip(xs, scan):
        assert tau_sin_partial_sum(1000, float(x)) == pytest.approx(float(v), abs=1e-9)


def test_tau_sin_log_bound():
    xs = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    for k_terms in (100, 1000, 10000):
        sup = float(np.abs(tau_sin_scan(k_terms, xs)).max())
        assert sup / math.log(k_terms) <= 3.0


def test_divisor_sieve():
    tau = divisor_sieve(100)
    assert tau[1] == 1 and tau[12] == 6 and tau[97] == 2 and tau[100] == 9


def test_phi_at_zero():
    assert phi_at_zero(2) == pytest.approx(PI2 / 36.0, rel=1e-12)
    assert phi_at_zero(3) == 0.0
    assert phi_at_zero(4) == pytest.approx(-(PI2 * PI2) / 2700.0, rel=1e-10)
