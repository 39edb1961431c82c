import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from frac_autocorr.errors import DomainError, PoleError
from frac_autocorr.specfun import (
    _BERNOULLI_2N,
    BERNOULLI_POLYS,
    _PSI_SHIFT,
    _bernoulli_coeff_tables,
    _is_nonpositive_integer,
    EULER_GAMMA,
    LOG_2PI,
    PI,
    cot_pi_frac_table,
    digamma,
    digamma_vec,
    gamma_fn,
    hurwitz_zeta,
    hurwitz_zeta_int_vec,
    log_gamma,
    riemann_zeta,
    sinpi,
    trigamma_taylor,
)


# Scalar oracles reached only from these tests.


def trigamma(z: complex | float):
    """psi'(z) = sum_{n>=0} 1/(n+z)^2."""
    want_real = not isinstance(z, complex)
    w = complex(z)
    if _is_nonpositive_integer(w):
        raise PoleError(f"trigamma pole at z={w}", location=w)
    if w.real < 0.5:
        # psi'(z) + psi'(1-z) = pi^2 / sin^2(pi z)
        sp = sinpi(complex(w))
        val = PI * PI / (sp * sp) - _trigamma_half(1.0 - w)
    else:
        val = _trigamma_half(w)
    return val.real if want_real and val.imag == 0.0 else val


def _trigamma_half(z: complex) -> complex:
    acc = 0.0 + 0.0j
    while abs(z) < _PSI_SHIFT:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    s = inv + 0.5 * inv2
    p = inv * inv2
    for j, b in enumerate(_BERNOULLI_2N[:8], start=1):
        s += b * p
        p *= inv2
    return acc + s


def j_function(z: complex | float):
    """J(z) = integral_0^inf ({t} - 1/2)/(t+z) dt on the cut plane.

    Evaluated through its closed form in log Gamma.
    """
    want_real = not isinstance(z, complex)
    w = complex(z)
    val = -log_gamma(w) + (w - 0.5) * cmath.log(w) - w + 0.5 * LOG_2PI
    return val.real if want_real and val.imag == 0.0 else val


def _gauss(f, a, b, n=80):
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * sum(wi * f(ti) for ti, wi in zip(t, w))


# ----------------------------------------------------------------------
# digamma / trigamma
# ----------------------------------------------------------------------


def test_bernoulli_numbers_are_the_exact_table_rounded():
    # the classical B_2, B_4, ..., B_24 are the table's constant terms,
    # and the floats of the series are those terms rounded once
    known = [
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
        Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
        Fraction(-236364091, 2730),
    ]
    assert [b[0] for b in BERNOULLI_POLYS[2::2]] == known
    assert BERNOULLI_POLYS[12][0] == Fraction(-691, 2730)
    assert _BERNOULLI_2N == tuple(float(b[0]) for b in BERNOULLI_POLYS[2::2])
    assert _BERNOULLI_2N == tuple(float(b.numerator) / float(b.denominator) for b in known)


def _bernoulli_coeff_tables_by_derivative(nmax):
    """b_0 .. b_nmax from b_n' = n b_{n-1} with integral_0^1 b_n = 0 for n >= 1,
    the former import-time recurrence (test-only oracle)."""
    tables = [[Fraction(1)]]
    for n in range(1, nmax + 1):
        coeffs = [Fraction(0)] + [Fraction(n) * c / (k + 1) for k, c in enumerate(tables[-1])]
        coeffs[0] = -sum(c / (k + 1) for k, c in enumerate(coeffs) if k > 0)
        tables.append(coeffs)
    return tables


def test_bernoulli_table_from_tangent_numbers_equals_the_derivative_recurrence():
    assert BERNOULLI_POLYS == _bernoulli_coeff_tables_by_derivative(24)
    for nmax in range(24):
        rows = _bernoulli_coeff_tables(nmax)
        assert rows == _bernoulli_coeff_tables_by_derivative(nmax), nmax
        assert all(type(c) is Fraction for row in rows for c in row)


def test_digamma_paper_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert digamma(3.0) == pytest.approx(1.0 + 0.5 - EULER_GAMMA, abs=1e-14)
    # psi(1/2) from the multiplication formula with n = 2, z = 1/2:
    # psi(1) = log 2 + (psi(1/2) + psi(1))/2
    derived = 2.0 * (digamma(1.0) - math.log(2.0)) - digamma(1.0)
    assert digamma(0.5) == pytest.approx(derived, abs=1e-13)


def test_digamma_against_mpmath(mp):
    rng = random.Random(7)
    for _ in range(60):
        z = complex(rng.uniform(-20, 50), rng.uniform(-50, 50))
        if abs(z.imag) < 0.3 and z.real < 1:
            continue
        want = complex(mp.digamma(mp.mpc(z)))
        got = digamma(z)
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))
    # large argument
    assert abs(digamma(1e6) - complex(mp.digamma(1e6))) <= 1e-13 * 14.0


def test_digamma_pole():
    with pytest.raises(PoleError) as e:
        digamma(-3.0)
    assert e.value.location == -3.0


def test_digamma_recurrence_and_reflection():
    rng = random.Random(3)
    for _ in range(100):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if min(abs(z - round(z.real)), abs(z + 10)) < 0.1 or abs(z.imag) < 0.05:
            continue
        assert abs(digamma(1 + z) - digamma(z) - 1.0 / z) < 1e-12 * (1 + abs(digamma(z)))
        refl = digamma(1 - z) - digamma(z) - PI / cmath.tan(PI * z)
        assert abs(refl) < 1e-11 * (1.0 + abs(digamma(z)))


def test_digamma_multiplication():
    rng = random.Random(11)
    for n in range(2, 9):
        for _ in range(15):
            z = complex(rng.uniform(0.1, 5), rng.uniform(-3, 3))
            lhs = digamma(n * z)
            rhs = math.log(n) + sum(digamma(z + k / n) for k in range(n)) / n
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_digamma_sum_at_rationals(n):
    total = math.fsum(digamma(k / n) for k in range(1, n + 1))
    assert total == pytest.approx(-n * (math.log(n) + EULER_GAMMA), abs=1e-10)


def test_trigamma(mp):
    assert trigamma(1.0) == pytest.approx(PI * PI / 6.0, rel=1e-13)
    for z in [0.25, 1.75, 3.5 + 2j, -1.3 + 0.7j]:
        want = complex(mp.polygamma(1, mp.mpc(z)))
        assert abs(trigamma(z) - want) <= 1e-12 * (1 + abs(want))
    a = np.array([0.1, 0.5, 1.0, 7.3, 200.0])
    got = trigamma_taylor(a, 0)[0]
    for ai, gi in zip(a, got):
        assert gi == pytest.approx(float(mp.polygamma(1, mp.mpf(ai))), rel=1e-12)


def test_trigamma_vec_against_mpmath(mp):
    # one shift for the whole array: a in (0, 1] (the phi_2 grids) and in
    # [1, 65] (the quadrature's expansion centres), in one call and alone
    rng = random.Random(5)
    a = np.array([rng.uniform(1e-6, 1.0) for _ in range(200)] + [1.0, 2**-30]
                 + [rng.uniform(1.0, 65.0) for _ in range(200)] + [65.0])
    pairs = [*zip(a, trigamma_taylor(a, 0)[0]), *((x, trigamma_taylor(np.array([x]), 0)[0, 0]) for x in a[::20])]
    for x, got in pairs:
        assert got == pytest.approx(float(mp.polygamma(1, mp.mpf(x))), rel=1e-13)


def test_trigamma_taylor_against_mpmath(mp):
    # psi^(i+1)(a)/i! within 4 (i+1) u of the 30-digit value, at the centres
    # J + (k + 1/2)/n_b of the quadrature's expansions, up to degree 48
    u = 2.0**-53
    for periods, n_b, degree in [(1, 1, 48), (2, 3, 24), (8, 64, 8), (64, 2, 16)]:
        centres = periods + (np.arange(n_b) + 0.5) / n_b
        got = trigamma_taylor(centres, degree)
        for k in {0, n_b - 1}:
            for i in range(degree + 1):
                want = mp.polygamma(i + 1, mp.mpf(centres[k])) / mp.factorial(i)
                assert abs(got[i, k] - want) <= 4 * (i + 1) * u * abs(want)
    with pytest.raises(DomainError):
        trigamma_taylor(np.array([1.0, 0.0]), 2)


def _digamma_vec_listed(a: np.ndarray) -> np.ndarray:
    """digamma_vec with every term made up front: the same TwoSum sum of the
    same terms, in the same order."""
    n = max(0, math.ceil(_PSI_SHIFT - a.min()))
    z = a + n
    inv2 = 1.0 / (z * z)
    acc, err, t, v = (np.zeros_like(a) for _ in range(4))
    for j in range(8, 0, -1):
        t += _BERNOULLI_2N[j - 1] / (2 * j)
        t *= inv2
    for x in [*(np.divide(-1.0, a + j) for j in range(n)), np.log(z), -0.5 / z, np.negative(t)]:
        np.add(acc, x, out=t)
        np.subtract(t, acc, out=v)
        x -= v
        acc -= np.subtract(t, v, out=v)
        acc += x
        err += acc
        acc, t = t, acc
    return acc + err


def test_digamma_vec_holds_a_few_rows():
    # a row of 2^14 - 1 digammas (n = 12 shift terms) holds at most eight
    # row-sized arrays at once, and its bits are those of the terms made up front
    a = np.arange(1, 2**14) / 2**14
    want = _digamma_vec_listed(a)
    tracemalloc.start()
    try:
        got = digamma_vec(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * a.nbytes + (64 << 10)
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Hurwitz / Riemann zeta
# ----------------------------------------------------------------------


def test_hurwitz_paper_values():
    assert hurwitz_zeta(0.0, 0.25) == pytest.approx(0.25, abs=1e-13)
    assert hurwitz_zeta(2.0, 1.0).real == pytest.approx(PI * PI / 6.0, rel=1e-13)


def test_hurwitz_two_parameterization_consistency():
    # independent Euler-Maclaurin oracle with different truncation orders
    def em(s, a, nshift, order):
        bern = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510]
        acc = sum((a + n) ** (-s) for n in range(nshift))
        w = a + nshift
        acc += w ** (1 - s) / (s - 1) + 0.5 * w ** (-s)
        poch, wpow, fact = s, w ** (-s - 1), 2.0
        for j in range(1, order + 1):
            acc += bern[j - 1] / fact * poch * wpow
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            wpow /= w * w
            fact *= (2 * j + 1) * (2 * j + 2)
        return acc

    v1 = em(-0.5, 1 / 3, 25, 6)
    v2 = em(-0.5, 1 / 3, 40, 8)
    assert abs(v1 - v2) < 1e-12
    assert abs(hurwitz_zeta(-0.5, 1 / 3) - v2) < 1e-12


def test_hurwitz_against_mpmath(mp):
    # Euler-Maclaurin loses ~eps * (shift)^|Re s| absolute accuracy for
    # Re s < 0 (head cancellation), hence the tiered tolerance
    rng = random.Random(5)
    pts = [complex(rng.uniform(-2, 8), rng.uniform(-100, 100)) for _ in range(40)]
    pts += [complex(rng.uniform(-6, 8), rng.uniform(-3, 3)) for _ in range(40)]
    for s in pts:
        if abs(s - 1) < 0.1:
            continue
        a = rng.uniform(0.05, 1.0)
        want = complex(mp.zeta(mp.mpc(s), mp.mpf(a)))
        got = hurwitz_zeta(s, a)
        tol = 1e-12 if s.real >= -2 else 5e-9
        assert abs(got - want) <= tol * (1.0 + abs(want)), (s, a)
    # the array form, as used for a whole row zeta(s, j/k), at the same bound
    for s in (pts[0], pts[45], -1.5 + 0.5j):
        a = np.array([rng.uniform(0.05, 1.0) for _ in range(6)] + [1.0, 1 / 7])
        got = hurwitz_zeta(s, a)
        assert got.shape == a.shape and got.dtype == np.complex128
        tol = 1e-12 if s.real >= -2 else 5e-9
        for ai, gi in zip(a, got):
            want = complex(mp.zeta(mp.mpc(s), mp.mpf(float(ai))))
            assert abs(gi - want) <= tol * (1.0 + abs(want)), (s, ai)


def test_hurwitz_array_domain_checked_entrywise():
    for bad in (0.0, -0.25, 1.5, float("nan")):
        with pytest.raises(DomainError):
            hurwitz_zeta(0.5, np.array([0.25, bad, 1.0]))
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, np.array([0.25, 0.5]))


def test_riemann_values(mp):
    assert riemann_zeta(2.0).real == pytest.approx(PI * PI / 6.0, rel=1e-13)
    assert riemann_zeta(0.0).real == pytest.approx(-0.5, abs=1e-13)
    assert riemann_zeta(0.5).real == pytest.approx(float(mp.zeta(0.5)), rel=1e-13)
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_hurwitz_int_vec():
    a = np.array([0.2, 0.5, 1.0])
    for n in (2, 3, 4, 5):
        got = hurwitz_zeta_int_vec(n, a)
        for ai, gi in zip(a, got):
            assert gi == pytest.approx(hurwitz_zeta(float(n), ai).real, rel=1e-12)


# ----------------------------------------------------------------------
# log Gamma and Gamma
# ----------------------------------------------------------------------


def test_log_gamma_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    # sum_{k=1}^{2} log Gamma(k/2) = log Gamma(1/2) = (1/2) log pi
    assert log_gamma(0.5) + log_gamma(1.0) == pytest.approx(0.5 * math.log(PI), rel=1e-13)


def test_log_gamma_against_scipy_and_mpmath(mp):
    from scipy.special import loggamma as scipy_loggamma

    rng = random.Random(13)
    for _ in range(80):
        z = complex(rng.uniform(-10, 20), rng.uniform(-20, 20))
        if z.imag == 0 and z.real <= 0:
            continue
        if abs(z.imag) < 1e-3 and z.real < 0.5:
            continue
        got = log_gamma(z)
        assert abs(got - scipy_loggamma(z)) < 1e-12 * (1 + abs(got))
        assert abs(got - complex(mp.loggamma(mp.mpc(z)))) < 1e-12 * (1 + abs(got))


def test_log_gamma_multiplication_identity():
    rng = random.Random(17)
    for n in (2, 3, 5):
        for _ in range(20):
            z = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
            lhs = log_gamma(n * z)
            rhs = (
                -0.5 * (n - 1) * LOG_2PI
                + (n * z - 0.5) * math.log(n)
                + sum(log_gamma(z + k / n) for k in range(n))
            )
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))
        total = sum(log_gamma(Fraction(k, n)) for k in range(1, n + 1))
        assert abs(total - (0.5 * (n - 1) * LOG_2PI - 0.5 * math.log(n))) < 1e-13


def test_gamma_fn_reflection():
    assert gamma_fn(0.5).real == pytest.approx(math.sqrt(PI), rel=1e-13)
    assert gamma_fn(-1.5).real == pytest.approx(4.0 * math.sqrt(PI) / 3.0, rel=1e-12)
    with pytest.raises(PoleError):
        gamma_fn(-2.0)


def test_laurent_limit_of_weighted_gamma():
    # lim_{s->-1} [(2pi)^{-s} Gamma(s) + 2pi/(s+1)] = 2pi (gamma - 1 + log 2pi)
    def f(s):
        return (2.0 * PI) ** (-s) * gamma_fn(s) + 2.0 * PI / (s + 1.0)

    vals = []
    for eps in (1e-4, 1e-5):
        vals.append(0.5 * (f(-1.0 + eps) + f(-1.0 - eps)).real)
    rich = (100.0 * vals[1] - vals[0]) / 99.0  # eps^2 Richardson with ratio 10
    want = 2.0 * PI * (EULER_GAMMA - 1.0 + LOG_2PI)
    assert rich == pytest.approx(want, abs=1e-6)


# ----------------------------------------------------------------------
# J and J_{1,2}
# ----------------------------------------------------------------------


def test_j_function_values():
    assert j_function(1.0) == pytest.approx(0.5 * LOG_2PI - 1.0, abs=1e-13)
    assert abs(j_function(1.0)) <= (1.0 + PI * math.sqrt(2.0)) / 12.0
    # integer form at N = 4: -log N! + (N + 1/2) log N - N + log(2 pi)/2
    want = -math.log(24.0) + 4.5 * math.log(4.0) - 4.0 + 0.5 * LOG_2PI
    assert j_function(4.0) == pytest.approx(want, rel=1e-13)


def test_j_function_against_quadrature_oracle():
    # piecewise-exact integral of ({t} - 1/2)/(t + z) plus a two-term
    # Bernoulli tail; an independent closed-form route per unit interval
    z = 10.0
    n_end = 20000
    parts = []
    for n in range(n_end):
        a, b = float(n), float(n + 1)
        parts.append((n + 0.5 + z) * math.log((b + z) / (a + z)) - 1.0)
    head = -math.fsum(parts)  # integral of (t-n-1/2)/(t+z) = (b-a) - (n+1/2+z)log(..)
    tail = -1.0 / (12.0 * (n_end + z))
    assert head + tail == pytest.approx(j_function(z), abs=1e-10)


# ----------------------------------------------------------------------
# Raabe-type integrals (t13)
# ----------------------------------------------------------------------


def test_raabe_integral():
    # integral_0^1 log Gamma = log(2 pi)/2, via log Gamma(x) = log Gamma(1+x) - log x
    val = _gauss(lambda x: log_gamma(1.0 + x), 0.0, 1.0) + 1.0
    assert val == pytest.approx(0.5 * LOG_2PI, abs=1e-8)


def test_x_psi_integral():
    # integral_0^1 x psi(x) dx = -log(2 pi)/2, via x psi(x) = x psi(1+x) - 1
    val = _gauss(lambda x: x * digamma(1.0 + x), 0.0, 1.0) - 1.0
    assert val == pytest.approx(-0.5 * LOG_2PI, abs=1e-8)


def test_x2_trigamma_integral():
    # integral_0^1 x^2 psi'(x) dx = log 2pi - gamma; x^2 psi'(x) = 1 + x^2 psi'(1+x)
    val = 1.0 + _gauss(lambda x: x * x * trigamma(1.0 + x), 0.0, 1.0)
    assert val == pytest.approx(LOG_2PI - EULER_GAMMA, abs=1e-8)


@pytest.mark.parametrize("u", [0.1, 0.33, 0.75])
def test_partial_x_trigamma_integral(u):
    # integral_u^1 x psi'(x) dx = log Gamma(u) - u psi(u) - gamma, as stated;
    # the residual is zero (no constant offset)
    val = math.log(1.0 / u) + _gauss(lambda x: x * trigamma(1.0 + x), u, 1.0)
    want = log_gamma(u) - u * digamma(u) - EULER_GAMMA
    assert val == pytest.approx(want, abs=1e-8)


# ----------------------------------------------------------------------
# cotangent
# ----------------------------------------------------------------------


def test_cot_values():
    # cot(k pi/q) = table[k - 1], the numerator reduced to |k| <= q/2 before the tangent
    assert cot_pi_frac_table(4)[0] == pytest.approx(1.0, rel=1e-14)
    assert abs(cot_pi_frac_table(2)[0]) < 1e-15
    assert abs(cot_pi_frac_table(4)[1]) < 1e-15
    assert cot_pi_frac_table(3)[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    assert cot_pi_frac_table(4)[2] == pytest.approx(-1.0, rel=1e-14)
    big = 509
    assert cot_pi_frac_table(big)[507] == pytest.approx(1.0 / math.tan(-PI / big), rel=1e-12)
    assert cot_pi_frac_table(1).size == 0  # no k in 1 .. q-1, so no pole at k = 0
