import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import divisor_sieve
from frac_autocorr.checks import strip_point
from frac_autocorr.errors import DomainError, NonCoprimeError, PoleError
from frac_autocorr.estermann import (
    ecos,
    esin,
    estermann,
    functional_equation_residual,
    g0,
    g1,
    laurent_coefficient,
)
from frac_autocorr.phi import _c_plus
from frac_autocorr.specfun import EULER_GAMMA, LOG_2PI, PI, gamma_fn, hurwitz_zeta, riemann_zeta
from frac_autocorr.vasyunin import modular_inverse, vasyunin_cot


def _estermann_series(s: complex, h: int, k: int, n_terms: int) -> complex:
    """Truncated Dirichlet series sum tau(n) e^{2 pi i n h/k} n^{-s} (Re s > 1)."""
    tau = divisor_sieve(n_terms)[1:].astype(np.float64)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    phase = np.exp((2j * PI * (h % k)) * (np.arange(1, n_terms + 1, dtype=np.int64) % k) / k)
    return complex((tau * phase * n ** (-complex(s))).sum())


def _g1_residue_polynomial(h: int, k: int, t: float) -> float:
    """Sum of the residue contributions of G_1 t^{-s} at s = -2 and s = -1:
    (pi^2/2) t^2 - (pi^2/k) t (log t + C+(h, k)), C+ as in ``phi._c_plus``."""
    return 0.5 * PI * PI * t * t - PI * PI / k * t * (math.log(t) + _c_plus(h, k))


def _tilde(s: complex, h: int, k: int, part) -> complex:
    """The symmetric forms sin(pi s/2) Gamma(s) (2 pi/k)^{-s} Esin(s; h/k)
    (part = esin) and cos(pi s/2) Gamma(s) (2 pi/k)^{-s} Ecos(s; h/k) (part = ecos)."""
    trig = cmath.sin if part is esin else cmath.cos
    return trig(PI * s / 2.0) * gamma_fn(s) * cmath.exp(-s * math.log(2.0 * PI / k)) * part(s, h, k)


def _estermann_direct(s: complex, h: int, k: int) -> tuple[complex, float]:
    """The O(k^2) double sum k^{-2s} sum_{j,l} e(jlh/k) z(s, j/k) z(s, l/k)
    and the scale |k^{-2s}| (sum_j |z|)^2.  The row z(s, j/k) is the same
    array call estermann makes, so only the DFT differs from the sum."""
    j = np.arange(1, k + 1, dtype=np.int64)
    zv = hurwitz_zeta(s, j / k)
    roots = np.exp(2j * PI * np.arange(k) / k)
    double = (roots[(np.outer(j, j) * (h % k)) % k] * np.outer(zv, zv)).sum()
    kpow = cmath.exp(-2.0 * s * math.log(k))
    return complex(kpow * double), abs(kpow) * float(np.abs(zv).sum()) ** 2


def test_non_coprime_points_raise_non_coprime_error():
    for h, k in [(2, 4), (0, 6), (-3, 9)]:
        with pytest.raises(NonCoprimeError):
            estermann(0.5, h, k)
    with pytest.raises(DomainError):
        estermann(0.5, 1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 512), st.integers(-2048, 2048), st.integers(0, 2**32 - 1))
@example(1, 0, 0)  # zeta(s)^2
@example(512, -1, 1)
@example(509, 508, 2)  # a prime k, h = -1 mod k
@example(1, 0, 1265)  # Re s near -2, where scalar and array Hurwitz calls differ by 1e-14
def test_dft_double_sum_matches_direct(k, h, seed):
    # one DFT of the Hurwitz row against the O(k^2) sum; the DFT rounding is
    # about eps log k relative to (sum_j |z(s, j/k)|)^2 |k^{-2s}|
    while math.gcd(h, k) != 1:
        h += 1
    s = strip_point(random.Random(seed))
    want, scale = _estermann_direct(s, h, k)
    assert abs(estermann(s, h, k) - want) <= 1e-14 * scale


def test_squared_zeta_at_k1():
    z = riemann_zeta(2.0)
    assert estermann(2.0, 0, 1) == pytest.approx(z * z, rel=1e-13)
    assert estermann(2.0, 0, 1).real == pytest.approx(PI**4 / 36.0, rel=1e-12)


def test_value_at_zero():
    assert estermann(0.0, 1, 2) == pytest.approx(0.25 + 0.0j, abs=1e-13)
    for h, k in [(1, 3), (2, 5), (3, 7), (5, 8)]:
        hbar = modular_inverse(h, k)
        want = 0.25 - 0.5j * vasyunin_cot(hbar, k)
        assert abs(estermann(0.0, h, k) - want) < 1e-12


def test_dirichlet_series_consistency():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.randint(1, 12)
        hs = [h for h in range(1, k + 1) if math.gcd(h, k) == 1]
        h = rng.choice(hs)
        s = complex(rng.uniform(3.0, 4.0), rng.uniform(-2.0, 2.0))
        direct = _estermann_series(s, h, k, 1_000_000)
        assert abs(estermann(s, h, k) - direct) < 1e-8
    assert abs(estermann(3.0, 1, 3) - _estermann_series(3.0, 1, 3, 1_000_000)) < 1e-9


def test_pole_and_size_errors():
    with pytest.raises(PoleError):
        estermann(1.0, 1, 3)
    assert math.isfinite(abs(estermann(2.0, 1, 512)))
    for k in (513, 1024):
        with pytest.raises(DomainError, match="k <= 512"):
            estermann(2.0, 1, k)


def test_esin_ecos_basic():
    s = 2.5 + 0.3j
    assert abs(esin(s, 0, 1)) == 0.0
    z = riemann_zeta(s)
    assert ecos(s, 0, 1) == pytest.approx(z * z, rel=1e-12)
    for h, k in [(1, 3), (2, 5), (3, 7)]:
        assert abs(ecos(0.0, h, k) - 0.25) < 1e-12


def test_esin_at_zero_sign():
    # Im E(0; h/k) = -(1/2) V(hbar, k): the proof's sign, not the statement's
    for h, k in [(1, 4), (2, 5), (3, 7)]:
        hbar = modular_inverse(h, k)
        assert esin(0.0, h, k).real == pytest.approx(-0.5 * vasyunin_cot(hbar, k), abs=1e-12)


def test_esin_at_one():
    # Esin(1; h/k) = -(pi^2 / 2k) V(h, k); removable point via epsilon offsets
    v = esin(1.0, 1, 4)
    assert v.real == pytest.approx(PI * PI / 16.0, abs=1e-8)
    assert abs(v.imag) < 1e-9
    for h, k in [(1, 3), (2, 5)]:
        want = -(PI * PI / (2.0 * k)) * vasyunin_cot(h, k)
        assert esin(1.0, h, k).real == pytest.approx(want, abs=1e-8)


def test_g0_values():
    for h, k in [(1, 3), (2, 5), (4, 7)]:
        assert abs(g0(0.0, h, k) - 0.25) < 1e-12
    z = riemann_zeta(0.5)
    assert g0(0.5, 0, 1) == pytest.approx(cmath.cos(PI * 0.25) * z * z, rel=1e-12)


def test_g0_laurent_model_near_pole():
    h, k = 1, 3
    s = 1.0 + 1e-3
    val = g0(s, h, k)
    model = -(PI / (2.0 * k)) * (
        1.0 / (s - 1.0) + 2.0 * EULER_GAMMA - 2.0 * math.log(k) - PI * vasyunin_cot(h, k)
    )
    assert abs(val - model) / (1.0 + abs(val)) < 1e-4


def test_estermann_pole_structure():
    # epsilon-ring extraction of the double pole of E at s = 1
    for k in (2, 3, 5):
        h = 1
        c2 = laurent_coefficient(lambda s: estermann(s, h, k), 1.0 + 0j, -2, eps=1e-3)
        c1 = laurent_coefficient(lambda s: estermann(s, h, k), 1.0 + 0j, -1, eps=1e-3)
        assert abs(c2 - 1.0 / k) < 1e-4
        assert abs(c1 - (2.0 * EULER_GAMMA - 2.0 * math.log(k)) / k) < 1e-4


def test_g1_poles_carry_laurent_data():
    with pytest.raises(PoleError) as e1:
        g1(-1.0, 1, 2)
    data = e1.value.laurent
    assert data is not None and data.coefficients[0][0] == -2
    assert abs(data.coefficients[0][1] - PI * PI / 2.0) < 1e-12
    with pytest.raises(PoleError) as e2:
        g1(-2.0, 1, 2)
    assert e2.value.laurent.coefficients[0] == (-1, PI * PI / 2.0)
    with pytest.raises(PoleError):
        g1(0.0, 1, 2)


@pytest.mark.parametrize("h, k", [(1, 3), (2, 5), (3, 7)])
def test_g1_laurent_data_at_minus_one_matches_cauchy_integral(h, k):
    # the stated orders -2 and -1 against a discrete Cauchy integral of G_1
    with pytest.raises(PoleError) as e:
        g1(-1.0, h, k)
    for order, coeff in e.value.laurent.coefficients:
        numeric = laurent_coefficient(lambda s: g1(s, h, k), -1.0 + 0j, order, eps=1e-2)
        assert abs(coeff - numeric) < 1e-9, (order, coeff, numeric)


def test_g1_residue_extraction():
    res = laurent_coefficient(lambda s: g1(s, 1, 3), -2.0 + 0j, -1, eps=1e-2)
    assert abs(res - PI * PI / 2.0) < 1e-6


def test_g1_residue_polynomial():
    # k = 1, t = 1
    want = PI * PI / 2.0 - PI * PI * (LOG_2PI - EULER_GAMMA - 1.0)
    assert _g1_residue_polynomial(1, 1, 1.0) == pytest.approx(want, rel=1e-12)
    # t -> 0+ limit is 0
    assert abs(_g1_residue_polynomial(1, 1, 1e-12)) < 1e-9
    # matches the numerically extracted residues at -1 and -2 combined
    h, k, t = 1, 2, 0.5
    res2 = laurent_coefficient(lambda s: g1(s, h, k), -2.0 + 0j, -1, eps=1e-2)
    c2 = laurent_coefficient(lambda s: g1(s, h, k), -1.0 + 0j, -2, eps=1e-2)
    c1 = laurent_coefficient(lambda s: g1(s, h, k), -1.0 + 0j, -1, eps=1e-2)
    numeric = res2.real * t * t + (c2.real * (-math.log(t)) + c1.real) * t
    assert _g1_residue_polynomial(h, k, t) == pytest.approx(numeric, abs=1e-5)


@pytest.mark.parametrize("which,s,h,k,tol", [
    ("G1", -1.5, 1, 3, 1e-8),
    ("E", 0.5 + 2j, 2, 5, 1e-8),
    ("Esin", 1e-60, 1, 4, 1e-9),
])
def test_functional_equation_examples(which, s, h, k, tol):
    assert functional_equation_residual(which, s, h, k) < tol


def test_esin_zero_links_v_and_esin_at_one():
    # Esin(0; h/k) = k/pi^2 * Esin(1; hbar/k), both sides independent
    for h, k in [(1, 4), (2, 5)]:
        hbar = modular_inverse(h, k)
        lhs = esin(0.0, h, k)
        rhs = k / (PI * PI) * esin(1.0, hbar, k)
        assert abs(lhs - rhs) < 1e-9


def test_tilde_symmetry():
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(2, 20)
        hs = [h for h in range(1, k) if math.gcd(h, k) == 1]
        h = rng.choice(hs)
        hbar = modular_inverse(h, k)
        s = strip_point(rng)
        for part in (esin, ecos):
            a, b = _tilde(s, h, k, part), _tilde(1.0 - s, hbar, k, part)
            assert abs(a - b) / (1.0 + abs(a)) < 1e-8
