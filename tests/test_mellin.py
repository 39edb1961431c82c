from fractions import Fraction

import pytest

from frac_autocorr.errors import DomainError
from frac_autocorr.estermann import g1
from frac_autocorr.mellin_verify import (
    a_unit_grid,
    mellin_autocorr,
    mellin_delta,
    mellin_fracpart,
    mellin_identity_residual,
)
from frac_autocorr.specfun import PI, riemann_zeta


def test_fracpart_closed_form():
    # integral_0^inf {t} t^{s-1} dt = zeta(-s)/s on the strip
    v = mellin_fracpart(-0.5)
    want = riemann_zeta(0.5) / (-0.5)
    assert abs(v - want) < 1e-10
    assert v.real == pytest.approx(2.9207090176191755, abs=1e-9)
    for s in (-0.25, -0.75, -0.5 + 2j, -0.3 - 1.5j):
        v = mellin_fracpart(s)
        want = riemann_zeta(-complex(s)) / complex(s)
        assert abs(v - want) < 1e-9, s


def test_fracpart_scaling_rule():
    # M[x -> f(lambda x)](s) = lambda^{-s} М f(s)
    for lam in (Fraction(2), Fraction(1, 3)):
        for s in (-0.5, -0.4 + 1j):
            base = mellin_fracpart(s)
            scaled = mellin_fracpart(s, scale=lam)
            want = float(lam) ** (-complex(s)) * base
            assert abs(scaled - want) < 1e-6


def test_strip_enforced():
    for bad in (lambda: mellin_fracpart(0.5), lambda: mellin_autocorr(-1.0), lambda: mellin_delta(0.0, 1, 2)):
        with pytest.raises(DomainError):
            bad()
    with pytest.raises(DomainError):
        mellin_identity_residual("autocorr", -1.5)


def test_autocorr_value_at_minus_half():
    v = mellin_autocorr(-0.5)
    z = riemann_zeta(0.5)
    want = -z * z / ((-0.5) * 0.5)
    assert want.real == pytest.approx(8.5305411656019583, abs=1e-8)
    assert abs(v - want) < 1e-5


def test_delta_identity_examples():
    assert mellin_identity_residual("delta", -0.3, (1, 2)) < 1e-5
    assert mellin_identity_residual("delta", -0.5, (0, 1)) < 1e-5
    # delta(0,1) at s = -1/2 equals -(1/pi^2) G_1(-1/2; 0/1) explicitly
    v = mellin_delta(-0.5, 0, 1)
    want = -g1(-0.5, 0, 1) / (PI * PI)
    assert abs(v - want) < 1e-5 * (1.0 + abs(want))


def test_target_validation():
    with pytest.raises(ValueError):
        mellin_delta(-0.5, 2, 4)
    with pytest.raises(ValueError):
        mellin_identity_residual("bogus", -0.5)


@pytest.mark.parametrize("scale", [0, -1, Fraction(-1, 3), 0.0, float("inf"), float("nan")])
def test_fracpart_scale_must_be_positive_and_finite(scale):
    # scale 0 once divided by zero and -1 took the log of a negative
    with pytest.raises(DomainError, match="scale"):
        mellin_fracpart(-0.5, scale)


@pytest.mark.parametrize("q", [0, -3])
def test_delta_denominator_must_be_positive(q):
    # q = 0 once divided by zero and q = -3 reached isqrt
    with pytest.raises(DomainError, match="q >= 1"):
        mellin_delta(-0.5, 1, q)


def test_a_unit_grid_spot_values():
    from frac_autocorr.autocorr import a_rational

    g = a_unit_grid(4096)
    assert g[0] == 0.0
    assert g[4096] == pytest.approx(a_rational(1, 1), rel=1e-14)
    for k in (17, 1024, 2048, 3000):
        f = Fraction(k, 4096)
        assert g[k] == pytest.approx(a_rational(f.numerator, f.denominator), abs=1e-12)
