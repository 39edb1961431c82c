import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from frac_autocorr.errors import DomainError, ToleranceError
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


@pytest.mark.parametrize("re_s", [-0.99, -0.9, -0.5, -0.1, -0.01])
def test_fracpart_meets_its_bound_over_the_strip(mp, re_s):
    # the docstring's 1e-10 against a 30-digit zeta(-s)/s, from the real axis
    # to |Im s| = 100, where the tail needs the most panels
    for im_s in (0.0, 0.5, 3.0, 20.0, 100.0):
        s = complex(re_s, im_s)
        want = complex(mp.zeta(-mp.mpc(s)) / mp.mpc(s))
        assert abs(mellin_fracpart(s) - want) <= 1e-10, s


def test_fracpart_past_its_panel_cap_raises_before_allocating():
    # near Re s = 0 the tail bound needs more than 2^20 unit panels from
    # |Im s| = 166 on; 5.5e6 at -0.01 + 1000i
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ToleranceError, match="2\\^20") as info:
            mellin_fracpart(-0.01 + 1000j)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and elapsed < 1.0
    assert 1e-10 < info.value.achieved < math.inf


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
