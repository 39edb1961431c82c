"""Numeric Mellin transforms on vertical lines for three specific targets.

No general framework: the fractional part, the autocorrelation A, and the
local increments Delta_{p,q} each get a bespoke integrator, one public
function each, and each checks the strip -1 < Re s < 0 itself.

* ``mellin_fracpart``: piecewise closed forms plus a Bernoulli-chain tail,
  with an error below 1e-10.
* ``mellin_autocorr``: A sampled once on a dyadic grid of rationals
  (``autocorr.a_unit_grid``), panel-exact integration of the interpolant on
  [1/32, 1], and closed forms beyond, using A(x) = x A(1/x) and
  A(u) = log(u)/2 + c0 + rho(u) with the rho integrals reduced exactly to
  integration-by-parts tails of phi_2.
* ``mellin_delta``: a local t log t model in closed form on the cusp window
  [0, W], and ``phi.delta_power_integral`` from W on, its 31 whole periods as
  sum_n c_n b^-(n+1) sum_m binom(-a-n, m) Z_(n+m) (F_m/(n+1) + G_m/(n+2)) from
  one period's moments F_m, G_m (a = 1 - s, M ~ 50 by a 1e-17 tail bound).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .autocorr import a_unit_grid
from .errors import DomainError
from .estermann import g1
from .phi import (
    _c_plus,
    _delta_period,
    _linear_panels_power,
    delta_power_integral,
    phi2_tail_integral,
    phi2_unit_grid,  # noqa: F401  (binding the perfbench tracer wraps)
)
from .specfun import EULER_GAMMA, LOG_2PI, PI, riemann_zeta

_GRID_Q = 1 << 14
_V_CUT = 32  # the [0, 1/V] end of the unit interval is handled analytically


def _require_strip(s: complex) -> complex:
    s = complex(s)
    if not -1.0 < s.real < 0.0:
        raise DomainError(f"Mellin strip is -1 < Re s < 0, got {s}")
    return s


# ----------------------------------------------------------------------
# fracpart
# ----------------------------------------------------------------------


def mellin_fracpart(s: complex | float, scale: Fraction | int = 1) -> complex:
    """integral_0^inf {scale t} t^{s-1} dt on the strip, with an error below 1e-10."""
    s = _require_strip(s)
    lam = float(scale)
    sig = s.real
    sup_b3 = 0.04811252243246881
    margin = abs((s - 1.0) * (s - 2.0)) / (6.0 * lam * lam) * sup_b3 / (2.0 - sig)
    big_n = max(8, math.ceil((margin / 1e-10) ** (1.0 / (2.0 - sig))))
    big_t = big_n / lam
    n = np.arange(0, big_n, dtype=np.float64)
    a = n / lam
    b = (n + 1.0) / lam
    bp = np.exp(s * np.log(b))
    bp1 = np.exp((s + 1.0) * np.log(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        ap = np.exp(s * np.log(a))
        ap1 = np.exp((s + 1.0) * np.log(a))
    head = lam * (bp1 - np.where(n == 0, 0.0, ap1)) / (s + 1.0) - n * (
        bp - np.where(n == 0, 0.0, ap)
    ) / s
    total = complex(head.sum())
    ts = cmath.exp(s * math.log(big_t))
    total += -ts / (2.0 * s)  # mean 1/2 of the periodic part
    total += -ts / big_t / (12.0 * lam)  # B_2 boundary term; B_3 term vanishes
    return total


# ----------------------------------------------------------------------
# autocorr
# ----------------------------------------------------------------------


def _int_power_tail(v: int, a: complex) -> complex:
    """integral_V^inf u^{-a} du."""
    return v ** (1.0 - a) / (a - 1.0)


def _int_power_log_tail(v: int, a: complex) -> complex:
    """integral_V^inf u^{-a} log u du."""
    return v ** (1.0 - a) * (math.log(v) / (a - 1.0) + 1.0 / (a - 1.0) ** 2)


def _rho_tail(v: int, a: complex) -> complex:
    """integral_V^inf rho(u) u^{-a} du for rho(u) = A(u) - log(u)/2 - c0.

    Reduced exactly (Fubini on the defining double integral) to
    W(a+1) (1/2 - 1/(2-a)) + V^{2-a} W(3) / (2-a) with
    W(b) = integral_V^inf phi_2(t) t^{-b} dt.  The bounds of W are dropped:
    no radius, checked only through the Mellin identity residual.
    """
    w_a1, _ = phi2_tail_integral(Fraction(0), v, a + 1.0)
    w_3, _ = phi2_tail_integral(Fraction(0), v, 3.0)
    return w_a1 * (0.5 - 1.0 / (2.0 - a)) + v ** (2.0 - a) * w_3 / (2.0 - a)


def mellin_autocorr(s: complex | float) -> complex:
    """MA(s) = integral_0^1 A(x) (x^{s-1} + x^{-s-2}) dx, the second kernel
    coming from folding [1, inf) back with A(x) = x A(1/x).  No radius:
    checked only through ``mellin_identity_residual``."""
    s = _require_strip(s)
    c0 = 0.5 * (1.0 - EULER_GAMMA + LOG_2PI)
    grid = a_unit_grid(_GRID_Q)
    k0 = _GRID_Q // _V_CUT
    ks = np.arange(k0, _GRID_Q + 1, dtype=np.int64)
    x = ks / _GRID_Q
    f = grid[ks]
    mid = _linear_panels_power(x, f, 1.0 - s) + _linear_panels_power(x, f, s + 2.0)
    ends = 0.0 + 0.0j
    for a in (1.0 - s, s + 2.0):
        ends += 0.5 * _int_power_log_tail(_V_CUT, a) + c0 * _int_power_tail(_V_CUT, a)
        ends += _rho_tail(_V_CUT, a)
    return mid + ends


# ----------------------------------------------------------------------
# delta
# ----------------------------------------------------------------------

_DELTA_PERIODS = 32  # X of delta_power_integral


def mellin_delta(s: complex | float, p: int, q: int) -> complex:
    """M Delta_{p,q}(s) = integral_0^inf Delta_{p,q}(t) t^{s-1} dt.

    The cusp model (t log t + C+ t - q t^2/2)/q is integrated in closed
    form over its whole validity window [0, W], W ~ 1/(2q), and only the
    smooth remainder Delta - model is handled on the grid there; this kills
    the trapezoid bias of the t log t curvature against the singular kernel.
    From W on, ``delta_power_integral``.  No radius: checked only through
    ``mellin_identity_residual``.
    """
    s = _require_strip(s)
    if math.gcd(p, q) != 1:
        raise ValueError("mellin_delta requires coprime (p, q)")
    x0 = Fraction(p % q, q)
    b, _, d = _delta_period(x0, q)
    k_w = max(4, b // (2 * q))
    w = k_w / b
    cp = _c_plus(p % q, q)
    # closed form of the model over [0, W]
    w1 = w ** (s + 1.0)
    total = (
        w1 * (math.log(w) / (s + 1.0) - 1.0 / (s + 1.0) ** 2)
        + cp * w1 / (s + 1.0)
        - 0.5 * q * w ** (s + 2.0) / (s + 2.0)
    ) / q
    # remainder Delta - model on (0, W]: starts at the first grid cell, the
    # skipped [0, 1/b] piece is O(q^3 / b^{s+3})
    tw = np.arange(1, k_w + 1) / b
    model = (tw * np.log(tw) + cp * tw - 0.5 * q * tw * tw) / q
    total += _linear_panels_power(tw, d[1 : k_w + 1] - model, 1.0 - s)
    return complex(total + delta_power_integral(x0, q, Fraction(k_w, b), 1.0 - s, _DELTA_PERIODS))


# ----------------------------------------------------------------------
# closed-form identities
# ----------------------------------------------------------------------


def mellin_identity_residual(which: str, s: complex | float, params=None) -> float:
    """Relative residual of the closed-form Mellin identities.

    which="autocorr": M A(s) against -zeta(-s) zeta(s+1) / (s (s+1)).
    which="delta":    M Delta_{p,q}(s) against -G_1(s; p/q) / pi^2.
    """
    s = _require_strip(s)
    if which == "autocorr":
        numeric = mellin_autocorr(s)
        closed = -riemann_zeta(-s) * riemann_zeta(s + 1.0) / (s * (s + 1.0))
    elif which == "delta":
        p, q = params
        numeric = mellin_delta(s, p, q)
        closed = -g1(s, p, q) / (PI * PI)
    else:
        raise ValueError(f"unknown identity {which!r}")
    return abs(numeric - closed) / (1.0 + abs(closed))
