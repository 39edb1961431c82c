"""Numeric Mellin transforms on vertical lines for three specific targets.

No general framework: the fractional part, the autocorrelation A, and the
local increments Delta_{p,q} each get a bespoke integrator, one public
function each, and each checks the strip -1 < Re s < 0 itself.

* ``mellin_fracpart``: unit panels in closed form plus an Euler-Maclaurin
  tail, within 1e-10 of zeta(-s)/s wherever that takes at most 2^20 panels
  (ToleranceError past them: |Im s| > 166 at Re s -> 0, 339 at -0.1, 5924 at -0.5).
* ``mellin_autocorr``: A sampled once on a dyadic grid of rationals
  (``autocorr.a_unit_grid``), panel-exact integration of the interpolant on
  [1/32, 1], and closed forms beyond, using A(x) = x A(1/x) and
  A(u) = log(u)/2 + c0 + rho(u) with the rho integrals reduced exactly to
  tails of phi_2, each one ``phi.delta_power_integral`` plus its mean term
  (W(3) once for both kernels).
* ``mellin_delta``: a local t log t model in closed form on the cusp window
  [0, W], and ``phi.delta_power_integral`` from W on, all its whole periods as
  sum_n c_n b^-(n+1) sum_m binom(-a-n, m) Z_(n+m) (F_m/(n+1) + G_m/(n+2)) from
  one period's moments F_m, G_m and Z_e = zeta(a + e, 3/2) (a = 1 - s, M ~ 50).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .autocorr import a_unit_grid
from .errors import DomainError, ToleranceError
from .estermann import g1
from .phi import (
    _c_plus,
    _delta_period,
    _linear_panels_power,
    delta_power_integral,
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


# Panels of mellin_fracpart: 2^20 take about 0.1 s and 90 MiB (s = -0.01 + 166i).
_MAX_FRACPART_PANELS = 1 << 20


def mellin_fracpart(s: complex | float) -> complex:
    """integral_0^inf {t} t^{s-1} dt on the strip, with an error below 1e-10.

    The unit panels up to N in closed form, then the Euler-Maclaurin tail
    through B_2, whose B_3 remainder is at most |(s-1)(s-2)| sup|B_3|
    N^(Re s - 2)/(6 (2 - Re s)).  Past N = 2^20 it raises ToleranceError,
    with that bound at 2^20 as ``achieved``, before allocating.
    """
    s = _require_strip(s)
    sig = s.real
    sup_b3 = 0.04811252243246881
    margin = abs((s - 1.0) * (s - 2.0)) / 6.0 * sup_b3 / (2.0 - sig)
    big_n = max(8, math.ceil((margin / 1e-10) ** (1.0 / (2.0 - sig))))
    if big_n > _MAX_FRACPART_PANELS:
        raise ToleranceError(
            f"mellin_fracpart({s}): an error below 1e-10 needs {big_n} panels (max 2^20)",
            achieved=margin * _MAX_FRACPART_PANELS ** (sig - 2.0),
        )
    lb = np.log(np.arange(1.0, big_n + 1.0))
    p0, p1 = np.exp(s * lb), np.exp((s + 1.0) * lb)  # (n+1)^s, (n+1)^(s+1); diffs from 0^s = 0
    head = np.diff(p1, prepend=0.0) / (s + 1.0) - np.arange(big_n) * np.diff(p0, prepend=0.0) / s
    total = complex(head.sum())
    ts = cmath.exp(s * math.log(big_n))
    total += -ts / (2.0 * s)  # mean 1/2 of the periodic part
    total += -ts / big_n / 12.0  # B_2 boundary term; B_3 term vanishes
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


def _w_tail(v: int, b: complex) -> complex:
    """W(b) = integral_V^inf phi_2(t) t^{-b} dt: the Delta integral at x0 = 0
    plus the mean term phi_2(0) V^(1-b)/(b-1), phi_2(0) = pi^2/36."""
    return delta_power_integral(Fraction(0), 1, v, b) + PI * PI / 36.0 * _int_power_tail(v, b)


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
    # [V, inf) of A(u) = log(u)/2 + c0 + rho(u); rho's part reduced exactly (Fubini on the
    # defining double integral) to W(a+1) (1/2 - 1/(2-a)) + V^(2-a) W(3)/(2-a)
    ends, w_3 = 0.0 + 0.0j, _w_tail(_V_CUT, 3.0)  # one W(3) for both kernels
    for a in (1.0 - s, s + 2.0):
        ends += 0.5 * _int_power_log_tail(_V_CUT, a) + c0 * _int_power_tail(_V_CUT, a)
        ends += _w_tail(_V_CUT, a + 1.0) * (0.5 - 1.0 / (2.0 - a)) + _V_CUT ** (2.0 - a) * w_3 / (2.0 - a)
    return mid + ends


# ----------------------------------------------------------------------
# delta
# ----------------------------------------------------------------------


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
    if q < 1 or math.gcd(p, q) != 1:
        raise DomainError(f"mellin_delta requires coprime (p, q), q >= 1, got ({p}, {q})")
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
    return complex(total + delta_power_integral(x0, q, Fraction(k_w, b), 1.0 - s))


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
