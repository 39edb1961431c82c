"""Numeric Mellin transforms on vertical lines for three specific targets.

No general framework: the fractional part, the autocorrelation A, and the
local increments Delta_{p,q} each get a bespoke integrator.

* fracpart: piecewise closed forms plus a Bernoulli-chain tail (certified).
* autocorr: A sampled once on a dyadic grid of rationals, panel-exact
  integration of the interpolant on [1/32, 1], and closed forms beyond,
  using A(x) = x A(1/x) and A(u) = log(u)/2 + c0 + rho(u) with the rho
  integrals reduced exactly to integration-by-parts tails of phi_2.
* delta: the phi_2 unit grid with the kernel summed over integer periods,
  a local t log t model below the first grid cells, and phi tails.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .autocorr import QuadratureConfig, a_rational
from .errors import DomainError
from .estermann import g1
from .phi import (
    _linear_panels_power,
    phi2_grid_samples,
    phi2_tail_integral,
    phi2_unit_grid,  # noqa: F401  (binding the perfbench tracer wraps)
    phi_resum_rational,
)
from .rational_core import divisors
from .specfun import EULER_GAMMA, LOG_2PI, PI, riemann_zeta
from .vasyunin import vasyunin_cot

_GRID_Q = 1 << 14
_A_BLOCK = 1 << 17  # elements per V-row block of a_unit_grid, so its temporaries stay small
_V_CUT = 32  # the [0, 1/V] end of the unit interval is handled analytically


@dataclass(frozen=True)
class MellinTarget:
    kind: str  # "fracpart" | "autocorr" | "delta"
    params: tuple[int, int] | None = None  # (p, q) for kind="delta"
    scale: Fraction = Fraction(1)  # fracpart only: transform of x -> {scale x}

    def __post_init__(self):
        if self.kind not in ("fracpart", "autocorr", "delta"):
            raise ValueError(f"unknown Mellin target {self.kind!r}")
        if self.kind == "delta" and (
            self.params is None or math.gcd(*self.params) != 1
        ):
            raise ValueError("delta target requires coprime params (p, q)")


def _require_strip(s: complex) -> complex:
    s = complex(s)
    if not -1.0 < s.real < 0.0:
        raise DomainError(f"Mellin strip is -1 < Re s < 0, got {s}")
    return s


# ----------------------------------------------------------------------
# fracpart
# ----------------------------------------------------------------------


def _mellin_fracpart(s: complex, scale: Fraction, tol: float) -> complex:
    """integral_0^inf {scale t} t^{s-1} dt on the strip."""
    lam = float(scale)
    sig = s.real
    sup_b3 = 0.04811252243246881
    margin = abs((s - 1.0) * (s - 2.0)) / (6.0 * lam * lam) * sup_b3 / (2.0 - sig)
    big_n = max(8, math.ceil((margin / tol) ** (1.0 / (2.0 - sig))))
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


@functools.lru_cache(maxsize=2)
def a_unit_grid(big_q: int = _GRID_Q) -> np.ndarray:
    """A(k/Q) for k = 0 .. Q via the closed form, batched per denominator."""
    from .vasyunin import _cot_table

    out = np.zeros(big_q + 1, dtype=np.float64)
    for g in divisors(big_q):
        qp = big_q // g  # reduced denominator of k = g*j
        if qp == 1:
            out[big_q] = a_rational(1, 1)
            continue
        js = np.array([j for j in range(1, qp) if math.gcd(j, qp) == 1], dtype=np.int64)
        ct = _cot_table(qp)
        k = np.arange(1, qp, dtype=np.int64)
        half = js[js * 2 < qp]
        v1 = np.zeros(js.size, dtype=np.float64)
        vmap = {}
        block = max(1, _A_BLOCK // qp)
        for start in range(0, half.size, block):
            rows = half[start : start + block]
            r = (rows[:, None] * k[None, :]) % qp
            vals = (r / qp) @ ct
            for j, v in zip(rows.tolist(), vals.tolist()):
                vmap[j] = v
        for idx, j in enumerate(js.tolist()):
            if 2 * j < qp:
                v1[idx] = vmap[j]
            elif 2 * j == qp:
                v1[idx] = 0.0  # q' = 2, j = 1: single vanishing term
            else:
                v1[idx] = -vmap[qp - j]  # oddness in the numerator
        lam = js / qp
        v2 = np.array([vasyunin_cot(qp % j, j) if j > 1 else 0.0 for j in js.tolist()])
        a_vals = (
            0.5 * (1.0 - lam) * np.log(lam)
            + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA)
            - PI / (2.0 * qp) * (v1 + v2)
        )
        out[js * g] = a_vals
    return out


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
    W(b) = integral_V^inf phi_2(t) t^{-b} dt.
    """
    w_a1, _ = phi2_tail_integral(Fraction(0), v, a + 1.0)
    w_3, _ = phi2_tail_integral(Fraction(0), v, 3.0)
    return w_a1 * (0.5 - 1.0 / (2.0 - a)) + v ** (2.0 - a) * w_3 / (2.0 - a)


def _mellin_autocorr(s: complex) -> complex:
    """MA(s) = integral_0^1 A(x) (x^{s-1} + x^{-s-2}) dx, the second kernel
    coming from folding [1, inf) back with A(x) = x A(1/x)."""
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

_DELTA_PERIODS = 32


def _mellin_delta(s: complex, p: int, q: int) -> complex:
    """M Delta_{p,q}(s) = integral_0^inf Delta_{p,q}(t) t^{s-1} dt.

    The cusp model (t log t + C+ t - q t^2/2)/q is integrated in closed
    form over its whole validity window [0, W], W ~ 1/(2q), and only the
    smooth remainder Delta - model is handled on the grid there; this kills
    the trapezoid bias of the t log t curvature against the singular kernel.
    """
    x0 = Fraction(p % q, q)
    c = phi_resum_rational(2, x0)
    b, t, f = phi2_grid_samples(x0, q, Fraction(0), 1, _GRID_Q)
    d = f - c
    cp = (
        PI * vasyunin_cot(p % q, q)
        + 2.0 * math.log(q)
        + LOG_2PI
        - EULER_GAMMA
        - 1.0
    )
    k_w = max(4, b // (2 * q))
    w = k_w / b
    # closed form of the model over [0, W]
    w1 = w ** (s + 1.0)
    total = (
        w1 * (math.log(w) / (s + 1.0) - 1.0 / (s + 1.0) ** 2)
        + cp * w1 / (s + 1.0)
        - 0.5 * q * w ** (s + 2.0) / (s + 2.0)
    ) / q
    # remainder Delta - model on (0, W]: starts at the first grid cell, the
    # skipped [0, 1/b] piece is O(q^3 / b^{s+3})
    tw = t[1 : k_w + 1]
    model = (tw * np.log(tw) + cp * tw - 0.5 * q * tw * tw) / q
    total += _linear_panels_power(tw, d[1 : k_w + 1] - model, 1.0 - s)
    # [W, 1] on the grid, then whole periods with the shifted kernel
    total += _linear_panels_power(t[k_w:], d[k_w:], 1.0 - s)
    for j in range(1, _DELTA_PERIODS):
        total += _linear_panels_power(t + j, d, 1.0 - s)
    # beyond the last period: mean part exactly, oscillation by parts
    big_j = _DELTA_PERIODS
    total += c * big_j**s / s
    tail, _ = phi2_tail_integral(x0, big_j, 1.0 - s)
    total += tail
    return complex(total)


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------


def mellin_numeric(
    target: MellinTarget, s: complex | float, cfg: QuadratureConfig | None = None
) -> complex:
    """Numeric Mellin transform of the target at s inside the strip (-1, 0)."""
    s = _require_strip(s)
    tol = (cfg.tol if cfg else 1e-10)
    if target.kind == "fracpart":
        return _mellin_fracpart(s, target.scale, max(tol, 1e-12))
    if target.kind == "autocorr":
        return _mellin_autocorr(s)
    p, q = target.params
    return _mellin_delta(s, p, q)


def mellin_identity_residual(which: str, s: complex | float, params=None) -> float:
    """Relative residual of the closed-form Mellin identities.

    which="autocorr": M A(s) against -zeta(-s) zeta(s+1) / (s (s+1)).
    which="delta":    M Delta_{p,q}(s) against -G_1(s; p/q) / pi^2.
    """
    s = _require_strip(s)
    if which == "autocorr":
        numeric = mellin_numeric(MellinTarget("autocorr"), s)
        closed = -riemann_zeta(-s) * riemann_zeta(s + 1.0) / (s * (s + 1.0))
    elif which == "delta":
        p, q = params
        numeric = mellin_numeric(MellinTarget("delta", (p, q)), s)
        closed = -g1(s, p, q) / (PI * PI)
    else:
        raise ValueError(f"unknown identity {which!r}")
    return abs(numeric - closed) / (1.0 + abs(closed))
