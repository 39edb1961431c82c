"""Named check suites: each bundles the invariants of one module.

Every check returns a CheckResult; the CLI renders them one per line and
fails the run when any residual exceeds its bound.  Suites accept qmax /
tol / seed knobs so the heavy sweeps can be dialed down interactively.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autocorr, estermann, fracpart, mellin_verify, vasyunin
from .rational_core import farey_sequence
from .specfun import EULER_GAMMA, LOG_2PI, PI


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


def _result(suite: str, name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(suite=suite, name=name, value=float(value), bound=float(bound))


def check_fracpart(qmax: int = 50, tol: float = 1e-10, seed: int = 1) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    # exact randomized identities
    worst = 0
    for _ in range(200):
        q = rng.randint(1, 20)
        p = rng.randint(1, 40)
        theta = Fraction(p, q)
        x = Fraction(rng.randint(1, 400), rng.randint(1, 12))
        lhs, rhs = fracpart.sylvester_sum_check(theta, x)
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("fracpart", "sylvester_exact", worst, 0))
    worst = 0.0
    for theta, x in [(Fraction(2), 3.0), (Fraction(1, 3), 5.0), (Fraction(3, 5), 7.25)]:
        worst = max(worst, abs(fracpart.frullani_integral_check(theta, x, tol=1e-8)))
    out.append(_result("fracpart", "frullani_residual", worst, 1e-10))
    worst = 0.0
    for theta, x in [(Fraction(1, 2), 7.3), (Fraction(3, 5), 20.0), (Fraction(1), 10.0)]:
        worst = max(worst, abs(fracpart.weighted_b1_identity_residual(theta, x)))
    out.append(_result("fracpart", "weighted_b1_residual", worst, 1e-8))
    sup = fracpart.gronwall_sup_scan(n_max=500, grid=2048)
    out.append(_result("fracpart", "gronwall_sup", sup, 0.58950))
    return out


def check_vasyunin(qmax: int = 200, tol: float = 1e-8, seed: int = 1) -> list[CheckResult]:
    out = []
    worst_psi = worst_b1 = 0.0
    for q in range(1, qmax + 1):
        for p, v in vasyunin.v_row(q):
            worst_b1 = max(worst_b1, abs(v - vasyunin.vasyunin_b1cot(p, q)) / q)
            worst_psi = max(worst_psi, abs(v - vasyunin.vasyunin_psi(p, q)) / q)
    out.append(_result("vasyunin", "cot_vs_b1cot_per_q", worst_b1, 1e-10))
    out.append(_result("vasyunin", "cot_vs_psi_per_q", worst_psi, tol))
    growth = 0.0
    for q in range(2, min(qmax, 500) + 1):
        row = vasyunin.v_row(q)
        vmax = max(abs(v) for _, v in row)
        growth = max(growth, vmax / (q * math.log(q)) if q > 2 else 0.0)
    out.append(_result("vasyunin", "growth_constant", growth, 2.0))
    worst = 0.0
    for q in range(1, 65):
        z = np.exp(2j * PI * np.arange(1, q) / q)
        n = np.arange(q, dtype=np.float64)
        for zk in z:
            s = (n * zk**n).sum()
            worst = max(worst, abs(s - q / (zk - 1.0)))
    out.append(_result("vasyunin", "geometric_derivative_lemma", worst, 1e-9))
    return out


def check_estermann(qmax: int = 20, tol: float = 1e-8, seed: int = 1) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    worst = 0.0
    for k in range(1, 65):
        for h in range(1, k + 1):
            if math.gcd(h, k) != 1:
                continue
            hbar = vasyunin.modular_inverse(h, k)
            want = 0.25 - 0.5j * vasyunin.vasyunin_cot(hbar, k)
            worst = max(worst, abs(estermann.estermann(0.0, h, k) - want))
    out.append(_result("estermann", "value_at_zero_vs_vasyunin", worst, 1e-9))
    for which in ("E", "Esin", "Ecos", "G0", "G1"):
        worst = 0.0
        for _ in range(25):
            k = rng.randint(1, qmax)
            hs = [h for h in range(1, k + 1) if math.gcd(h, k) == 1]
            h = rng.choice(hs)
            s = strip_point(rng)
            worst = max(worst, estermann.functional_equation_residual(which, s, h, k))
        out.append(_result("estermann", f"fe_residual_{which}", worst, tol))
    res = estermann.laurent_coefficient(lambda s: estermann.g1(s, 1, 3), -2.0 + 0.0j, -1)
    out.append(_result("estermann", "g1_residue_at_minus2", abs(res - PI * PI / 2.0), 1e-6))
    return out


def strip_point(rng: random.Random) -> complex:
    """A random s, -2 <= Re s <= 3, |Im s| <= 3, with Re s more than 0.15 from every
    integer unless |Im s| > 0.25, and s more than 0.2 from 0 and +-1."""
    while True:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(s.real - round(s.real)) > 0.15 or abs(s.imag) > 0.25:
            if min(abs(s), abs(s - 1.0), abs(s + 1.0)) > 0.2:
                return s


def check_autocorr(qmax: int = 20, tol: float = 1e-8, seed: int = 1) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    r1 = autocorr.a_quadrature(Fraction(1), autocorr.QuadratureConfig(tol=1e-10))
    out.append(
        _result("autocorr", "a1_vs_log2pi_minus_gamma", abs(r1.value - (LOG_2PI - EULER_GAMMA)), 1e-9)
    )
    cfg = autocorr.QuadratureConfig(tol=2e-9)
    worst = 0.0
    for f in farey_sequence(qmax, 0, 1):
        if f == 0:
            continue
        r = autocorr.a_quadrature(f, cfg)
        worst = max(worst, abs(r.value - autocorr.a_rational(f.numerator, f.denominator)))
    out.append(_result("autocorr", "closed_vs_quadrature_farey", worst, 1e-8))
    worst = 0.0
    for _ in range(60):
        q = rng.randint(1, 20)
        p = rng.randint(1, 50 * q)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        worst = max(
            worst, abs(autocorr.a_rational(p, q) - (p / q) * autocorr.a_rational(q, p))
        )
    out.append(_result("autocorr", "functional_equation_closed", worst, 1e-12))
    worst = 0.0
    for p, q, t in [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 4)), (1, 3, Fraction(1, 10))]:
        worst = max(worst, autocorr.delta_functional_equation_residual(p, q, t))
    out.append(_result("autocorr", "delta_functional_equation", worst, 1e-6))
    return out


def check_mellin(qmax: int = 0, tol: float = 1e-5, seed: int = 1) -> list[CheckResult]:
    out = []
    worst = 0.0
    for re in (-0.7, -0.5, -0.3):
        for im in (0.0, 1.0, 2.0):
            worst = max(worst, mellin_verify.mellin_identity_residual("autocorr", complex(re, im)))
    out.append(_result("mellin", "autocorr_grid_residual", worst, tol))
    worst = 0.0
    for s, pq in [(-0.5, (0, 1)), (-0.3, (1, 2)), (-0.5 + 1j, (1, 2))]:
        worst = max(worst, mellin_verify.mellin_identity_residual("delta", s, pq))
    out.append(_result("mellin", "delta_residual", worst, tol))
    from .specfun import riemann_zeta

    v = mellin_verify.mellin_numeric(mellin_verify.MellinTarget("fracpart"), -0.5)
    out.append(
        _result("mellin", "fracpart_closed_form", abs(v - riemann_zeta(0.5) / (-0.5)), 1e-10)
    )
    return out


_SUITES = {
    "fracpart": check_fracpart,
    "vasyunin": check_vasyunin,
    "estermann": check_estermann,
    "autocorr": check_autocorr,
    "mellin": check_mellin,
}


def run_suite(name: str, qmax: int | None = None, tol: float | None = None, seed: int = 1):
    """Run one named suite (or 'all'); returns the list of CheckResult."""
    names = list(_SUITES) if name == "all" else [name]
    results: list[CheckResult] = []
    for n in names:
        if n not in _SUITES:
            raise KeyError(f"unknown suite {n!r}; choose from {sorted(_SUITES)} or 'all'")
        fn = _SUITES[n]
        kwargs = {"seed": seed}
        if qmax is not None:
            kwargs["qmax"] = qmax
        if tol is not None:
            kwargs["tol"] = tol
        results.extend(fn(**kwargs))
    return results
