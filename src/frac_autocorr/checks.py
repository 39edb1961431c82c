"""The acceptance criteria and the named check suites that run them.

Each criterion's comparison lives here once, on its acceptance inputs
(seeds, counts, ranges), with its bound: ``tests/test_acceptance.py`` calls
these functions and asserts the same bounds, and ``frac-autocorr check``
runs them grouped into suites by module, beside a few checks of their own.
Every check returns a list of CheckResult; the CLI renders them one per
line and fails the run when any residual exceeds its bound.  Criteria 9
(the local expansion) and 11 (the Farey-287 sweep) live only in the tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autocorr, estermann, fracpart, mellin_verify, vasyunin
from .rational_core import farey_sequence
from .specfun import EULER_GAMMA, LOG_2PI, PI, riemann_zeta


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


def exact_identities() -> list[CheckResult]:
    """Criterion 10: the number of failures of 4 x 500 random exact identities
    (Hardy-Littlewood symmetry, Sylvester, the triangular-number identity,
    paired B_1 sums), in rational arithmetic."""
    rng = random.Random(1009)
    bad = 0
    for _ in range(500):  # Hardy-Littlewood symmetry
        theta = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        x = Fraction(rng.randint(1, 240), rng.randint(1, 8))
        need = math.floor(max(theta * x, Fraction(x))) + 2
        f = [0] + [rng.randint(-9, 9) for _ in range(need)]
        g = [0] + [rng.randint(-9, 9) for _ in range(need)]
        bad += fracpart.hl_symmetry_residual(theta, x, f.__getitem__, g.__getitem__) != 0
    for _ in range(500):  # Sylvester: Hardy-Littlewood with f = g = id (int, on the integers)
        theta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        x = Fraction(rng.randint(1, 500), rng.randint(1, 9))
        bad += fracpart.hl_symmetry_residual(theta, x, int, int) != 0
    for _ in range(500):  # triangular-number fractional-part identity
        x = Fraction(rng.randint(0, 4000), rng.randint(1, 40))
        fx = x - math.floor(x)
        lhs = Fraction(math.floor(x) * (math.floor(x) + 1), 2)
        rhs = x * x / 2 - x * (fx - Fraction(1, 2)) + fx * fx / 2 - fx / 2
        bad += lhs != rhs
    for _ in range(500):  # paired B_1 sums
        theta = Fraction(rng.randint(1, 25), rng.randint(1, 25))
        x = Fraction(rng.randint(1, 300), rng.randint(1, 12))
        lhs, rhs = fracpart.b1_pair_sum_check(theta, x)
        bad += lhs != rhs
    return [_result("fracpart", "exact_identity_failures", bad, 0)]


def frullani_residual() -> list[CheckResult]:
    """The Frullani-type identity at three (theta, x)."""
    worst = 0.0
    for theta, x in [(Fraction(2), 3.0), (Fraction(1, 3), 5.0), (Fraction(3, 5), 7.25)]:
        worst = max(worst, abs(fracpart.frullani_integral_check(theta, x)))
    return [_result("fracpart", "frullani_residual", worst, 1e-10)]


def weighted_b1_residual() -> list[CheckResult]:
    """The weighted B_1 identity at three (theta, x)."""
    worst = 0.0
    for theta, x in [(Fraction(1, 2), 7.3), (Fraction(3, 5), 20.0), (Fraction(1), 10.0)]:
        worst = max(worst, abs(fracpart.weighted_b1_identity_residual(theta, x)))
    return [_result("fracpart", "weighted_b1_residual", worst, 1e-8)]


def gronwall_sup() -> list[CheckResult]:
    """Criterion 12: the sup of the Gronwall partial sums, N <= 2000 on a
    4096-point grid, below 0.58950 (the acceptance test asks for <)."""
    sup = fracpart.gronwall_sup_scan(n_max=2000, grid=4096)
    return [_result("fracpart", "gronwall_sup", sup, 0.58950)]


def v_three_routes() -> list[CheckResult]:
    """Criterion 4: the cot, B_1-cot and digamma routes to V(p, q) pairwise,
    divided by q, over coprime p <= q <= 200; and the growth constant
    max |V| / (q log q) of the same rows."""
    worst_b1 = worst_psi = worst_b1_psi = growth = 0.0
    for q in range(1, 201):
        row = vasyunin.v_row(q)
        for p, v in row:
            b1 = vasyunin.vasyunin_b1cot(p, q)
            psi = vasyunin.vasyunin_psi(p, q)
            worst_b1 = max(worst_b1, abs(v - b1) / q)
            worst_psi = max(worst_psi, abs(v - psi) / q)
            worst_b1_psi = max(worst_b1_psi, abs(b1 - psi) / q)
        if q > 2:
            growth = max(growth, max(abs(v) for _, v in row) / (q * math.log(q)))
    return [
        _result("vasyunin", "cot_vs_b1cot_per_q", worst_b1, 1e-10),
        _result("vasyunin", "cot_vs_psi_per_q", worst_psi, 1e-8),
        _result("vasyunin", "b1cot_vs_psi_per_q", worst_b1_psi, 1e-8),
        _result("vasyunin", "growth_constant", growth, 2.0),
    ]


def geometric_derivative_lemma() -> list[CheckResult]:
    """sum_n n z^n = q / (z - 1) over the nontrivial q-th roots of unity, q <= 64:
    the worst deviation, and the worst per entry over q^2."""
    worst = worst_q2 = 0.0
    for q in range(1, 65):
        z = np.exp(2j * PI * np.arange(1, q) / q)
        n = np.arange(q, dtype=np.float64)
        for zk in z:
            s = (n * zk**n).sum()
            worst = max(worst, abs(s - q / (zk - 1.0)))
            worst_q2 = max(worst_q2, abs(s - q / (zk - 1.0)) / (q * q))
    return [
        _result("vasyunin", "geometric_derivative_lemma", worst, 1e-9),
        _result("vasyunin", "geometric_derivative_lemma_per_q2", worst_q2, 1e-10),
    ]


FE_KINDS = ("E", "Esin", "Ecos", "G0", "G1")


def estermann_at_zero() -> list[CheckResult]:
    """Criterion 5: E(0; h/k) against 1/4 - i V(hbar, k)/2 for k <= 64."""
    worst = 0.0
    for k in range(1, 65):
        for h in range(1, k + 1):
            if math.gcd(h, k) != 1:
                continue
            hbar = vasyunin.modular_inverse(h, k)
            want = 0.25 - 0.5j * vasyunin.vasyunin_cot(hbar, k)
            worst = max(worst, abs(estermann.estermann(0.0, h, k) - want))
    return [_result("estermann", "value_at_zero_vs_vasyunin", worst, 1e-9)]


def strip_point(rng: random.Random) -> complex:
    """A random s, -2 <= Re s <= 3, |Im s| <= 3, with Re s more than 0.15 from every
    integer unless |Im s| > 0.25, and s more than 0.2 from 0 and +-1."""
    while True:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(s.real - round(s.real)) > 0.15 or abs(s.imag) > 0.25:
            if min(abs(s), abs(s - 1.0), abs(s + 1.0)) > 0.2:
                return s


def fe_residual_rows(seed: int, count: int, kmax: int):
    """(which, s, h, k, residual) of each functional equation at `count`
    random points: k <= kmax, h a random unit mod k, s a strip point."""
    rng = random.Random(seed)
    for which in FE_KINDS:
        for _ in range(count):
            k = rng.randint(1, kmax)
            h = rng.choice([h for h in range(1, k + 1) if math.gcd(h, k) == 1])
            s = strip_point(rng)
            yield which, s, h, k, estermann.functional_equation_residual(which, s, h, k)


def estermann_functional_equations() -> list[CheckResult]:
    """Criterion 6: the five functional equations at 50 points each (seed 42, k <= 20)."""
    worst = dict.fromkeys(FE_KINDS, 0.0)
    for which, _, _, _, residual in fe_residual_rows(seed=42, count=50, kmax=20):
        worst[which] = max(worst[which], residual)
    return [_result("estermann", f"fe_residual_{which}", w, 1e-8) for which, w in worst.items()]


def g1_residue() -> list[CheckResult]:
    """The residue of G_1(s; 1/3) at s = -2 against pi^2 / 2."""
    res = estermann.laurent_coefficient(lambda s: estermann.g1(s, 1, 3), -2.0 + 0.0j, -1)
    return [_result("estermann", "g1_residue_at_minus2", abs(res - PI * PI / 2.0), 1e-6)]


def a_at_one() -> list[CheckResult]:
    """Criterion 1: A(1) by quadrature against log 2pi - gamma."""
    r = autocorr.a_quadrature(Fraction(1), autocorr.QuadratureConfig(tol=1e-10))
    return [_result("autocorr", "a1_vs_log2pi_minus_gamma", abs(r.value - (LOG_2PI - EULER_GAMMA)), 1e-9)]


def farey_closed_vs_quadrature() -> list[CheckResult]:
    """Criterion 2: closed form against quadrature on the 128 nonzero Farey-20 fractions."""
    cfg = autocorr.QuadratureConfig(tol=2e-9)
    worst = 0.0
    for f in farey_sequence(20, 0, 1):
        if f == 0:
            continue
        r = autocorr.a_quadrature(f, cfg)
        worst = max(worst, abs(r.value - autocorr.a_rational(f.numerator, f.denominator)))
    return [_result("autocorr", "closed_vs_quadrature_farey", worst, 1e-8)]


def a_functional_equation() -> list[CheckResult]:
    """Criterion 3: A(l) = l A(1/l) at 500 random rationals l = p/q, q <= 20,
    p <= 50q (seed 20260811), by the closed form and by quadrature."""
    rng = random.Random(20260811)
    worst_closed = worst_quad = 0.0
    for _ in range(500):
        q = rng.randint(1, 20)
        p = rng.randint(1, 50 * q)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        lam = p / q
        worst_closed = max(worst_closed, abs(autocorr.a_rational(p, q) - lam * autocorr.a_rational(q, p)))
        ra = autocorr.a_quadrature(Fraction(p, q), autocorr.QuadratureConfig(tol=2.5e-10))
        rb = autocorr.a_quadrature(
            Fraction(q, p), autocorr.QuadratureConfig(tol=max(1.3e-13, 2.5e-10 / lam))
        )
        worst_quad = max(worst_quad, abs(ra.value - lam * rb.value))
    return [
        _result("autocorr", "functional_equation_closed", worst_closed, 1e-12),
        _result("autocorr", "functional_equation_quadrature", worst_quad, 1e-9),
    ]


def delta_functional_equation() -> list[CheckResult]:
    """Criterion 8: the functional equation of Delta_{p,q} at three (p, q, t)."""
    worst = 0.0
    for p, q, t in [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 4)), (1, 3, Fraction(1, 10))]:
        worst = max(worst, autocorr.delta_functional_equation_residual(p, q, t))
    return [_result("autocorr", "delta_functional_equation", worst, 1e-6)]


def mellin_residual_rows():
    """(which, s, p, q, residual) of the Mellin identities for A ("MA") and
    for Delta at (0, 1) and (1, 2) ("MDelta") on the 3 x 3 grid of s."""
    for re in (-0.7, -0.5, -0.3):
        for im in (0.0, 1.0, 2.0):
            s = complex(re, im)
            yield "MA", s, 0, 1, mellin_verify.mellin_identity_residual("autocorr", s)
            for p, q in ((0, 1), (1, 2)):
                yield "MDelta", s, p, q, mellin_verify.mellin_identity_residual("delta", s, (p, q))


def mellin_grid() -> list[CheckResult]:
    """Criterion 7: the worst residual of each Mellin identity on the grid."""
    worst = {"MA": 0.0, "MDelta": 0.0}
    for which, _, _, _, residual in mellin_residual_rows():
        worst[which] = max(worst[which], residual)
    return [
        _result("mellin", "autocorr_grid_residual", worst["MA"], 1e-5),
        _result("mellin", "delta_residual", worst["MDelta"], 1e-5),
    ]


def fracpart_mellin_closed_form() -> list[CheckResult]:
    """The Mellin transform of {t} at s = -1/2 against zeta(-s)/s."""
    v = mellin_verify.mellin_fracpart(-0.5)
    return [_result("mellin", "fracpart_closed_form", abs(v - riemann_zeta(0.5) / (-0.5)), 1e-10)]


_SUITES = {
    "fracpart": (exact_identities, frullani_residual, weighted_b1_residual, gronwall_sup),
    "vasyunin": (v_three_routes, geometric_derivative_lemma),
    "estermann": (estermann_at_zero, estermann_functional_equations, g1_residue),
    "autocorr": (a_at_one, farey_closed_vs_quadrature, a_functional_equation, delta_functional_equation),
    "mellin": (mellin_grid, fracpart_mellin_closed_form),
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns the list of CheckResult."""
    names = list(_SUITES) if name == "all" else [name]
    results: list[CheckResult] = []
    for n in names:
        if n not in _SUITES:
            raise KeyError(f"unknown suite {n!r}; choose from {sorted(_SUITES)} or 'all'")
        for check in _SUITES[n]:
            results.extend(check())
    return results
