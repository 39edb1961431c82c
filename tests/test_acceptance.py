"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Criteria 1-8, 10 and 12 run from `frac_autocorr.checks`, the functions
`frac-autocorr check` runs; each test asserts the criterion's bound on
their values.  Every test prints (and registers for the terminal summary)
one pass/fail line; run `pytest -s tests/test_acceptance.py` to watch them
stream.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import record_criterion
from frac_autocorr import autocorr, checks
from frac_autocorr.autocorr import QuadratureConfig, a_quadrature, local_model


def _values(results):
    return {r.name: r.value for r in results}


def test_criterion_1_a_at_one():
    t0 = time.perf_counter()
    [r] = checks.a_at_one()
    elapsed = time.perf_counter() - t0
    ok = r.value <= 1e-9 and elapsed < 5.0
    record_criterion(1, ok, f"|A(1) - (log 2pi - gamma)| = {r.value:.3e} (<= 1e-9), {elapsed:.2f}s (< 5s)")
    assert ok


def test_criterion_2_closed_vs_quadrature_farey20():
    t0 = time.perf_counter()
    [r] = checks.farey_closed_vs_quadrature()
    elapsed = time.perf_counter() - t0
    ok = r.value <= 1e-8 and elapsed < 120.0
    record_criterion(
        2, ok, f"max |closed - quadrature| over 128 Farey-20 fractions = {r.value:.3e} "
        f"(<= 1e-8), {elapsed:.1f}s (< 120s)"
    )
    assert ok


def test_criterion_3_functional_equation_500_rationals():
    v = _values(checks.a_functional_equation())
    closed, quad = v["functional_equation_closed"], v["functional_equation_quadrature"]
    ok = closed <= 1e-9 and quad <= 1e-9
    record_criterion(
        3, ok, f"max |A(l) - l A(1/l)| over 500 rationals: closed {closed:.3e}, "
        f"quadrature {quad:.3e} (<= 1e-9)"
    )
    assert ok


def test_criterion_4_vasyunin_three_way():
    t0 = time.perf_counter()
    v = _values(checks.v_three_routes())
    elapsed = time.perf_counter() - t0
    worst = max(v["cot_vs_b1cot_per_q"], v["cot_vs_psi_per_q"], v["b1cot_vs_psi_per_q"])
    ok = worst <= 1e-8 and elapsed < 30.0
    record_criterion(
        4, ok, f"max pairwise deviation / q over coprime p <= q <= 200 = {worst:.3e} "
        f"(<= 1e-8), {elapsed:.1f}s (< 30s)"
    )
    assert ok


def test_criterion_5_estermann_at_zero():
    [r] = checks.estermann_at_zero()
    ok = r.value <= 1e-9
    record_criterion(5, ok, f"max |E(0;h/k) - (1/4 - i V(hbar,k)/2)| for k <= 64 = {r.value:.3e} (<= 1e-9)")
    assert ok


def test_criterion_6_functional_equation_residuals():
    v = _values(checks.estermann_functional_equations())
    ok = all(x <= 1e-8 for x in v.values())
    detail = ", ".join(f"{name.removeprefix('fe_residual_')}: {x:.2e}" for name, x in v.items())
    record_criterion(6, ok, f"FE residuals at 50 strip points each (<= 1e-8): {detail}")
    assert ok


def test_criterion_7_mellin_identities():
    v = _values(checks.mellin_grid())
    ma, mdelta = v["autocorr_grid_residual"], v["delta_residual"]
    ok = ma <= 1e-5 and mdelta <= 1e-5
    record_criterion(7, ok, f"Mellin residuals on the 3x3 grid: MA {ma:.2e}, MDelta {mdelta:.2e} (<= 1e-5)")
    assert ok


def test_criterion_8_delta_functional_equation():
    [r] = checks.delta_functional_equation()
    ok = r.value <= 1e-6
    record_criterion(8, ok, f"Delta functional-equation residual at the three triples = {r.value:.3e} (<= 1e-6)")
    assert ok


def test_criterion_9_local_expansion():
    # envelope: resid <= C_SIG * q^4/p |t|^3 + floor_j, with C_SIG frozen
    # from calibration (signal ratios observed <= 0.45) and floor_j the
    # evaluation noise allowance; slope fitted over the signal range 8..14
    c_sig = 2.0
    ok = True
    details = []
    for p, q in [(1, 1), (1, 2), (2, 3)]:
        lm = local_model(p, q)
        base = Fraction(p, q)
        resid_pos = {}
        for j in range(8, 21):
            for sign in (1, -1):
                t = Fraction(sign, 2**j)
                tf = float(t)
                cfg = QuadratureConfig(tol=max(1e-12, abs(tf) ** 3 / 8.0))
                r = a_quadrature(base + t, cfg)
                resid = abs(r.value - lm.predict(tf))
                envelope = c_sig * q**4 / p * abs(tf) ** 3 + 10.0 * (r.err + 1e-14)
                if resid > envelope:
                    ok = False
                    details.append(f"(p,q)=({p},{q}) j={j} sign={sign}: {resid:.2e} > {envelope:.2e}")
                if sign > 0:
                    resid_pos[j] = resid
        js = np.arange(8, 15, dtype=np.float64)
        logs = np.log2([resid_pos[int(j)] for j in js])
        slope = -float(np.polyfit(js, logs, 1)[0])
        if not 2.7 <= slope <= 3.3:
            ok = False
            details.append(f"(p,q)=({p},{q}) slope {slope:.3f} outside [2.7, 3.3]")
        else:
            details.append(f"({p},{q}) slope {slope:.2f}")
    record_criterion(9, ok, "local expansion envelope j=8..20 and slope j=8..14: " + "; ".join(details))
    assert ok


def test_criterion_10_exact_identity_suites():
    [r] = checks.exact_identities()
    bad = int(r.value)
    ok = bad == 0
    record_criterion(10, ok, f"4 x 500 randomized exact identities, {bad} failures (exact rational arithmetic)")
    assert ok


def test_criterion_11_farey_287_sweep(tmp_path):
    records = autocorr.farey_scan(287, 0, 1)
    # oracle: 1 + the brute-force count of coprime pairs (p <= q <= 287)
    n = 287
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    expected = 1 + int(phi[1:].sum())
    p1 = tmp_path / "farey287a.csv"
    p2 = tmp_path / "farey287b.csv"
    autocorr.write_farey_csv(records, str(p1))
    autocorr.write_farey_csv(autocorr.farey_scan(287, 0, 1), str(p2))
    deterministic = p1.read_bytes() == p2.read_bytes()
    rows = len(p1.read_text().splitlines()) - 1
    increasing = all(
        a.lam < b.lam or (a.lam == b.lam and a.p != b.p) for a, b in zip(records, records[1:])
    )
    ok = rows == len(records) == expected == 25159 and deterministic and increasing
    record_criterion(
        11, ok, f"Farey-287 sweep: {rows} rows (totient oracle {expected}), "
        f"byte-deterministic={deterministic}"
    )
    assert ok


def test_criterion_12_gronwall_bound():
    [r] = checks.gronwall_sup()
    ok = r.value < 0.58950
    record_criterion(12, ok, f"sup of Gronwall partial sums over the scan grid = {r.value:.6f} (< 0.58950)")
    assert ok
