"""Seeded op lists for the benchmark workloads, their execution and checks.

An op is one call into a public function of ``frac_autocorr``: ``run_op``
makes that call and nothing else.  ``check_op`` plays the output against
the package's independent second route, outside the timed region, and
returns a ``Verdict``.  The seed only picks parameters inside fixed strata
(denominator, size class, op kind), so every seed asks for the same amount
of work and the figures of different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from frac_autocorr import autocorr, cli, estermann, mellin_verify, phi, vasyunin
from frac_autocorr.autocorr import QuadratureConfig
from frac_autocorr.phi import PhiEvalConfig
from frac_autocorr.specfun import EULER_GAMMA, LOG_2PI, PI

# Bounds the acceptance criteria put on the same comparisons.
QUAD_RADIUS_FACTOR = 10.0  # criterion 9: |quad - reference| <= 10 (err + 1e-14)
QUAD_RADIUS_FLOOR = 1e-14
V_PER_Q_BOUND = 1e-8  # criterion 4: pairwise |V - V'| / q
FE_BOUND = 1e-8  # criterion 6
MELLIN_BOUND = 1e-5  # criterion 7


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------


def _coprime_in(rng: random.Random, q: int, lo: int, hi: int) -> int:
    """A p in [lo, hi] with gcd(p, q) = 1 (the stratum always holds one)."""
    while True:
        p = rng.randint(lo, hi)
        if math.gcd(p, q) == 1:
            return p


# Bases p/q with q <= 5 and p + q a power of two, so that
# lambda = p/q +- 2^-j has p' + q' = (p + q) 2^j +- q: an exact size class.
NEAR_BASES = {
    1: ((1, 1), (3, 1), (7, 1), (15, 1)),
    3: ((1, 3), (5, 3), (13, 3)),
    5: ((3, 5), (11, 5)),
}
# (log2 of pieces per period, q, ops): the sizes climb from j = 8 (exact
# Fraction statistics below 4096 pieces) to p + q near 10^6 (float
# statistics, lattice merge and head sum).  Integer bases need several
# periods per quadrature, which costs them about ten times the time of
# q = 3, 5 at equal size, so they stop at 2^10.  Sizes 2^11 to 2^12 (near
# the 4096-piece switch) and q = 3 above 2^16 are left out.  The 14 ops of
# the 2^17 class hold the 90th percentile of the 104 latencies, with 4
# larger ops above them; the few large ops keep a pass near 5 s, so a run
# makes enough passes for per-op medians.
NEAR_LADDER = (
    (9, 1, 3),
    (10, 1, 3), (10, 3, 4),
    (13, 3, 10), (13, 5, 10),
    (14, 3, 11), (14, 5, 11),
    (15, 3, 10), (15, 5, 10),
    (16, 3, 7), (16, 5, 7),
    (17, 5, 14),
    (18, 5, 2),
    (19, 5, 1),
    (20, 5, 1),
)


def _near_ops(rng: random.Random) -> list[Op]:
    """Criterion-9 shape: A(p/q + t), t = +-2^-j, tol max(1e-12, |t|^3/8)."""
    ops = []
    for k, q, count in NEAR_LADDER:
        bases = [b for b in NEAR_BASES[q] if k - (sum(b).bit_length() - 1) >= 8]
        for _ in range(count):
            p, q_ = rng.choice(bases)
            j = k - (p + q_).bit_length() + 1
            t = Fraction(rng.choice((1, -1)), 2**j)
            ops.append(Op("a_quadrature", (Fraction(p, q_) + t, max(1e-12, float(abs(t)) ** 3 / 8.0))))
    rng.shuffle(ops)
    # The largest op sets the peak memory.  It runs first, on a fresh heap;
    # after the others, the heap they leave moves the peak by 5% by seed.
    largest = max(ops, key=lambda op: op.args[0].numerator + op.args[0].denominator)
    ops.remove(largest)
    return [largest, *ops]


def _strip_point(rng: random.Random) -> complex:
    """A point of the estermann check suite's sampling region."""
    while True:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-3.0, 3.0))
        near_int = min(abs(s.real - round(s.real)), abs(s.real + 3 - round(s.real + 3)))
        if near_int > 0.15 or abs(s.imag) > 0.25:
            if min(abs(s), abs(s - 1.0), abs(s + 1.0)) > 0.2:
                return s


FAREY_ORDER = 240
FAREY_WIDTH = Fraction(1, 20)
# Scattered V(p, q) with q in (1024, 4096]: more distinct q than the
# 1,024-entry cot cache holds.  They are 95% of the ops, so the 90th
# percentile latency is the slow tail of single scattered lookups.
SCATTERED_V = 2000
ROW_Q = (600, 1400)
FE_KINDS = ("E", "Esin", "Ecos", "G0", "G1")
FE_K = (64, 512)
# Delta at q = 1, 2 share the phi_2 grid b = 16384; q = 3 builds b = 16383.
MELLIN_DELTA = ((0, 1), (1, 2), (1, 3))
# The A grid is built directly at 2^12 (about 0.7 s).  The Mellin identity
# for A builds it at 2^14 (about 11 s), a single op that would take most
# of a pass and leave too few passes in a run for steady per-op medians.
A_GRID_Q = 1 << 12
A_GRID_CHECK_STRIDE = 31  # 133 checked points, across all denominators


def _tables_ops(rng: random.Random, tmpdir: str) -> list[Op]:
    """The closed-form side: Farey sweeps, V entries and rows, phi_2, the
    Estermann functional equations, the A grid, the Mellin identities for
    Delta and two CLI runs."""
    ops = []
    for _ in range(4):
        lo = Fraction(rng.randint(0, 950), 1000)
        ops.append(Op("farey_scan", (FAREY_ORDER, lo, lo + FAREY_WIDTH)))
    for i in range(SCATTERED_V):
        # strata of q keep the table sizes of every seed alike
        q = rng.randint(1025 + i * 3072 // SCATTERED_V, 1024 + (i + 1) * 3072 // SCATTERED_V)
        ops.append(Op("vasyunin_cot", (_coprime_in(rng, q, 1, q), q)))
    for i in range(4):
        span = (ROW_Q[1] - ROW_Q[0]) // 4
        ops.append(Op("v_row", (rng.randint(ROW_Q[0] + i * span, ROW_Q[0] + (i + 1) * span),)))
    for i in range(40):
        q = rng.randint(500 + i * 100, 600 + i * 100)
        ops.append(Op("phi_n", (2, Fraction(_coprime_in(rng, q, 1, q), q))))
    for i in range(20):
        k = rng.randint(FE_K[0] + i * (FE_K[1] - FE_K[0]) // 20, FE_K[0] + (i + 1) * (FE_K[1] - FE_K[0]) // 20)
        h = _coprime_in(rng, k, 1, k)
        ops.append(Op("fe_residual", (FE_KINDS[i % 5], _strip_point(rng), h, k)))
    order = rng.randint(120, 160)
    lo = Fraction(rng.randint(0, 500), 1000)
    ops.append(Op("cli", ("scan-farey", "--order", str(order), "--lo", str(lo), "--hi", str(lo + Fraction(1, 2)),
                          "--out", os.path.join(tmpdir, "farey.csv"))))
    ops.append(Op("cli", ("dump", "vtable", "--qmax", str(rng.randint(120, 160)),
                          "--out", os.path.join(tmpdir, "vtable.csv"))))
    rng.shuffle(ops)
    # The grid builds set the peak memory.  They come last, in a fixed order,
    # so that they meet full caches on every seed and the peak is the same.
    for pq in MELLIN_DELTA:
        s = complex(rng.uniform(-0.7, -0.3), rng.uniform(0.0, 2.0))
        ops.append(Op("mellin_residual", ("delta", s, pq)))
    ops.append(Op("a_unit_grid", (A_GRID_Q,)))
    return ops


def build_ops(workload: str, seed: int, tmpdir: str = "") -> list[Op]:
    """The op list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "quad-near-rational":
        return _near_ops(rng)
    if workload == "tables":
        return _tables_ops(rng, tmpdir)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# execution: one public call per op
# ----------------------------------------------------------------------


def run_op(op: Op):
    a = op.args
    if op.kind == "a_quadrature":
        return autocorr.a_quadrature(a[0], QuadratureConfig(tol=a[1]))
    if op.kind == "farey_scan":
        return autocorr.farey_scan(*a)
    if op.kind == "vasyunin_cot":
        return vasyunin.vasyunin_cot(*a)
    if op.kind == "v_row":
        return vasyunin.v_row(*a)
    if op.kind == "phi_n":
        return phi.phi_n(*a)
    if op.kind == "fe_residual":
        return estermann.functional_equation_residual(*a)
    if op.kind == "mellin_residual":
        return mellin_verify.mellin_identity_residual(*a)
    if op.kind == "a_unit_grid":
        return mellin_verify.a_unit_grid(*a)
    if op.kind == "cli":
        return cli.run(list(a))
    raise ValueError(f"unknown op kind {op.kind!r}")


# ----------------------------------------------------------------------
# checks: the independent route, untimed
# ----------------------------------------------------------------------


def _v_direct(p: int, q: int) -> float:
    """V(p, q) = sum_{k<q} {kp/q} cot(k pi/q) with the cotangents computed
    here, so a wrong cot table in the package cannot agree with it."""
    if q == 1:
        return 0.0
    k = np.arange(1, q, dtype=np.int64)
    r = (k * (p % q)) % q
    return math.fsum((r / q) / np.tan(np.pi * k / q))


def _a_closed(p: int, q: int) -> float:
    """A(p/q) from the closed form with V from ``_v_direct``."""
    if p == 0:
        return 0.0
    lam = p / q
    v = _v_direct(p, q) + _v_direct(q, p)
    return 0.5 * (1.0 - lam) * math.log(lam) + 0.5 * (lam + 1.0) * (LOG_2PI - EULER_GAMMA) - PI / (2 * q) * v


def _farey_count(order: int, lo: Fraction, hi: Fraction) -> int:
    """Reduced fractions p/q in [lo, hi] with q <= order, by enumeration."""
    n = 0
    for q in range(1, order + 1):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            n += math.gcd(p, q) == 1
    return n


def _totient_rows(qmax: int) -> int:
    return sum(1 for q in range(1, qmax + 1) for p in range(1, q + 1) if math.gcd(p, q) == 1)


def _csv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def check_op(op: Op, out) -> Verdict:
    a = op.args
    if op.kind == "a_quadrature":
        lam, tol = a
        closed = autocorr.a_rational(lam.numerator, lam.denominator)
        diff = abs(out.value - closed)
        bound = QUAD_RADIUS_FACTOR * (out.err + QUAD_RADIUS_FLOOR)
        stats = {"radius_use": diff / out.err, "err_over_tol": out.err / tol}
        return Verdict(diff <= bound, f"|quad - closed| = {diff:.3e} > {bound:.3e}", stats)
    if op.kind == "farey_scan":
        order, lo, hi = a
        want = _farey_count(order, lo, hi)
        if len(out) != want:
            return Verdict(False, f"{len(out)} records, expected {want}")
        for r in out:
            bound = V_PER_Q_BOUND * PI / (2 * r.q) * (r.p + r.q)
            if abs(r.a_value - _a_closed(r.p, r.q)) > bound:
                return Verdict(False, f"A({r.p}/{r.q}) off the direct closed form by more than {bound:.3e}")
        return Verdict(True)
    if op.kind == "vasyunin_cot":
        p, q = a
        dev = abs(out - _v_direct(p, q)) / q
        return Verdict(dev <= V_PER_Q_BOUND, f"V({p},{q}) deviation/q {dev:.3e}")
    if op.kind == "v_row":
        (q,) = a
        coprime = [p for p in range(1, q + 1) if math.gcd(p, q) == 1]
        if [p for p, _ in out] != coprime:
            return Verdict(False, f"v_row({q}) numerators differ from the totient list")
        worst = max(abs(v - vasyunin.vasyunin_psi(p, q)) for p, v in out) / q
        return Verdict(worst <= V_PER_Q_BOUND, f"v_row({q}) deviation/q {worst:.3e}")
    if op.kind == "phi_n":
        n, x = a
        series = phi.phi_n(n, float(x), PhiEvalConfig(tol=1e-6))
        diff = abs(out.value - series.value)
        return Verdict(diff <= out.err + series.err, f"phi_{n}({x}) resum vs series {diff:.3e}")
    if op.kind == "fe_residual":
        return Verdict(out <= FE_BOUND, f"{a[0]} residual {out:.3e}")
    if op.kind == "mellin_residual":
        return Verdict(out <= MELLIN_BOUND, f"Mellin {a[0]} residual {out:.3e}")
    if op.kind == "a_unit_grid":
        (big_q,) = a
        if out.shape != (big_q + 1,):
            return Verdict(False, f"A grid of shape {out.shape}, expected ({big_q + 1},)")
        for k in [*range(0, big_q, A_GRID_CHECK_STRIDE), big_q]:
            x = Fraction(k, big_q)
            p, q = x.numerator, x.denominator
            bound = V_PER_Q_BOUND * PI / (2 * q) * (p + q)
            if not abs(out[k] - _a_closed(p, q)) <= bound:
                return Verdict(False, f"A({k}/{big_q}) off the direct closed form by more than {bound:.3e}")
        return Verdict(True)
    if op.kind == "cli":
        if out != 0:
            return Verdict(False, f"exit code {out}")
        path = a[a.index("--out") + 1]
        if a[0] == "scan-farey":
            want = _farey_count(int(a[2]), Fraction(a[4]), Fraction(a[6]))
        else:
            want = _totient_rows(int(a[3]))
        rows = _csv_rows(path)
        return Verdict(rows == want, f"{a[0]} wrote {rows} rows, expected {want}")
    raise ValueError(f"unknown op kind {op.kind!r}")


# ----------------------------------------------------------------------
# one pass: timed calls, then untimed checks
# ----------------------------------------------------------------------


def digest(outs: list) -> str:
    """Exact fingerprint of a pass's outputs (floats by repr, all digits;
    arrays as lists, since numpy's repr elides long ones)."""
    outs = [o.tolist() if isinstance(o, np.ndarray) else o for o in outs]
    return hashlib.sha256(repr(outs).encode()).hexdigest()[:16]


def run_pass(ops, tr):
    """Times each op as one call; returns (outputs, errors, latencies, wall)."""
    outs, errors, lat = [], [], []
    sink = io.StringIO()  # the CLI prints a line per run
    with contextlib.redirect_stdout(sink), (tr.span("ops") if tr else contextlib.nullcontext()):
        t_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, err = run_op(op), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
            outs.append(out)
            errors.append(err)
        wall = time.perf_counter() - t_start
    return outs, errors, lat, wall


def check_pass(ops, outs, errors, tr):
    """Plays every output against its independent route (untimed)."""
    failures, stats = [], []
    with tr.span("checks") if tr else contextlib.nullcontext():
        for i, (op, out, err) in enumerate(zip(ops, outs, errors)):
            if err is not None:
                failures.append({"op": i, "kind": op.kind, "why": err})
                continue
            try:
                verdict = check_op(op, out)
            except Exception as exc:  # a check that cannot run counts the op as failed
                failures.append({"op": i, "kind": op.kind, "why": f"check raised {type(exc).__name__}: {exc}"})
                continue
            if not verdict.ok:
                failures.append({"op": i, "kind": op.kind, "why": verdict.detail})
            if verdict.stats:
                stats.append(verdict.stats)
    return failures, stats
