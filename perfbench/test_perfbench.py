"""Tests of the benchmark itself: seeded op lists, the correctness gate,
the trace wrappers and the metric names.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from frac_autocorr import autocorr, mellin_verify, phi, piecewise, specfun, vasyunin  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_op_list(workload, tmp_path):
    a = workloads.build_ops(workload, 7, str(tmp_path))
    b = workloads.build_ops(workload, 7, str(tmp_path))
    c = workloads.build_ops(workload, 8, str(tmp_path))
    assert a == b
    assert a != c
    assert len(a) >= 100


def test_near_rational_sizes_reach_a_million_pieces():
    ops = workloads.build_ops("quad-near-rational", 3)
    sizes = [op.args[0].numerator + op.args[0].denominator for op in ops]
    assert min(sizes) < 2**10 and 10**6 < max(sizes) < 1.1 * 10**6


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def _perturbed(out):
    """The output with its value moved by far more than any bound allows."""
    if isinstance(out, float):
        return out + 1.0
    if isinstance(out, np.ndarray):  # the A grid
        return out + 1e-6
    if isinstance(out, int):  # a CLI exit code
        return 2
    if isinstance(out, list) and isinstance(out[0], tuple):  # a V row
        return out[:1] + [(p, v + 1e-3) for p, v in out[1:]]
    if isinstance(out, list):  # Farey records
        r = out[len(out) // 2]
        return out[: len(out) // 2] + [dataclasses.replace(r, a_value=r.a_value + 1e-6)] + out[len(out) // 2 + 1:]
    return dataclasses.replace(out, value=out.value + 1e-3)  # a CertifiedReal


@pytest.mark.parametrize(
    "workload,kind",
    [
        ("quad-near-rational", "a_quadrature"),
        ("tables", "farey_scan"),
        ("tables", "vasyunin_cot"),
        ("tables", "v_row"),
        ("tables", "phi_n"),
        ("tables", "fe_residual"),
        ("tables", "a_unit_grid"),
        ("tables", "cli"),
    ],
)
def test_perturbed_output_counts_as_failed(workload, kind, tmp_path):
    op = _first(workloads.build_ops(workload, 1, str(tmp_path)), kind)
    out = workloads.run_op(op)
    assert workloads.check_op(op, out).ok
    if kind == "fe_residual":
        bad = workloads.FE_BOUND * 10
    else:
        bad = _perturbed(out)
    failures, _ = workloads.check_pass([op], [bad], [None], None)
    assert len(failures) == 1


# A fresh interpreter, so no cot table is cached yet: every binding of the
# public builder returns twice the true cotangents, and the V entries, rows,
# Farey records and A grid built on them must fail their checks.
_SCALED_COT_TABLE = """
import sys
sys.path[:0] = sys.argv[1:3]
import frac_autocorr, workloads
from frac_autocorr import specfun
orig = specfun.cot_pi_frac_table
for m in [m for n, m in sys.modules.items() if n.startswith("frac_autocorr")]:
    for key, value in list(vars(m).items()):
        if value is orig:
            setattr(m, key, lambda q: 2.0 * orig(q))
ops = workloads.build_ops("tables", 1, sys.argv[3])
for kind in ("vasyunin_cot", "v_row", "farey_scan", "a_unit_grid"):
    op = next(op for op in ops if op.kind == kind)
    print(kind, workloads.check_op(op, workloads.run_op(op)).ok)
"""


def test_scaled_cot_table_fails_the_v_checks(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCALED_COT_TABLE, str(ROOT / "src"), str(HERE), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "vasyunin_cot", "False", "v_row", "False", "farey_scan", "False", "a_unit_grid", "False",
    ]


def test_op_medians_take_each_op_over_the_passes():
    passes = [{"latencies_s": [1.0, 5.0]}, {"latencies_s": [3.0, 4.0]}, {"latencies_s": [2.0, 9.0]}]
    assert run.op_medians(passes) == [2.0, 5.0]
    with pytest.raises(ValueError):
        run.op_medians([{"latencies_s": [1.0]}, {"latencies_s": [1.0, 2.0]}])


def test_span_cost_is_positive():
    assert tracing.span_cost(calls=2000, reps=3) > 0


def test_residual_above_its_criterion_bound_fails():
    op = workloads.Op("mellin_residual", ("autocorr", complex(-0.5, 1.0), None))
    assert not workloads.check_op(op, 10 * workloads.MELLIN_BOUND).ok
    assert workloads.check_op(op, 0.1 * workloads.MELLIN_BOUND).ok


def test_raising_op_counts_as_failed():
    ops = [workloads.Op("a_quadrature", (Fraction(-1, 2), 1e-10)), workloads.Op("a_quadrature", (Fraction(1, 2), 1e-10))]
    outs, errors, lat, wall = workloads.run_pass(ops, None)
    failures, _ = workloads.check_pass(ops, outs, errors, None)
    assert [f["op"] for f in failures] == [0]
    assert "DomainError" in failures[0]["why"]
    assert len(lat) == 2 and wall >= sum(lat)


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (piecewise.merged_breakpoints, phi.phi2_unit_grid, specfun.cot_pi_frac_table)
    tr = tracing.Tracer()
    tr.install()
    try:
        bound = tr.bound_names()
        for name in (
            "frac_autocorr.autocorr.merged_breakpoints",
            "frac_autocorr.autocorr.phi2_unit_grid",
            "frac_autocorr.mellin_verify.phi2_unit_grid",
            "frac_autocorr.vasyunin.cot_pi_frac_table",
            "frac_autocorr.phi.hurwitz_zeta_int_vec",
            "frac_autocorr.a_quadrature",
        ):
            assert name in bound
        assert autocorr.merged_breakpoints is not originals[0]
        assert mellin_verify.phi2_unit_grid is autocorr.phi2_unit_grid
    finally:
        tr.uninstall()
    assert (autocorr.merged_breakpoints, mellin_verify.phi2_unit_grid, vasyunin.cot_pi_frac_table) == originals


def test_self_time_excludes_children_and_check_spans():
    tr = tracing.Tracer()
    tr.install()
    try:
        with tr.span("ops"):
            autocorr.a_quadrature(Fraction(3, 7), autocorr.QuadratureConfig(tol=1e-10))
        with tr.span("checks"):
            autocorr.a_rational(3, 7)
    finally:
        tr.uninstall()
    ops = tr.layer_totals("ops")
    assert ops["autocorr.a_quadrature"]["calls"] == 1
    assert ops["piecewise.merged_breakpoints"]["size"] == 3 + 7 - 1
    assert "autocorr.a_rational" not in ops
    assert tr.layer_totals("checks")["autocorr.a_rational"]["calls"] == 1
    total = sum(tr.t1[i] - tr.t0[i] for i in range(len(tr.t0)) if tr.names[tr.name[i]] == "autocorr.a_quadrature")
    self_s = ops["autocorr.a_quadrature"]["self_s"] + ops["piecewise.merged_breakpoints"]["self_s"]
    assert self_s == pytest.approx(total, rel=1e-9)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**{n: u for n, u, _, _ in run.PER_LAYER}, "trace_overhead_frac": "ratio"}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "op_p90_ms", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
