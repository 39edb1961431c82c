"""The repository benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 55 --trace 0

Run it from the root of a source tree that holds ``src/frac_autocorr``.
Every pass of the workload's op list runs in a fresh interpreter (caches
start cold, as for a command-line user), one process at a time with the
BLAS pool pinned to one thread.  Set-up time is the median of the
import-only interpreters started before every pass.  A run makes at least
three passes and more while the next one is expected to end within
``--seconds``.  Each op's latency is its median over the passes;
``wall_s`` is the sum of those medians and ``op_p90_ms`` their 90th
percentile.  Every pass checks its outputs, untimed.  ``--trace 0``
makes untraced passes and reports the end-to-end metrics; ``--trace 1``
makes traced passes and reports the per-layer metrics and the tracing
overhead the passes estimate from their span counts.  The last
stdout line is the result object; the line before it holds the details
(environment, passes, sample counts, failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("quad-near-rational", "tables")
SETUP_PER_PASS = 2  # set-up samples taken before each pass, spread over the run
SETUP_WARMUPS = 2  # byte-compile the sources and warm the file cache; not measured
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
OUT_DIR = ".perfbench-out"  # span dumps of traced passes

NEAR = ("quad-near-rational",)
TABLES = ("tables",)


def _layer(label, key):
    return lambda p: p["layers"].get(label, {}).get(key, 0)


def _cache_misses(label):
    return lambda p: p["cache_info"][label]["misses"]


def _radius(stat, reduce):
    return lambda p: reduce([s[stat] for s in p["check_stats"]]) if p["check_stats"] else 0.0


# name, unit, value from one traced pass, workloads on which it must be non-zero
PER_LAYER = (
    ("piecewise.merged_breakpoints.self_s", "s", _layer("piecewise.merged_breakpoints", "self_s"), NEAR),
    ("piecewise.merged_breakpoints.calls", "count", _layer("piecewise.merged_breakpoints", "calls"), NEAR),
    ("piecewise.merged_breakpoints.points", "count", _layer("piecewise.merged_breakpoints", "size"), NEAR),
    ("piecewise.merged_breakpoints.bytes_computed", "bytes",
     lambda p: 8 * _layer("piecewise.merged_breakpoints", "size")(p), NEAR),
    ("autocorr.a_quadrature.self_s", "s", _layer("autocorr.a_quadrature", "self_s"), NEAR),
    ("autocorr.a_quadrature.calls", "count", _layer("autocorr.a_quadrature", "calls"), NEAR),
    ("autocorr.a_quadrature.radius_use_max", "ratio", _radius("radius_use", max), NEAR),
    ("autocorr.a_quadrature.err_over_tol_p50", "ratio", _radius("err_over_tol", statistics.median), NEAR),
    ("autocorr.farey_scan.self_s", "s", _layer("autocorr.farey_scan", "self_s"), TABLES),
    ("autocorr.a_rational.calls", "count", _layer("autocorr.a_rational", "calls"), TABLES),
    ("vasyunin.vasyunin_cot.self_s", "s", _layer("vasyunin.vasyunin_cot", "self_s"), TABLES),
    ("vasyunin.vasyunin_cot.calls", "count", _layer("vasyunin.vasyunin_cot", "calls"), TABLES),
    ("vasyunin.v_row.self_s", "s", _layer("vasyunin.v_row", "self_s"), TABLES),
    ("specfun.cot_pi_frac_table.calls", "count", _layer("specfun.cot_pi_frac_table", "calls"), TABLES),
    ("specfun.cot_pi_frac_table.distinct_q", "count", _layer("specfun.cot_pi_frac_table", "distinct"), TABLES),
    ("phi.phi2_unit_grid.self_s", "s", _layer("phi.phi2_unit_grid", "self_s"), TABLES),
    ("phi.phi2_unit_grid.builds", "count", _cache_misses("phi.phi2_unit_grid"), TABLES),
    ("phi.phi_n.self_s", "s", _layer("phi.phi_n", "self_s"), TABLES),
    ("phi.phi_n.calls", "count", _layer("phi.phi_n", "calls"), TABLES),
    ("mellin_verify.a_unit_grid.self_s", "s", _layer("mellin_verify.a_unit_grid", "self_s"), TABLES),
    ("mellin_verify.a_unit_grid.builds", "count", _cache_misses("mellin_verify.a_unit_grid"), TABLES),
    ("mellin_verify.mellin_identity_residual.self_s", "s",
     _layer("mellin_verify.mellin_identity_residual", "self_s"), TABLES),
    ("estermann.estermann.self_s", "s", _layer("estermann.estermann", "self_s"), TABLES),
    ("estermann.estermann.calls", "count", _layer("estermann.estermann", "calls"), TABLES),
    ("specfun.hurwitz_zeta.self_s", "s", _layer("specfun.hurwitz_zeta", "self_s"), TABLES),
    ("specfun.hurwitz_zeta.calls", "count", _layer("specfun.hurwitz_zeta", "calls"), TABLES),
    ("specfun.hurwitz_zeta_int_vec.elements", "count", _layer("specfun.hurwitz_zeta_int_vec", "size"), TABLES),
    ("cli.run.self_s", "s", _layer("cli.run", "self_s"), TABLES),
)


class BenchError(RuntimeError):
    """The benchmark itself could not produce a valid measurement."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(args, env, deadline: float) -> dict:
    """Runs one child interpreter to completion; returns its result object."""
    workload, seed, mode = args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode, str(spawn_ns), OUT_DIR],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(latencies_s: list[float]) -> float:
    return statistics.quantiles(latencies_s, n=10, method="inclusive")[-1]


def op_medians(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes (all run the same op list)."""
    return [statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in passes), strict=True)]


def _environment(root: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "frac_autocorr", "__init__.py")):
        raise BenchError(f"no src/frac_autocorr under {root}: run from the root of a source tree")
    env = _child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    for _ in range(SETUP_WARMUPS):
        _spawn((workload, seed, "setup"), env, deadline)

    # At least MIN_PASSES passes, and another while the longest one still
    # fits.  Set-up samples go before every pass, so they see the same
    # stretch of host speed as the passes do.
    mode = "traced" if trace else "plain"
    passes: list[dict] = []
    setups: list[float] = []
    t_end = time.monotonic() + seconds
    longest = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() + longest <= t_end:
        t0 = time.monotonic()
        setups += [_spawn((workload, seed, "setup"), env, deadline)["setup_s"] for _ in range(SETUP_PER_PASS)]
        passes.append(_spawn((workload, seed, mode), env, deadline))
        longest = max(longest, time.monotonic() - t0)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    same_outputs = len({p["digest"] for p in passes}) == 1

    if trace:
        metrics = {}
        for name, unit, value, must in PER_LAYER:
            v = statistics.median(value(p) for p in passes)
            if workload in must and v == 0:
                raise BenchError(f"per-layer metric {name} reads 0 on {workload}, which exercises it")
            metrics[name] = {"value": v, "unit": unit}
        overhead = statistics.median(p["trace_overhead_frac"] for p in passes)
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        per_op = op_medians(passes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": math.fsum(per_op), "unit": "s"},
            "op_p90_ms": {"value": 1e3 * _p90(per_op), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    details = {
        "workload": workload,
        "environment": _environment(root, seed),
        "setup_samples_s": setups,
        "passes": [
            {
                "mode": mode,
                "wall_s": p["wall_s"],
                "op_p90_ms": 1e3 * _p90(p["latencies_s"]),
                "op_samples": len(p["latencies_s"]),
                "peak_rss_mb": p["peak_rss_mb"],
                "failed": len(p["failures"]),
                **({k: p[k] for k in ("spans", "span_cost_s", "trace_overhead_frac")} if trace else {}),
            }
            for p in passes
        ],
        "op_p90_samples": len(passes[0]["latencies_s"]),
        "op_median_samples": len(passes),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "outputs_identical_across_passes": same_outputs,
    }
    if trace:
        details["cache_info"] = passes[0]["cache_info"]
        details["check_layers"] = passes[0]["check_layers"]
    result = {
        "correct": not failures and same_outputs,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
