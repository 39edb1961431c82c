"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <mode> <spawn_ns> <out_dir>

``mode`` is ``setup`` (import and report set-up time only), ``plain`` (run
the op list untraced) or ``traced`` (the same with spans around every
layer).  Every pass checks its outputs after the timed loop.  ``spawn_ns`` is the parent's CLOCK_MONOTONIC reading just
before it started this process, so set-up time covers interpreter start-up
and the imports.  Span dumps of traced passes go to ``out_dir``.  The last
stdout line is one JSON object.
"""

import importlib
import sys
import time

WORKLOAD, SEED, MODE, SPAWN_NS, OUT_DIR = sys.argv[1:6]

# Set-up: the package and the modules this workload calls.  The import list
# is repeated here, not read from workloads.py, because importing that file
# would import the whole package before the clock stops.
_IMPORTS = {
    "quad-near-rational": ("frac_autocorr", "frac_autocorr.autocorr"),
    "tables": (
        "frac_autocorr",
        "frac_autocorr.autocorr",
        "frac_autocorr.vasyunin",
        "frac_autocorr.phi",
        "frac_autocorr.estermann",
        "frac_autocorr.mellin_verify",
        "frac_autocorr.cli",
    ),
}
for _name in _IMPORTS[WORKLOAD]:
    importlib.import_module(_name)
SETUP_S = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(SPAWN_NS)) / 1e9

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402

import frac_autocorr  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    if not os.path.abspath(frac_autocorr.__file__).startswith(os.path.abspath("src") + os.sep):
        raise SystemExit(f"frac_autocorr imported from {frac_autocorr.__file__}, not from ./src")
    result = {"setup_s": SETUP_S}
    if MODE == "setup":
        print(json.dumps(result))
        return
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=".") as tmpdir:
        ops = workloads.build_ops(WORKLOAD, int(SEED), tmpdir)
        tr = None
        if MODE == "traced":
            tr = tracing.Tracer()
            tr.install()
        outs, errors, lat, wall = workloads.run_pass(ops, tr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tr is not None:
            cache_info = {
                label: tr.originals[label].cache_info()._asdict()
                for label in ("phi.phi2_unit_grid", "mellin_verify.a_unit_grid")
            }
        failures, stats = workloads.check_pass(ops, outs, errors, tr)
    result.update(
        wall_s=wall,
        latencies_s=lat,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        digest=workloads.digest(outs),
        failures=failures,
        check_stats=stats,
    )
    if tr is not None:
        tr.uninstall()
        layers = tr.layer_totals("ops")
        spans = sum(rec["calls"] for rec in layers.values())
        cost = tracing.span_cost()
        result.update(
            layers=layers,
            check_layers=tr.layer_totals("checks"),
            cache_info=cache_info,
            spans=spans,
            span_cost_s=cost,
            # tracing time over the time the pass would take untraced
            trace_overhead_frac=spans * cost / (wall - spans * cost),
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.dump(os.path.join(OUT_DIR, f"spans-{WORKLOAD}-seed{SEED}-pid{os.getpid()}.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
