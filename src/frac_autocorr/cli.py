"""Command-line front end: values, Farey sweeps, check suites, table dumps.

Exit codes: 0 success, 1 check-suite failure (with a JSON failure report on
stdout), 2 usage error or a run out of memory.  All floats print with 17
significant digits so the output round-trips binary64 exactly; runs are
deterministic for a given argument vector.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import autocorr, checks, estermann, phi, specfun, vasyunin
from .errors import FracAutocorrError


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g} {x.imag:+.17g}i"
    return f"{float(x):.17g}"


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _cmd_value(args) -> int:
    kind = args.quantity
    out: dict[str, object] = {"quantity": kind, "args": args.args}
    if kind == "A":
        lam = Fraction(args.args[0])
        closed = autocorr.a_rational(lam.numerator, lam.denominator)
        quad = autocorr.a_quadrature(lam)
        out["value"] = closed
        out["quadrature"] = quad.value
        out["agreement_radius"] = abs(closed - quad.value) + quad.err
        lines = [
            f"A({lam}) = {_fmt(closed)}",
            f"quadrature = {_fmt(quad.value)} (radius {_fmt(quad.err)})",
            f"two-path agreement radius = {_fmt(out['agreement_radius'])}",
        ]
    elif kind == "V":
        p, q = int(args.args[0]), int(args.args[1])
        v = vasyunin.vasyunin_cot(p, q)
        out["value"] = v
        lines = [f"V({p},{q}) = {_fmt(v)}"]
    elif kind == "phi1":
        p, q = int(args.args[0]), int(args.args[1])
        v = phi.phi1_rational(p, q)
        out["value"] = v
        lines = [f"phi1({p}/{q}) = {_fmt(v)}"]
    elif kind == "phi2":
        x = Fraction(args.args[0])
        r = phi.phi_n(2, x)
        out["value"] = r.value
        out["radius"] = r.err
        lines = [f"phi2({x}) = {_fmt(r.value)} (radius {_fmt(r.err)})"]
    elif kind in ("E", "G0", "G1"):
        s = _parse_complex(args.args[0])
        h, k = int(args.args[1]), int(args.args[2])
        fn = {"E": estermann.estermann, "G0": estermann.g0, "G1": estermann.g1}[kind]
        v = fn(s, h, k)
        out["value"] = [v.real, v.imag]
        lines = [f"{kind}({s}; {h}/{k}) = {_fmt(v)}"]
    else:  # gamma_rq; argparse's choices admit no other quantity
        r_, q = int(args.args[0]), int(args.args[1])
        v = specfun.lehmer_gamma(r_, q)
        out["value"] = v
        lines = [f"gamma({r_},{q}) = {_fmt(v)}"]
    if args.format == "json":
        print(json.dumps(out))
    else:
        print("\n".join(lines))
    return 0


def _cmd_scan_farey(args) -> int:
    records = autocorr.farey_scan(args.order, Fraction(args.lo), Fraction(args.hi))
    autocorr.write_farey_csv(records, args.out)
    if args.svg:
        autocorr.write_farey_svg(records, args.svg)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_check(args) -> int:
    results = checks.run_suite(args.suite)
    failures = []
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.suite}:{r.name}  value={_fmt(r.value)}  bound={_fmt(r.bound)}")
        if not r.ok:
            failures.append(
                {"suite": r.suite, "name": r.name, "value": r.value, "bound": r.bound}
            )
    worst = max(
        (r.value / r.bound) if r.bound else (math.inf if r.value > 0 else 0.0)
        for r in results
    )
    print(f"max residual ratio = {_fmt(worst)}")
    if failures:
        print(json.dumps({"failures": failures}))
        return 1
    return 0


def _cmd_dump(args) -> int:
    if args.table == "vtable":
        with open(args.out, "w", newline="\n") as fh:
            fh.write("q,p,V\n")
            for q in range(1, args.qmax + 1):
                for p, v in vasyunin.v_row(q):
                    fh.write(f"{q},{p},{v:.17g}\n")
        print(f"wrote vtable for q <= {args.qmax} to {args.out}")
        return 0
    if args.table == "fe-residuals":
        rows = list(checks.fe_residual_rows(args.seed, args.count, args.qmax))
        header, what = "which,s_re,s_im,h,k,residual", "functional-equation"
    else:  # mellin-residuals
        rows = list(checks.mellin_residual_rows())
        header, what = "which,s_re,s_im,p,q,residual", "Mellin"
    with open(args.out, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for which, s, a, b, r in rows:
            fh.write(f"{which},{s.real:.17g},{s.imag:.17g},{a},{b},{r:.17g}\n")
    print(f"wrote {len(rows)} {what} residuals to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frac-autocorr",
        description="Values, sweeps and verification suites for the "
        "fractional-part autocorrelation toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("value", help="evaluate one quantity")
    p_val.add_argument("quantity", choices=["A", "V", "phi1", "phi2", "E", "G0", "G1", "gamma_rq"])
    p_val.add_argument("args", nargs="+", help="A p/q | V p q | phi1 p q | phi2 p/q | "
                       "E s h k | G0 s h k | G1 s h k | gamma_rq r q")
    p_val.add_argument("--format", choices=["text", "json"], default="text")
    p_val.set_defaults(fn=_cmd_value)

    p_scan = sub.add_parser("scan-farey", help="Farey sweep of A to CSV")
    p_scan.add_argument("--order", type=int, required=True)
    p_scan.add_argument("--lo", default="0")
    p_scan.add_argument("--hi", default="1")
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--svg", default=None)
    p_scan.set_defaults(fn=_cmd_scan_farey)

    p_chk = sub.add_parser("check", help="run a named verification suite")
    p_chk.add_argument("--suite", required=True,
                       choices=["fracpart", "vasyunin", "estermann", "autocorr", "mellin", "all"])
    p_chk.set_defaults(fn=_cmd_check)

    p_dump = sub.add_parser("dump", help="dump a table as CSV")
    p_dump.add_argument("table", choices=["vtable", "fe-residuals", "mellin-residuals"])
    p_dump.add_argument("--qmax", type=int, default=20)
    p_dump.add_argument("--count", type=int, default=10, help="fe-residuals: points per equation")
    p_dump.add_argument("--seed", type=int, default=1)
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(fn=_cmd_dump)
    return ap


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code (0 ok, 1 check failure, 2 usage or memory)."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (FracAutocorrError, ValueError, ZeroDivisionError, KeyError, MemoryError) as exc:
        # str(MemoryError()) is empty, so the type is named
        detail = f"MemoryError {exc}".rstrip() if isinstance(exc, MemoryError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
