"""Spans around the public functions of ``frac_autocorr``, recorded from outside.

The package imports functions by name (``from .piecewise import
merged_breakpoints``), so wrapping a function in its defining module alone
would miss most callers.  ``Tracer.install`` replaces every module-level
binding of each target inside the package, and the benchmark's own op code
reaches the package through module attributes, so every call goes through
the wrapper.  Spans live in flat in-memory columns until the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import math
import time
from array import array

PACKAGE = "frac_autocorr"

# (module, function, size of one call or None): the layers the benchmark
# reports.  A size is a count of work items, e.g. lattice points returned.
TARGETS = (
    ("piecewise", "merged_breakpoints", lambda args, out: len(out)),
    ("autocorr", "a_quadrature", None),
    ("autocorr", "a_rational", None),
    ("autocorr", "farey_scan", None),
    ("vasyunin", "vasyunin_cot", None),
    ("vasyunin", "v_row", None),
    ("specfun", "cot_pi_frac_table", lambda args, out: len(out)),
    ("specfun", "hurwitz_zeta", None),
    ("specfun", "hurwitz_zeta_int_vec", lambda args, out: len(out)),
    ("phi", "phi2_unit_grid", None),
    ("phi", "phi_n", None),
    ("mellin_verify", "a_unit_grid", None),
    ("mellin_verify", "mellin_identity_residual", None),
    ("estermann", "estermann", None),
    ("cli", "run", None),
)


class Tracer:
    """Records (parent, name, start, end, size) for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _name_index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            self.names.append(label)
            return len(self.names) - 1

    def _open(self, idx: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.name.append(idx)
        self.t0.append(time.perf_counter())
        self.t1.append(0.0)
        self.size.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.t1[sid] = time.perf_counter()

    def span(self, label: str) -> "_Span":
        """Context manager for a span the benchmark opens itself (a root)."""
        return _Span(self, self._name_index(label))

    def wrap(self, label: str, fn, size_of=None):
        idx = self._name_index(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if size_of is not None:
                self.size[sid] = size_of(args, out)
            return out

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap each target at every binding a module of the package holds."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for modname, attr, size_of in targets:
            label = f"{modname}.{attr}"
            orig = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
            self.originals[label] = orig
            wrapper = self.wrap(label, orig, size_of)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._bindings.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._bindings):
            setattr(m, key, orig)
        self._bindings.clear()

    def bound_names(self) -> list[str]:
        """'module.binding' for every binding replaced by ``install``."""
        return sorted(f"{m.__name__}.{key}" for m, key, _ in self._bindings)

    def layer_totals(self, root_label: str) -> dict[str, dict[str, float]]:
        """Per-name calls, summed size, distinct sizes and self time over the
        spans below the root span ``root_label``; self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.t0)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = i
            else:
                root[i] = root[p]
                child[p] += dur[i]
        keep = {i for i in range(n) if self.parent[i] < 0 and self.names[self.name[i]] == root_label}
        out: dict[str, dict[str, float]] = {}
        sizes: dict[str, set] = {}
        for i in range(n):
            if root[i] not in keep or self.parent[i] < 0:
                continue
            label = self.names[self.name[i]]
            rec = out.setdefault(label, {"calls": 0, "size": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["size"] += self.size[i]
            rec["self_s"] += dur[i] - child[i]
            sizes.setdefault(label, set()).add(self.size[i])
        for label, rec in out.items():
            rec["distinct"] = len(sizes[label])
        return out

    def dump(self, path: str) -> None:
        """Write every span as columns: names, parent, name index, start, end, size."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "parent": self.parent.tolist(),
                    "name": self.name.tolist(),
                    "t0": self.t0.tolist(),
                    "t1": self.t1.tolist(),
                    "size": self.size.tolist(),
                },
                fh,
            )


def span_cost(calls: int = 20000, reps: int = 7) -> float:
    """Seconds one wrapped call adds to a bare call: the best of ``reps``
    timings of ``calls`` calls through a sized wrapper, less the best of as
    many bare ones."""
    tr = Tracer()

    def bare(x):
        return x

    wrapped = tr.wrap("calibrate", bare, lambda args, out: 1)
    best = {bare: math.inf, wrapped: math.inf}
    for _ in range(reps):
        for fn in best:
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return (best[wrapped] - best[bare]) / calls


class _Span:
    def __init__(self, tracer: Tracer, idx: int):
        self._tracer = tracer
        self._idx = idx

    def __enter__(self):
        self._sid = self._tracer._open(self._idx)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._sid)
        return False
