"""Shared fixtures, oracles and the acceptance-criteria reporting hook."""

from __future__ import annotations

import functools

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {status}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(set(ACCEPTANCE_LINES)):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


@functools.lru_cache(maxsize=2)
def divisor_sieve(n: int) -> np.ndarray:
    """tau(k) for k = 0 .. n (tau(0) unused), for the divisor-weighted sums."""
    tau = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        tau[d::d] += 1
    return tau
