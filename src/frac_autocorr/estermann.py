"""The Estermann function E(s; h/k), its sine/cosine parts, and G_0, G_1.

The single authoritative evaluation path is the Hurwitz-zeta double sum

    E(s; h/k) = k^{-2s} sum_{1<=j,l<=k} e^{2 pi i j l h / k} z(s, j/k) z(s, l/k),

valid on the whole plane minus s = 1.  The inner sum over l is one
length-k DFT of the Hurwitz row, Z(m) = sum_l z(s, l/k) e(lm/k), so

    E(s; h/k) = k^{-2s} sum_j z(s, j/k) Z((j h) mod k),

O(k log k) time and O(k) memory per (s, k); the row and its DFT are
cached together, so E(s; h/k) and E(s; -h/k) cost one gather each.  Error
model: the FFT adds about eps log k relative to sum_j |z(s, j/k)|, so the
result moves by about eps log k (sum_j |z(s, j/k)|)^2 |k^{-2s}| from the
direct O(k^2) sum of the same row (at most 8e-16 of that scale over 300
random strip points, k <= 512); the row carries the Hurwitz zeta's own
error.  The functional equations are used only as checks, never as the
evaluation route.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonCoprimeError, PoleError
from .phi import _c_plus
from .specfun import LOG_2PI, PI, gamma_fn, hurwitz_zeta
from .vasyunin import modular_inverse

# The range over which the DFT route's error was measured against the O(k^2)
# sum (at most 7.8e-16 of the scale); the route itself needs only O(k) memory.
_MAX_K = 512


def _require_coprime(h: int, k: int) -> None:
    if k < 1:
        raise DomainError(f"Estermann points require k >= 1, got k = {k}")
    if math.gcd(h, k) != 1:
        raise NonCoprimeError(f"Estermann points require coprime h, k; gcd({h}, {k}) != 1")


@dataclass(frozen=True)
class LaurentData:
    """Singular part at ``location``: list of (order, coefficient) pairs
    with strictly increasing orders (order -n is the (s-s0)^{-n} term)."""

    location: complex
    coefficients: tuple


# A call reuses its row at s (E(s; h/k) with E(s; -h/k)) and at 1 - s (each
# functional equation), and criterion 5 one row per k: maxsizes 2, 8, 64 and
# 4096 gave the same hits over the check suites, so 8 rows (about 128 KB at
# k = 512) hold all the reuse there is, where 4096 held up to 64 MB.
@functools.lru_cache(maxsize=8)
def _hurwitz_row(s: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The row z_l = zeta(s, l/k), l = 1..k, stored with l = k at index 0,
    and its transform Z(m) = sum_l z_l e(lm/k), both read-only."""
    row = np.roll(hurwitz_zeta(s, np.arange(1, k + 1) / k), 1)
    dft = np.fft.ifft(row, norm="forward")
    row.flags.writeable = False
    dft.flags.writeable = False
    return row, dft


def estermann(s: complex | float, h: int, k: int) -> complex:
    """E(s; h/k) = k^{-2s} sum_j zeta(s, j/k) Z((j h) mod k); k = 1 gives zeta(s)^2."""
    s = complex(s)
    if s == 1:
        raise PoleError("Estermann double pole at s=1", location=1.0 + 0.0j)
    _require_coprime(h, k)
    if k > _MAX_K:
        raise DomainError(f"estermann limited to k <= {_MAX_K}, got k = {k}")
    row, dft = _hurwitz_row(s, k)
    idx = (np.arange(k, dtype=np.int64) * (h % k)) % k
    return complex(cmath.exp(-2.0 * s * math.log(k)) * (row * dft[idx]).sum())


def esin(s: complex | float, h: int, k: int) -> complex:
    """Esin(s; h/k) = (E(s;h/k) - E(s;-h/k)) / 2i; entire, the value at the
    removable point s = 1 is recovered by symmetric epsilon offsets."""
    s = complex(s)
    if s == 1:
        def g(eps: float) -> complex:
            return 0.5 * (esin(1.0 + eps, h, k) + esin(1.0 - eps, h, k))

        e = 1e-2
        return (4.0 * g(e / 2.0) - g(e)) / 3.0
    a = estermann(s, h, k)
    b = estermann(s, -h, k)
    return (a - b) / 2j


def ecos(s: complex | float, h: int, k: int) -> complex:
    """Ecos(s; h/k) = (E(s;h/k) + E(s;-h/k)) / 2."""
    s = complex(s)
    if s == 1:
        raise PoleError("Ecos double pole at s=1", location=1.0 + 0.0j)
    return 0.5 * (estermann(s, h, k) + estermann(s, -h, k))


def g0(s: complex | float, h: int, k: int) -> complex:
    """G_0(s; h/k) = cos(pi s/2) Ecos - sin(pi s/2) Esin."""
    s = complex(s)
    if s == 1:
        raise PoleError("G_0 simple pole at s=1", location=1.0 + 0.0j)
    return cmath.cos(PI * s / 2.0) * ecos(s, h, k) - cmath.sin(PI * s / 2.0) * esin(
        s, h, k
    )


def g1(s: complex | float, h: int, k: int) -> complex:
    """G_1(s; h/k) = (2 pi)^{-s} Gamma(s) G_0(s+2; h/k); poles at 0, -1, -2, ..."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.25 and abs(s.real - round(s.real)) < 1e-12:
        laurent = None
        if round(s.real) == -1:
            c = PI * PI / k
            laurent = LaurentData(
                location=-1.0 + 0.0j,
                coefficients=((-2, complex(c)), (-1, complex(-c * _c_plus(h, k)))),
            )
        elif round(s.real) == -2:
            laurent = LaurentData(
                location=-2.0 + 0.0j, coefficients=((-1, complex(PI * PI / 2.0)),)
            )
        raise PoleError(f"G_1 pole at s={s}", location=s, laurent=laurent)
    return cmath.exp(-s * LOG_2PI) * gamma_fn(s) * g0(s + 2.0, h, k)


def _chi(s: complex, k: int) -> complex:
    """2 (2 pi)^{2s-2} Gamma^2(1-s) k^{1-2s}."""
    g = gamma_fn(1.0 - s)
    return 2.0 * cmath.exp((2.0 * s - 2.0) * LOG_2PI) * g * g * k ** (1.0 - 2.0 * s)


def functional_equation_residual(which: str, s: complex | float, h: int, k: int) -> float:
    """|LHS - RHS| / (1 + |LHS|) for the selected functional equation."""
    s = complex(s)
    hbar = modular_inverse(h, k)
    if which == "E":
        lhs = estermann(s, h, k)
        rhs = _chi(s, k) * (
            estermann(1.0 - s, hbar, k)
            - cmath.cos(PI * s) * estermann(1.0 - s, -hbar, k)
        )
    elif which == "Esin":
        lhs = esin(s, h, k)
        rhs = _chi(s, k) * (1.0 + cmath.cos(PI * s)) * esin(1.0 - s, hbar, k)
    elif which == "Ecos":
        lhs = ecos(s, h, k)
        rhs = _chi(s, k) * (1.0 - cmath.cos(PI * s)) * ecos(1.0 - s, hbar, k)
    elif which == "G0":
        lhs = g0(s, h, k)
        rhs = _chi(s, k) * cmath.sin(PI * s) * g0(1.0 - s, hbar, k)
    elif which == "G1":
        lhs = g1(s, h, k)
        rhs = (
            k ** (-2.0 * s - 3.0)
            * (s + 2.0)
            * (s + 3.0)
            / (s * (s + 1.0))
            * g1(-s - 3.0, hbar, k)
        )
    else:
        raise ValueError(f"unknown functional equation {which!r}")
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def laurent_coefficient(f, s0: complex, order: int, eps: float = 1e-2, m: int = 24) -> complex:
    """Coefficient of (s - s0)^order by a discrete Cauchy integral on an
    eps-circle, Richardson-extrapolated over eps and eps/2."""

    def ring(e: float) -> complex:
        total = 0.0 + 0.0j
        for j in range(m):
            w = cmath.exp(2j * PI * j / m)
            total += f(s0 + e * w) * w ** (-order)
        return total / m * e ** (-order)

    c1, c2 = ring(eps), ring(eps / 2.0)
    # leading alias decays like eps; one Richardson step removes it
    return 2.0 * c2 - c1
