"""Vasyunin cotangent sums V(p, q) and the related trigonometric sums.

Three independent evaluation routes are exposed (cotangent definition,
half-range B_1 form, digamma form) so that they can be played against each
other.  Every value of the defining sum, one entry or a whole row, comes
from one kernel, ``_v_rows``, over a cotangent table per q.  The kernel
takes the remainders (p k) mod q in float64, exactly (q^2 < 2^53), and
serves q <= 2^25 (DomainError above).  Error model: each term carries
about two roundings and numpy's pairwise row sum adds O(log q eps
sum |terms|) (Higham, SIAM J. Sci. Comput. 14, 1993); against a 30-digit
reference the worst error for q <= 4096 is about 5e-16 q (the acceptance
bound is 1e-8 q).  A row's sum does not depend on the rows beside it, so
an entry and the same entry of a whole row are bit-identical.  The other
routes keep their own int64 remainders, independent of the kernel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NonCoprimeError
from .rational_core import frac_ratio
from .specfun import COT_TABLE_MAX_Q, EULER_GAMMA, PI, cot_pi_frac_table, digamma


def modular_inverse(p: int, q: int) -> int:
    """The inverse of p mod q in [1, q]; q = 1 returns 1."""
    if q < 1:
        raise ValueError("modulus must be positive")
    if q == 1:
        return 1
    if math.gcd(p, q) != 1:
        raise NonCoprimeError(f"{p} is not invertible mod {q}")
    r = pow(p % q, -1, q)
    return r if r != 0 else q


def _require_coprime(p: int, q: int) -> None:
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(p, q) != 1:
        raise NonCoprimeError(
            f"gcd({p}, {q}) != 1; use vasyunin_noncoprime for general pairs"
        )


@functools.lru_cache(maxsize=1024)
def _cot_table(q: int) -> np.ndarray:
    return cot_pi_frac_table(q)


_V_BLOCK = 1 << 17  # elements per block of _v_rows, so its temporaries stay small


def _v_rows(q: int, ps: np.ndarray) -> np.ndarray:
    """V(p, q) for each p of the int64 array ps, every p in [0, q) coprime to
    q, 2 <= q <= 2^25 (DomainError above, before anything is allocated).

    Rows ((p k) mod q)/q cot(k pi/q), k < q, in blocks of at most _V_BLOCK
    elements (a longer row block by block), reduced by numpy's pairwise row
    sum; not by BLAS, whose rounding depends on the row count.  Each block
    runs in place on two buffers: p k in float64 (exact, below q^2 <= 2^50),
    then frac_ratio's exact remainder over q, the same double as the int64
    (p k % q) / q, times the cotangents.
    """
    if q > COT_TABLE_MAX_Q:
        raise DomainError(f"V(p, q): q = {q} exceeds 2^25, the largest q of the V kernel")
    ct = _cot_table(q)
    k = np.arange(1.0, q)
    width = min(q - 1, _V_BLOCK)
    rows = _V_BLOCK // width
    pf = ps.astype(np.float64)[:, None]
    x, r = np.empty((2, min(rows, ps.size) * width))
    out = np.zeros(ps.size, dtype=np.float64)
    for i in range(0, ps.size, rows):
        p = pf[i : i + rows]
        for j in range(0, q - 1, width):
            kb = k[j : j + width]
            size = p.size * kb.size
            xb = np.multiply(p, kb, out=x[:size].reshape(p.size, kb.size))
            rb = frac_ratio(xb, q, out=r[:size].reshape(xb.shape))
            rb *= ct[j : j + width]
            out[i : i + rows] += rb.sum(axis=-1)
    return out


def _v_pairs(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """V(num[i], den[i]) for int64 arrays, each num in [0, den) coprime to den
    (V(0, 1) = 0), by one _v_rows call per distinct denominator."""
    out = np.zeros(den.size, dtype=np.float64)
    order = np.argsort(den, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(den[order])) + 1):
        if idx.size and den[idx[0]] > 1:
            out[idx] = _v_rows(int(den[idx[0]]), num[idx])
    return out


@functools.lru_cache(maxsize=1024)
def _psi_table(q: int) -> np.ndarray:
    """psi(k/q) for k = 1 .. q-1."""
    return np.array([digamma(k / q) for k in range(1, q)])


def vasyunin_cot(p: int, q: int) -> float:
    """V(p, q) = sum_{k<q} {kp/q} cot(k pi / q); V(p, 1) = 0."""
    _require_coprime(p, q)
    if q == 1:
        return 0.0
    return float(_v_rows(q, np.array([p % q], dtype=np.int64))[0])


def vasyunin_b1cot(p: int, q: int) -> float:
    """V(p, q) through the half-range form 2 sum_{k<q/2} B_1(kp/q) cot(k pi/q)."""
    _require_coprime(p, q)
    if q <= 2:
        return 0.0
    half = (q - 1) // 2 if q % 2 else q // 2 - 1
    k = np.arange(1, half + 1, dtype=np.int64)
    r = (k * (p % q)) % q
    b1 = r / q - 0.5  # r = 0 impossible for k < q/2 with gcd(p, q) = 1
    return 2.0 * math.fsum(b1 * _cot_table(q)[: half])


def vasyunin_psi(p: int, q: int, form: str = "b1") -> float:
    """V(p, q) through the digamma representation.

    form="b1":   -(2/pi) sum B_1(kp/q) psi(k/q)
    form="frac": -(2/pi) sum {kp/q} psi(k/q) - (q/pi)(log q + gamma) + gamma/pi

    The gamma/pi term is the k = q contribution of the digamma sum identity
    sum_{k<=q} psi(k/q) = -q(log q + gamma), which the half-open sum misses.
    """
    _require_coprime(p, q)
    if q == 1:
        return 0.0
    k = np.arange(1, q, dtype=np.int64)
    r = (k * (p % q)) % q
    psi = _psi_table(q)
    if form == "b1":
        b1 = np.where(r == 0, 0.0, r / q - 0.5)
        return -(2.0 / PI) * math.fsum(b1 * psi)
    if form == "frac":
        return (
            -(2.0 / PI) * math.fsum((r / q) * psi)
            - (q / PI) * (math.log(q) + EULER_GAMMA)
            + EULER_GAMMA / PI
        )
    raise ValueError(f"unknown form {form!r}")


def vasyunin_noncoprime(a: int, b: int, form: str = "b1") -> float:
    """sum_{m<b} B_1(ma/b) psi(m/b) for arbitrary positive a, b.

    Equals -(pi d / 2) V(a/d, b/d) with d = gcd(a, b).  form="frac" gives
    the companion sum_{m<b} {ma/b} psi(m/b), which carries the extra
    -(b/2)(log b + gamma) + (d/2)(log d + gamma) correction.
    """
    if a < 1 or b < 1:
        raise ValueError("vasyunin_noncoprime requires positive integers")
    if b == 1:
        return 0.0
    m = np.arange(1, b, dtype=np.int64)
    r = (m * (a % b)) % b
    psi = _psi_table(b)
    if form == "b1":
        b1 = np.where(r == 0, 0.0, r / b - 0.5)
        return math.fsum(b1 * psi)
    if form == "frac":
        return math.fsum((r / b) * psi)
    raise ValueError(f"unknown form {form!r}")


def trig_kl_sum(p: int, q: int) -> complex:
    """sum_{1<=k,l<=q} k l e^{2 pi i k l p / q} by direct double sum (q <= 512)."""
    _require_coprime(p, q)
    if q > 512:
        raise DomainError(f"trig_kl_sum: direct double sum limited to q <= 512, got q = {q}")
    k = np.arange(1, q + 1, dtype=np.int64)
    kl = np.outer(k, k)
    idx = (kl * (p % q)) % q
    roots = np.exp(2j * PI * np.arange(q) / q)
    return complex((kl * roots[idx]).sum())


def centered_trig_sum(p: int, q: int) -> complex:
    """sum_{1<=k,l<=q} (1/2 - k/q)(1/2 - l/q) e^{2 pi i k l p / q}."""
    _require_coprime(p, q)
    if q > 512:
        raise DomainError(f"centered_trig_sum: direct double sum limited to q <= 512, got q = {q}")
    k = np.arange(1, q + 1, dtype=np.int64)
    w = 0.5 - k / q
    idx = (np.outer(k, k) * (p % q)) % q
    roots = np.exp(2j * PI * np.arange(q) / q)
    return complex((np.outer(w, w) * roots[idx]).sum())


def v_row(q: int) -> list[tuple[int, float]]:
    """(p, V(p, q)) for all coprime 1 <= p <= q, in one kernel call."""
    if q == 1:
        return [(1, 0.0)]
    ps = np.arange(1, q, dtype=np.int64)
    ps = ps[np.gcd(ps, q) == 1]
    return list(zip(ps.tolist(), _v_rows(q, ps).tolist()))
