"""Vasyunin cotangent sums V(p, q).

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
an entry and the same entry of a whole row are bit-identical.  Each call
builds its own cot table (8q bytes) and frees it on return; the digamma
route keeps its last two tables, since every caller loops p inside one q.
The other routes keep their own int64 remainders; the digamma route
serves q <= 2^20, a cap set by time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NonCoprimeError
from .rational_core import INDEX_RANGE, frac_ratio
from .specfun import COT_TABLE_MAX_Q, PI, cot_pi_frac_table, digamma_vec


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


_V_BLOCK = 1 << 17  # elements per block of _v_rows, so its temporaries stay small


def _v_block(p: np.ndarray, k: np.ndarray, q: int, ct: np.ndarray, x=None, r=None) -> np.ndarray:
    """numpy's pairwise row sums of ((p k) mod q)/q ct for a float64 column p
    and run k, p k exact (below q^2 <= 2^50); frac_ratio's remainder is the
    same double as the int64 (p k % q) / q.  Into buffers x and r if given."""
    x = np.multiply(p, k, out=x)
    r = frac_ratio(x, q, out=r)
    r *= ct
    return r.sum(axis=-1)


def _v_rows(q: int, ps: np.ndarray) -> np.ndarray:
    """V(p, q) for each p of the int64 array ps, every p in [0, q) coprime to
    q, 2 <= q <= 2^25 (DomainError above, before anything is allocated).

    Rows ((p k) mod q)/q cot(k pi/q), k < q, in blocks of at most _V_BLOCK
    elements (a longer row block by block), each summed by _v_block; not by
    BLAS, whose rounding depends on the row count.  A call that fits in one
    block runs on new arrays; a longer one reuses one buffer for all its
    blocks (new arrays per block slowed a_unit_grid(4096) by about 20%).
    """
    if q > COT_TABLE_MAX_Q:
        raise DomainError(f"V(p, q): q = {q} exceeds 2^25, the largest q of the V kernel")
    ct = cot_pi_frac_table(q)
    pf = ps.astype(np.float64)[:, None]
    width = min(q - 1, _V_BLOCK)
    k = INDEX_RANGE[1 : width + 1] if width < INDEX_RANGE.size else np.arange(1.0, width + 1)
    rows = _V_BLOCK // width
    if ps.size <= rows and width == q - 1:
        return _v_block(pf, k[:width], q, ct)
    x, r = np.empty((2, min(rows, ps.size), width))
    out = np.zeros(ps.size, dtype=np.float64)
    for i in range(0, ps.size, rows):
        p = pf[i : i + rows]
        for j in range(0, q - 1, width):
            n = min(width, q - 1 - j)  # n < width only in a row longer than a block
            kb = np.add(k[:n], j, out=x[0, :n]) if j else k[:n]  # then alone: p (k + j), exact
            out[i : i + rows] += _v_block(p, kb, q, ct[j : j + n], x[: p.size, :n], r[: p.size, :n])
    return out


def _v_pairs(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """V(num[i], den[i]) for int64 arrays, each num in [0, den) coprime to den
    (V(0, 1) = 0), by one _v_rows call per distinct denominator."""
    out = np.zeros(den.size, dtype=np.float64)
    order = np.argsort(den)
    for idx in np.split(order, np.flatnonzero(np.diff(den[order])) + 1):
        if idx.size and den[idx[0]] > 1:
            out[idx] = _v_rows(int(den[idx[0]]), num[idx])
    return out


@functools.lru_cache(maxsize=2)  # every caller loops p inside one q
def _psi_table(q: int) -> np.ndarray:
    """psi(k/q) for k = 1 .. q-1."""
    return digamma_vec(np.arange(1, q) / q)


def vasyunin_cot(p: int, q: int) -> float:
    """V(p, q) = sum_{k<q} {kp/q} cot(k pi / q); V(p, 1) = 0."""
    _require_coprime(p, q)
    if q == 1:
        return 0.0
    return float(_v_rows(q, np.array([p % q], dtype=np.int64))[0])


def vasyunin_b1cot(p: int, q: int) -> float:
    """V(p, q) through the half-range form 2 sum_{k<q/2} B_1(kp/q) cot(k pi/q)."""
    _require_coprime(p, q)
    cot = cot_pi_frac_table(q)  # first: past its q cap it raises before the index rows are built
    if q <= 2:
        return 0.0
    half = (q - 1) // 2 if q % 2 else q // 2 - 1
    k = np.arange(1, half + 1, dtype=np.int64)
    r = (k * (p % q)) % q
    b1 = r / q - 0.5  # r = 0 impossible for k < q/2 with gcd(p, q) = 1
    return 2.0 * math.fsum(b1 * cot[:half])


def vasyunin_psi(p: int, q: int) -> float:
    """V(p, q) through the digamma representation -(2/pi) sum B_1(kp/q) psi(k/q)."""
    _require_coprime(p, q)
    if q == 1:
        return 0.0
    return -(2.0 / PI) * vasyunin_noncoprime(p % q, q)


# Denominators of the digamma route, capped by time: it holds about 96 bytes a
# term and takes about 0.3 s at the cap (shared 2-core x86-64, numpy 2.4).
_MAX_PSI_Q = 2**20


def vasyunin_noncoprime(a: int, b: int) -> float:
    """sum_{m<b} B_1(ma/b) psi(m/b) for arbitrary positive a, b.

    Equals -(pi d / 2) V(a/d, b/d) with d = gcd(a, b).  Serves b <= 2^20,
    the digamma route's cap (DomainError above, before anything is allocated).
    """
    if a < 1 or b < 1:
        raise ValueError("vasyunin_noncoprime requires positive integers")
    if b > _MAX_PSI_Q:
        raise DomainError(f"V by digamma: b = {b} exceeds 2^20, the digamma route's cap")
    if b == 1:
        return 0.0
    m = np.arange(1, b, dtype=np.int64)
    r = (m * (a % b)) % b
    b1 = np.where(r == 0, 0.0, r / b - 0.5)
    return math.fsum(b1 * _psi_table(b))


def v_row(q: int) -> list[tuple[int, float]]:
    """(p, V(p, q)) for all coprime 1 <= p <= q, in one kernel call."""
    if q == 1:
        return [(1, 0.0)]
    ps = np.arange(1, q, dtype=np.int64)
    ps = ps[np.gcd(ps, q) == 1]
    return list(zip(ps.tolist(), _v_rows(q, ps).tolist()))
