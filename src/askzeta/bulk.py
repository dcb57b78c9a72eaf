"""Vectorised enumeration internals (numpy).

Everything here is exact integer arithmetic mod p^n carried out on int64
arrays; callers turn the resulting exponent histograms into exact rationals.
Chunked enumeration keeps memory flat and makes results independent of the
partitioning, so partial histograms can be combined in any order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import prod
from typing import Iterator

import numpy as np

__all__ = [
    "BudgetExceededError",
    "batch_smith_exponents",
    "batch_kernel_exponents",
    "check_evaluation_bound",
    "iter_vector_chunks",
    "census_of_stack",
    "orbit_censuses",
]

# Keep p^n small enough that entry * entry stays inside int64.
_MAX_MODULUS = 1 << 31
_INT64_LIMIT = 1 << 63
# Matrix entries evaluated per chunk of a census sweep.
_CHUNK_ELEMENTS = 1 << 21


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget; nothing was computed."""

    def __init__(self, required: int, budget: int, level: int | None = None):
        self.required = required
        self.budget = budget
        self.level = level
        where = f" at level {level}" if level is not None else ""
        super().__init__(
            f"enumeration{where} needs {required} evaluations, budget is {budget}"
        )


@lru_cache(maxsize=None)
def _valuation_table(p: int, n: int) -> np.ndarray:
    """val[x] = p-adic valuation of x mod p^n, n for 0; uint8, as n <= 31."""
    vals = np.zeros(p**n, dtype=np.uint8)
    for v in range(1, n + 1):
        vals[:: p**v] = v
    return vals


@lru_cache(maxsize=None)
def _inverse_table(p: int, n: int) -> np.ndarray:
    """inv[u] = u^-1 mod p^n for units u, 0 elsewhere.

    Inverses mod p come from Fermat (u^(p-2)), then Newton steps
    x <- x (2 - u x) double the p-adic precision up to p^n. Every product
    stays below p^(2n) <= 2^62.
    """
    pn = p**n
    residues = np.arange(p, dtype=np.int64)
    inv_p = np.ones(p, dtype=np.int64)
    base, k = residues, p - 2
    while k:
        if k & 1:
            inv_p = inv_p * base % p
        base = base * base % p
        k >>= 1
    u = np.arange(pn, dtype=np.int64)
    residue = u % p
    inv = inv_p[residue]
    precision = 1
    while precision < n:
        inv = inv * ((2 - u * inv) % pn) % pn
        precision *= 2
    inv[residue == 0] = 0
    return inv


def batch_smith_exponents(mats: np.ndarray, p: int, n: int) -> np.ndarray:
    """Elementary divisor exponents for a batch of matrices over Z/p^n.

    mats has shape (N, d, e); the result has shape (N, min(d, e)), each row
    ascending in [0, n]. Step k works on the trailing (d-k) x (e-k) block
    only: it pivots on the entry of minimal valuation (first in row-major
    order, as ring.smith_exponents does), swaps it to the corner, clears the
    rows below it and keeps the remainder. That pivot divides every entry
    left, so each later pivot has no smaller valuation, and clearing the
    pivot's columns would change only its row, which no later step reads.
    Matrices whose block is zero drop out with exponent n; after the last
    pivot nothing is eliminated. Valuations come from a uint8 table of p^n
    entries (n <= 31 below the 2^31 modulus bound).
    """
    mats = np.asarray(mats, dtype=np.int64)
    N, d, e = mats.shape
    m = min(d, e)
    out = np.full((N, m), n, dtype=np.int64)
    if N == 0 or m == 0 or n == 0:
        return out
    pn = p**n
    if pn > _MAX_MODULUS:
        raise ValueError(f"modulus {p}^{n} too large for vectorised arithmetic")
    val = _valuation_table(p, n)
    inv = _inverse_table(p, n)
    power = p ** np.arange(n + 1, dtype=np.int64)

    work = mats % pn
    alive = np.arange(N)
    for k in range(m):
        nw, r, c = work.shape
        vals = val[work.reshape(nw, r * c)]
        pos = vals.argmin(axis=1)
        vmin = vals[np.arange(nw), pos]
        live = vmin < n
        out[alive[live], k] = vmin[live]
        if k == m - 1 or not live.any():
            break
        if not live.all():
            work, alive, pos, vmin = work[live], alive[live], pos[live], vmin[live]
        ar = np.arange(alive.size)
        i, j = np.divmod(pos, c)
        row, col = work[ar, i], work[ar, :, j]
        pv = power[vmin]
        iu = inv[row[ar, j] // pv]
        # swap row i with row 0 and column j with column 0, then drop both
        work[ar, i], col[ar, i] = work[:, 0], col[:, 0]
        work[ar, :, j], row[ar, j] = work[:, :, 0], row[:, 0]
        f = (col[:, 1:] // pv[:, None]) * iu[:, None] % pn
        work = (work[:, 1:, 1:] - f[:, :, None] * row[:, None, 1:]) % pn
    return out


def batch_kernel_exponents(mats: np.ndarray, p: int, n: int) -> np.ndarray:
    """Exponents k with |Ker| = p^k for each d x e matrix in the batch."""
    N, d, e = mats.shape
    m = min(d, e)
    exps = batch_smith_exponents(mats, p, n)
    return exps.sum(axis=1) + n * (d - m)


def check_evaluation_bound(l: int, pn: int) -> None:
    """Refuse evaluations whose int64 sums could overflow.

    Evaluating A(a) sums l products of a coordinate and a coefficient, both
    in [0, p^n), so every sum stays exact when l (p^n - 1)^2 < 2^63.
    """
    if l * (pn - 1) ** 2 >= _INT64_LIMIT:
        raise ValueError(
            f"{l} parameters over Z/{pn} break the int64 bound l (p^n - 1)^2 < 2^63"
        )


def iter_vector_chunks(q: int, length: int, chunk: int) -> Iterator[np.ndarray]:
    """All vectors of (Z/q)^length in row-major order, in chunks."""
    total = q**length
    if length == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    weights = np.array([q ** (length - 1 - h) for h in range(length)], dtype=np.int64)
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        yield (idx[:, None] // weights[None, :]) % q
        start = stop


def census_of_stack(coeffs: np.ndarray, p: int, n: int) -> list[dict[int, int]]:
    """Kernel-size exponent histograms for a stack of tensors, one shared sweep.

    coeffs has shape (T, l, d, e), entries reduced mod p^n. For every tensor t
    the full parameter space (Z/p^n)^l is enumerated; the returned histogram
    maps an exponent k to the number of parameter vectors whose evaluated
    matrix has kernel size p^k. The einsum needs l (p^n - 1)^2 < 2^63;
    other inputs raise ValueError before anything is enumerated.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    T, l, d, e = coeffs.shape
    pn = p**n
    check_evaluation_bound(l, pn)
    flat = coeffs.reshape(T, l, d * e)
    width = n * d + 1
    counts = np.zeros(T * width, dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, T * d * e))
    for avec in iter_vector_chunks(pn, l, chunk):
        cN = avec.shape[0]
        # nonnegative and below the int64 bound; the kernel reduces it mod p^n
        mats = np.einsum("cl,tlf->tcf", avec, flat, optimize=True)
        ks = batch_kernel_exponents(mats.reshape(T * cN, d, e), p, n)
        offs = np.repeat(np.arange(T, dtype=np.int64) * width, cN)
        counts += np.bincount(ks + offs, minlength=T * width)
    result = []
    for t in range(T):
        row = counts[t * width : (t + 1) * width]
        result.append({int(k): int(v) for k, v in enumerate(row) if v})
    return result


def _orbit_representatives(p: int, n: int, l: int, chunk: int) -> Iterator[np.ndarray]:
    """One vector from each unit orbit of the primitive vectors of (Z/p^n)^l, in chunks.

    The representative has 1 at its first unit coordinate j, coordinates in
    pZ/p^n before j and arbitrary coordinates after it: block j holds
    p^((n-1) j + n (l-1-j)) vectors, p^((n-1)(l-1)) (p^l - 1)/(p - 1) in all.
    """
    pn = p**n
    # block j: radix[j][h] values of coordinate h, scaled by step[j][h]
    radix = [[p ** (n - 1)] * j + [1] + [pn] * (l - 1 - j) for j in range(l)]
    step = [[p] * j + [1] * (l - j) for j in range(l)]
    weight = [[prod(row[h + 1 :]) for h in range(l)] for row in radix]
    offsets = list(accumulate((prod(row) for row in radix), initial=0))
    radix, step, weight, offsets = (
        np.array(t, dtype=np.int64) for t in (radix, step, weight, offsets)
    )
    unit = np.eye(l, dtype=np.int64)
    total = int(offsets[-1])
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        j = np.searchsorted(offsets, idx, side="right") - 1
        local = idx - offsets[j]
        yield (local[:, None] // weight[j]) % radix[j] * step[j] + unit[j]


def orbit_censuses(coeffs: np.ndarray, p: int, n: int) -> list[dict[int, int]]:
    """Kernel-size histograms of one tensor at every level 0..n, in one sweep.

    coeffs has shape (l, d, e), entries reduced mod p^n; entry k of the
    result is what census_of_stack returns at level k. Instead of all p^(nl)
    parameter vectors, only one vector per unit orbit of the primitive
    vectors mod p^n is reduced (scaling by a unit keeps the kernel):

    * a representative's Smith exponents at level k <= n are min(e_i, k);
    * its orbit has p^(n-1)(p-1) members, and p^((n-k) l) primitive vectors
      mod p^n lie over each primitive vector mod p^k;
    * a vector that is not primitive is p b with b in (Z/p^(k-1))^l, and
      A(p b) over Z/p^k has d more kernel exponent than A(b) over Z/p^(k-1).

    The evaluation matmul needs l (p^n - 1)^2 < 2^63, checked up front.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    l, d, e = coeffs.shape
    m = min(d, e)
    pn = p**n
    check_evaluation_bound(l, pn)
    # capped[k, s]: representatives whose exponents capped at k sum to s
    capped = np.zeros((n + 1, m * n + 1), dtype=np.int64)
    if n > 0 and l > 0:
        flat = coeffs.reshape(l, d * e) % pn
        chunk = max(1, _CHUNK_ELEMENTS // max(1, l, d * e))
        for reps in _orbit_representatives(p, n, l, chunk):
            mats = reps @ flat
            exps = batch_smith_exponents(mats.reshape(len(reps), d, e), p, n)
            for k in range(1, n + 1):
                capped[k] += np.bincount(np.minimum(exps, k).sum(axis=1), minlength=m * n + 1)
    censuses = [{0: 1}]
    for k in range(1, n + 1):
        orbit = p ** (k - 1) * (p - 1)
        fibre = p ** ((n - k) * (l - 1))
        level: dict[int, int] = {}
        for s in np.flatnonzero(capped[k]):
            count, rest = divmod(int(capped[k, s]) * orbit, fibre)
            assert rest == 0
            level[int(s) + k * (d - m)] = count
        for exp, count in censuses[-1].items():
            level[exp + d] = level.get(exp + d, 0) + count
        censuses.append(level)
    return censuses
