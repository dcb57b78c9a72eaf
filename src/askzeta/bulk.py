"""Vectorised enumeration internals (numpy).

Everything here is exact integer arithmetic mod p^n: evaluations and Smith
reductions in the narrowest signed dtype that holds (p^n)^2, int64 prefix
offsets; callers turn the resulting exponent histograms into exact
rationals. One additive sweep (_sweep) evaluates a stack of tensors for
both censuses: every parameter vector for census_of_stack, one vector per
unit orbit or per torus orbit of a valuation pattern for orbit_censuses
(the torus of an echelon basis: echelon_basis, torus_coordinates). One constant, _SLICE_ELEMENTS (2^16
entries), bounds a sweep's batch, held in one buffer per sweep, and the
slice the Smith kernel (batch_smith_exponents) reduces in one workspace
per call, so a census's memory follows one slice: criterion 3's census
peaks near 1 MB traced. The kernel's valuations come from one cached
uint8 table of at most _TABLE_ENTRIES (16 slices, 2^20) entries, read
digit by digit when p^n is larger, so no structure is sized by p^n.
Results do not depend on the partitioning, so partial histograms combine
in any order.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from numbers import Integral
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "batch_smith_exponents",
    "batch_kernel_exponents",
    "check_evaluation_bound",
    "iter_vector_chunks",
    "census_of_stack",
    "orbit_censuses",
    "torus_weights",
    "echelon_basis",
    "torus_coordinates",
]

# Keep p^n small enough that entry * entry stays inside int64.
_MAX_MODULUS = 1 << 31
_INT64_LIMIT = 1 << 63
# Matrix entries in a sweep's batch, and in a slice of batch_smith_exponents' workspace.
_SLICE_ELEMENTS = 1 << 16
# Entries of the valuation table, 2^20: one uint8 lookup up to p^n = 2^20, digits above.
_TABLE_ENTRIES = 16 * _SLICE_ELEMENTS
# Nominal parameter vectors an enumeration may cover unless told otherwise.
DEFAULT_BUDGET = 10**7


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


@lru_cache(maxsize=1)
def _valuation_table(p: int, h: int) -> np.ndarray:
    """val[x] = p-adic valuation of x mod p^h, h for 0; uint8, as h <= 31.
    One table is kept, whichever rings a process visits."""
    vals = np.zeros(p**h, dtype=np.uint8)
    for v in range(1, h + 1):
        vals[:: p**v] = v
    return vals


def _table_level(p: int, n: int) -> int:
    """The largest level h <= n whose table of p^h entries fits _TABLE_ENTRIES."""
    h = n
    while p**h > _TABLE_ENTRIES:
        h -= 1
    return h


def _digit_valuations(
    x: np.ndarray, low: np.ndarray, digit: np.int64, n: int, lookup: np.ndarray, out: np.ndarray
) -> None:
    """out = p-adic valuations of x in [0, p^n), n for 0, for p^n past one
    table: low, the table of digit = p^h entries, reads the low digit
    x mod p^h, and only where that digit is 0, h plus the valuation of the
    next digit, clamped at n, and so on. A prime past the table (n = 1: a
    field) reads x == 0. x is int64 (p^n > 2^20), lookup an intp buffer of
    its shape."""
    h = low[0]  # the table's level, its valuation of 0
    if h == 0:
        np.equal(x, 0, out=out.view(bool))
        return
    # x mod p^h as x - (x // p^h) p^h: a division by a constant is fast, a remainder is not
    np.floor_divide(x, digit, out=lookup)
    lookup *= digit
    np.subtract(x, lookup, out=lookup)
    low.take(lookup, out=out, mode="clip")
    if np.count_nonzero(lookup) < lookup.size:  # some low digit is 0
        vals = out.reshape(-1)
        zero = np.flatnonzero(vals == h)
        rest = x.reshape(-1)[zero]
        for level in range(h, n, h):
            rest //= digit
            step = np.minimum(low.take(rest % digit), n - level)
            vals[zero] += step
            more = step == h
            zero, rest = zero[more], rest[more]


def _narrow_dtype(pn: int) -> type:
    """The smallest signed dtype for a pivot step mod pn: u b - g r, all
    four in [0, pn), has |u b - g r| <= (pn - 1)^2, and its reduction
    stays within |x| < pn^2."""
    if pn * pn <= 1 << 15:
        return np.int16
    if pn * pn <= 1 << 31:
        return np.int32
    return np.int64


@lru_cache(maxsize=None)
def _pivot_orders(r: int, c: int) -> np.ndarray:
    """orders[s, pos]: the flat position that lands at s when the entry at pos
    is swapped to the corner (its row with row 0, its column with column 0)."""
    def swapped(k):  # row i: 0..k-1 with 0 and i exchanged
        i, t = np.ogrid[:k, :k]
        return np.where(t == 0, i, np.where(t == i, 0, t))

    i, j = np.divmod(np.arange(r * c), c)
    orders = swapped(r)[i][:, :, None] * c + swapped(c)[j][:, None, :]
    return np.ascontiguousarray(orders.reshape(r * c, r * c).T)


@lru_cache(maxsize=None)
def _step_constants(p: int, n: int, d: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers p^v in the narrow dtype, and the flat positions of a d x e
    block as a column, in the dtype of a step's keys (n + 1) (d e) - 1 at most."""
    key = np.min_scalar_type((n + 1) * d * e - 1)
    return (p ** np.arange(n + 1)).astype(_narrow_dtype(p**n)), np.arange(d * e, dtype=key)[:, None]


def batch_smith_exponents(mats: np.ndarray, p: int, n: int) -> np.ndarray:
    """Elementary divisor exponents for a batch of matrices over Z/p^n.

    mats has shape (N, d, e) and integer entries: an integer dtype, or
    Python ints in an object array (other dtypes raise ValueError). The
    result has shape (N, min(d, e)), uint8, each row ascending in [0, n].
    Step k works on the trailing (d-k) x (e-k) block only: it pivots on the
    entry of minimal valuation (first in row-major order, as the pure-Python
    oracle smith_exponents in tests/helpers.py does), swaps it to the
    corner, clears the rows below it and keeps the remainder. That pivot
    divides every entry left, so each later pivot has no smaller valuation,
    and clearing the pivot's columns would change only its row, which no
    later step reads. A zero block stays zero, with exponent n; after the
    last pivot nothing is eliminated.

    Clearing divides nothing: the pivot is p^v u with u a unit and row i's
    entry is p^v g_i, so row i becomes u row_i - g_i row_0. Those row
    operations form a lower triangular matrix with unit diagonal (1, u,
    ..., u), invertible over Z/p^n, so they keep the Smith form.

    The batch is reduced a slice at a time, at most _SLICE_ELEMENTS entries
    (or one matrix), and every slice and step writes into one workspace the
    call allocates once, for one slice: the kernel's memory beyond its
    output is bounded by the slice, not by N. A slice is reduced mod p^n,
    in the narrow dtype if mats has it (x - x // p^n * p^n is exact in any
    signed dtype, wrapping included) and otherwise in int64 (uint64 and
    Python ints are reduced exactly before the cast), then narrowed to
    int16 when (p^n)^2 <= 2^15, int32 when (p^n)^2 <= 2^31, else int64.
    Narrowing first would wrap unreduced input, such as the entries of
    kernel_size's integer matrices (the census sweeps pass reduced, narrow
    batches). A step's u row_i - g_i row_0 has all four factors in
    [0, p^n), so it stays within (p^n - 1)^2 in that dtype. The block is
    kept batch-last, so a step is a few passes over contiguous rows: one
    flat-index gather of the swapped block, the two products and one
    reduction x - x // p^n * p^n. Valuations come from one uint8 table of
    p^h entries, h the largest level <= n with p^h <= _TABLE_ENTRIES
    (2^20): up to that bound, h = n and a valuation is one lookup. Above
    it, the table reads the low digit x mod p^h, and only where that digit
    is 0 does the next digit x div p^h add its valuation, clamped at n; a
    prime above the bound, which the 2^31 modulus bound allows only at
    n = 1, needs no table. Only the last table used stays cached, so a
    process holds at most 1 MiB of valuations. Valuations are at most
    n <= 31 below the modulus bound, so the exponents are uint8.
    """
    mats = np.asarray(mats)
    if mats.size and not (
        mats.dtype.kind in "biu" or mats.dtype == object and all(isinstance(x, Integral) for x in mats.flat)
    ):
        raise ValueError(f"matrix entries must be integers, got dtype {mats.dtype}")
    N, d, e = mats.shape
    m = min(d, e)
    out = np.empty((N, m), dtype=np.uint8, order="F")  # a step fills one column
    out.fill(n)
    if N == 0 or m == 0 or n == 0:
        return out
    pn = p**n
    if pn > _MAX_MODULUS:
        raise ValueError(f"modulus {p}^{n} too large for vectorised arithmetic")
    h = n if pn <= _TABLE_ENTRIES else _table_level(p, n)
    val = _valuation_table(p, h)
    power, positions = _step_constants(p, n, d, e)
    dtype = power.dtype
    # the workspace for one slice of matrices: one allocation, cut widest
    # dtype first so that every part is aligned. One block, not several, so
    # that the allocator keeps it mapped from call to call instead of
    # faulting it in afresh. A step over nw matrices of an r x c block uses
    # the leading r c nw entries of each part.
    size = min(N, max(1, _SLICE_ELEMENTS // (d * e)))
    space = size * d * e
    wide, narrow = 8 * space, 4 * dtype.itemsize * space
    raw = np.empty(wide + narrow + (positions.itemsize + 1) * space, np.uint8)
    index = raw[:wide].view(np.intp)  # valuation lookups, then the gather
    entries = raw[wide : wide + narrow].view(dtype)
    held, temp = entries[:space], entries[space : 2 * space]
    vals = raw[-space:]
    if m > 1:  # what a pivot step adds
        spare, units = entries[2 * space : 3 * space], entries[3 * space :]
        keys = raw[wide + narrow : -space].view(positions.dtype)
        columns = np.arange(size)

    for start in range(0, N, size):
        part = out[start : start + size]
        nw, r, c = len(part), d, e
        # batch-last: column j of the (d e, nw) work is the slice's matrix j
        work = held[: d * e * nw].reshape(d * e, nw)
        flat = mats[start : start + size].reshape(nw, d * e)
        if flat.dtype == dtype:  # as the sweeps pass them: batch-last already
            quotient = temp[: d * e * nw].reshape(d * e, nw)
            np.floor_divide(flat.T, pn, out=quotient)
            quotient *= pn
            np.subtract(flat.T, quotient, out=work)
        else:  # reduced in int64 in the caller's layout, then narrowed batch-last
            if not np.can_cast(flat.dtype, np.int64):  # uint64 or Python ints: exact first
                flat = (flat % pn).astype(np.int64)
            wide = index[: d * e * nw].reshape(nw, d * e)
            np.floor_divide(flat, pn, out=wide)
            wide *= pn
            np.subtract(flat, wide, out=wide)
            np.copyto(work, wide.T, casting="unsafe")
        # rows: the rows of part that work fills, all of them until some drop out
        rows = slice(None)
        for k in range(m):
            rc = r * c
            lookup = index[: rc * nw].reshape(rc, nw)
            v = vals[: rc * nw].reshape(rc, nw)
            if h == n:
                np.copyto(lookup, work)
                val.take(lookup, out=v, mode="clip")
            else:
                _digit_valuations(work, val, power[h], n, lookup, v)
            if k == m - 1:
                part[rows, k] = v.min(axis=0)
                break
            # the first minimal valuation in row-major order, as one minimum
            key = np.multiply(v, rc, out=keys[: rc * nw].reshape(rc, nw), dtype=keys.dtype)
            key += positions[:rc]
            key = key.min(axis=0)
            vmin = key // rc
            part[rows, k] = vmin
            # zero blocks are dropped only once they are half the slice:
            # carrying fewer costs less than the copy
            live = vmin < n
            if 2 * np.count_nonzero(live) <= nw:
                if not live.any():
                    break
                key, vmin = key[live], vmin[live]
                rows, nw = np.arange(len(part))[rows][live], len(vmin)
                held, spare = spare, held
                work = np.compress(live, work, axis=1, out=held[: rc * nw].reshape(rc, nw))
                lookup = index[: rc * nw].reshape(rc, nw)
            # the swapped block: entry s of matrix j is work[orders[s, pivot_j], j],
            # and the pivot's flat position is its key mod rc, which "wrap" takes
            gather = np.take(_pivot_orders(r, c) * nw, key, axis=1, out=lookup, mode="wrap")
            gather += columns[:nw]
            block = spare[: rc * nw].reshape(r, c, nw)
            work.take(gather, out=block.reshape(rc, nw), mode="clip")
            # pivot column / p^v: the pivot's unit u, then each row's multiplier g
            g = np.floor_divide(block[:, 0], power.take(vmin), out=units[: r * nw].reshape(r, nw))
            r, c = r - 1, c - 1
            work = np.multiply(g[0], block[1:, 1:], out=held[: r * c * nw].reshape(r, c, nw))
            product = np.multiply(g[1:, None], block[0, 1:], out=temp[: r * c * nw].reshape(r, c, nw))
            work -= product
            np.floor_divide(work, pn, out=product)
            product *= pn
            work -= product
            work = work.reshape(r * c, nw)
    return out


def batch_kernel_exponents(mats: np.ndarray, p: int, n: int) -> np.ndarray:
    """Exponents k with |Ker| = p^k for each d x e matrix in the batch."""
    N, d, e = mats.shape
    m = min(d, e)
    exps = batch_smith_exponents(mats, p, n)
    return exps.sum(axis=1, dtype=np.int64) + n * (d - m)


def check_evaluation_bound(l: int, pn: int) -> None:
    """Refuse evaluations whose int64 sums could overflow.

    Evaluating A(a) sums l products of a coordinate and a coefficient, both
    in [0, p^n), so every sum stays exact when l (p^n - 1)^2 < 2^63.
    """
    if l * (pn - 1) ** 2 >= _INT64_LIMIT:
        raise ValueError(
            f"{l} parameters over Z/{pn} break the int64 bound l (p^n - 1)^2 < 2^63"
        )


# a coordinate's values: a range, or a tuple of them
Values = range | tuple[int, ...]


def _progression_chunks(coords: Sequence[Values], chunk: int) -> Iterator[np.ndarray]:
    """Every vector of the product of the coordinates' values, in row-major order, in int64 chunks."""
    if not coords:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    # digit x of a range is start + step x; of a tuple, its value at x
    spans = [values if isinstance(values, range) else range(len(values)) for values in coords]
    base, step, radix = np.array([(r.start, r.step, len(r)) for r in spans], dtype=np.int64).T
    weights = np.cumprod([1, *radix[:0:-1]])[::-1]
    total = prod(radix.tolist())
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        vectors = idx[:, None] // weights % radix * step + base
        for h, values in enumerate(coords):
            if values is not spans[h]:
                vectors[:, h] = np.array(values)[vectors[:, h]]
        yield vectors


def iter_vector_chunks(q: int, length: int, chunk: int) -> Iterator[np.ndarray]:
    """All vectors of (Z/q)^length in row-major order, in chunks."""
    return _progression_chunks([range(q)] * length, chunk)


def _add_mod(a: np.ndarray, b: np.ndarray, pn: int, out: np.ndarray | None = None) -> np.ndarray:
    """(a + b) mod pn for a, b in [0, pn) of one signed dtype that holds 2 pn."""
    total = np.add(a, b, out=out)
    # as unsigned, total - pn wraps above total exactly when total < pn
    wrapped = total.view(total.dtype.str.replace("i", "u"))
    np.minimum(wrapped, wrapped - pn, out=wrapped)
    return total


def _sweep(
    coeffs: np.ndarray, p: int, n: int, blocks: Sequence[Sequence[Values]], weight: int
) -> Iterator[np.ndarray]:
    """Evaluate a stack of tensors at every vector of each block, in batches.

    coeffs has shape (T, l, d, e), entries reduced mod p^n; a block gives
    each of the l coordinates its values, a range or a tuple, and stands for
    the product of them. Yields (T K, d, e) batches of matrices, reduced and in the narrow
    dtype, kept batch-last: matrix t K + k is tensor t at the batch's k-th
    vector. Every vector of every block comes once, in block order, and a
    batch of up to _SLICE_ELEMENTS // weight vectors may join small blocks.
    A batch is a view of the call's one buffer, valid until the next batch.

    Evaluation is additive. The sums A(a) over the trailing coordinates
    whose values are all of Z/p^n are built once, from tables of
    x M_i mod p^n, and shared by every block that ends in as many; a
    coordinate with any other values, such as a single one, gets no
    table. A batch adds one offset per leading prefix (an int64 matmul) and
    subtracts p^n where a sum reaches it, in the buffer. The offsets need
    l (p^n - 1)^2 < 2^63, which callers check first.
    """
    T, l, d, e = coeffs.shape
    pn = p**n
    dtype = _narrow_dtype(pn)
    # M[i, f T + t] is entry f of tensor t's i-th coefficient matrix
    F = d * e * T
    M = coeffs.transpose(1, 2, 3, 0).reshape(l, F)
    cap = max(1, _SLICE_ELEMENTS // weight)  # vectors per batch
    buffer = np.empty(F * cap, dtype=dtype)  # every batch in turn

    def full_tail(block):  # trailing coordinates that run over all of Z/p^n
        return next((t for t in range(len(block)) if block[-1 - t] != range(pn)), len(block))

    tails = [full_tail(block) for block in blocks]
    trail = 0  # the longest stored suffix: one that fits in a batch
    while trail < max(tails, default=0) and pn ** (trail + 1) <= cap:
        trail += 1
    used = {min(trail, t) for t in tails}
    # sums[t]: A over the last t coordinates at each of their p^(n t) values
    sums = {0: np.zeros((F, 1), dtype=dtype)}
    for t in range(1, trail + 1):
        table = (M[l - t][:, None] * np.arange(pn, dtype=np.int64) % pn).astype(dtype)
        prev = sums[t - 1] if t - 1 in used else sums.pop(t - 1)
        sums[t] = _add_mod(table[:, :, None], prev[:, None, :], pn).reshape(F, pn * prev.shape[1])
        del table, prev  # not kept alive through the sweep

    def batch(parts, K):
        # batch-last: column t K + k of the (d e, T K) view is tensor t at vector k
        mats = buffer[: F * K].reshape(F, K)
        for offsets, suffix, columns in parts:  # each into its own columns
            out = mats[:, columns].reshape(offsets.shape + suffix.shape[1:])
            _add_mod(offsets[:, :, None], suffix[:, None, :], pn, out=out)
        return mats.reshape(d * e, T * K).T.reshape(T * K, d, e)

    parts, filled = [], 0
    for block, tail in zip(blocks, tails):
        suffix = sums[min(trail, tail)]
        lead = l - min(trail, tail)
        V = suffix.shape[1]
        for prefixes in _progression_chunks(block[:lead], max(1, cap // V)):
            K = len(prefixes) * V
            if parts and filled + K > cap:  # the part would overflow the buffer: a new batch
                yield batch(parts, filled)
                parts, filled = [], 0
            offsets = (M[:lead].T @ prefixes.T % pn).astype(dtype)
            parts.append((offsets, suffix, slice(filled, filled + K)))
            filled += K
    if parts:
        yield batch(parts, filled)


def census_of_stack(coeffs: np.ndarray, p: int, n: int) -> list[dict[int, int]]:
    """Kernel-size exponent histograms for a stack of tensors, in one sweep.

    coeffs has shape (T, l, d, e), entries reduced mod p^n. For every tensor t
    the full parameter space (Z/p^n)^l is enumerated; the returned histogram
    maps an exponent k to the number of parameter vectors whose evaluated
    matrix has kernel size p^k. The matrices come from the additive sweep
    (_sweep, with every coordinate over all of Z/p^n), reduced, narrow and
    batch-last, as the kernel keeps them, _SLICE_ELEMENTS entries at a time
    (criterion 3's 531 441 matrices peak near 1 MB traced). Its offsets need
    l (p^n - 1)^2 < 2^63; other inputs raise ValueError before anything is
    enumerated.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    T, l, d, e = coeffs.shape
    pn = p**n
    check_evaluation_bound(l, pn)
    if T == 0:
        return []
    width = n * d + 1
    counts = np.zeros(T * width, dtype=np.int64)
    for batch in _sweep(coeffs, p, n, [[range(pn)] * l], T * max(1, d * e)):
        ks = batch_kernel_exponents(batch, p, n).reshape(T, -1)
        ks += np.arange(T)[:, None] * width
        counts += np.bincount(ks.ravel(), minlength=T * width)
    return [{int(k): int(row[k]) for k in np.flatnonzero(row)} for row in counts.reshape(T, width)]


def orbit_censuses(coeffs: np.ndarray, p: int, n: int, torus: int = 0) -> list[list[dict[int, int]]]:
    """Kernel-size histograms of a stack of tensors at every level 0..n, in one sweep.

    coeffs has shape (T, l, d, e), entries reduced mod p^n; entry k of tensor
    t's list is what census_of_stack returns for it at level k. Instead of
    all p^(nl) parameter vectors, one vector per orbit of a group that keeps
    kernels is reduced, with its orbit's size as its weight; the sweep
    evaluates them additively, as it does census_of_stack's vectors. Every
    vector a mod p^n lies over p^((n-k) l) vectors of each level k <= n, and
    a representative's Smith exponents at level k are min(e_i, k), so level
    k reads the weights of the exponents capped at k, over p^((n-k) l).

    * torus = 0: the units, scaling the primitive vectors. Block j of
      representatives has coordinates in pZ/p^n before j, 1 at j and any
      coordinates after it, p^((n-1) j + n (l-1-j)) vectors of weight
      p^(n-1)(p-1), and the blocks share the stored sums over their
      trailing coordinates. A vector that is not primitive is p b with b in
      (Z/p^(k-1))^l, and A(p b) over Z/p^k has d more kernel exponent than
      A(b) over Z/p^(k-1).
    * torus = s > 0: a torus (torus_coordinates) that moves the first s
      coordinates of every tensor to p^v, v their valuations, keeping the
      kernel. One block runs them over (1, p, ..., p^(n-1), 0) and the rest
      over all of Z/p^n, (n+1)^s p^(n (l-s)) vectors; x_S = p^v has weight
      the product of #{x : v(x) = v_h}, p^(n-v-1)(p-1) or 1 for v = n
      (torus_weights), summed exactly per pattern.

    The sweep's offsets need l (p^n - 1)^2 < 2^63, checked up front.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    T, l, d, e = coeffs.shape
    m = min(d, e)
    pn = p**n
    check_evaluation_bound(l, pn)
    width = m * n + 1
    levels = np.arange(1, n + 1, dtype=np.uint8)
    # capped[t, k - 1, s]: the weight of tensor t's representatives whose exponents capped at k sum to s
    if torus:
        blocks = [[tuple(p**v % pn for v in range(n + 1))] * torus + [range(pn)] * (l - torus)]
        weights = torus_weights(p, n, torus, object if pn**l >= _INT64_LIMIT else np.int64)
        capped = np.zeros((T, n * width), dtype=weights.dtype)
        suffix, done = pn ** (l - torus), 0  # vectors per pattern, and vectors swept
    else:
        blocks = [[range(0, pn, p)] * j + [range(1, 2)] + [range(pn)] * (l - 1 - j) for j in range(l)]
        capped = np.zeros(T * n * width, dtype=np.int64)
        first = (np.arange(T)[:, None, None] * n + np.arange(n)) * width
    if T and n and blocks:
        # a representative costs a batch its entries, or its n capped sums
        for batch in _sweep(coeffs, p, n, blocks, T * max(1, d * e, n)):
            exps = batch_smith_exponents(batch, p, n)
            keys = np.minimum(exps[:, None, :], levels[:, None]).sum(axis=2, dtype=np.intp)
            keys = keys.reshape(T, -1, n)
            if torus:  # counted per pattern of the batch, then weighed exactly
                K = keys.shape[1]
                patterns = np.arange(done, done + K) // suffix
                low, span = patterns[0], patterns[-1] - patterns[0] + 1
                keys += ((np.arange(T)[:, None, None] * span + (patterns - low)[:, None]) * n + np.arange(n)) * width
                counts = np.bincount(keys.ravel(), minlength=T * span * n * width)
                capped += weights[low : low + span] @ counts.reshape(T, span, n * width)
                done += K
            else:
                keys += first
                capped += np.bincount(keys.ravel(), minlength=T * n * width)
    result = []
    for counts in capped.reshape(T, n, width):
        censuses = [{0: 1}]
        for k in range(1, n + 1):
            lifts = p ** ((n - k) * l)
            orbit = 1 if torus else p ** (n - 1) * (p - 1)
            level: dict[int, int] = {}
            for s in np.flatnonzero(counts[k - 1]):
                count, rest = divmod(int(counts[k - 1, s]) * orbit, lifts)
                assert rest == 0
                level[int(s) + k * (d - m)] = count
            if not torus:
                for exp, count in censuses[-1].items():
                    level[exp + d] = level.get(exp + d, 0) + count
            censuses.append(level)
        result.append(censuses)
    return result


def torus_weights(p: int, n: int, s: int, dtype=np.int64) -> np.ndarray:
    """w[P] = #{x in (Z/p^n)^s : v(x) = v}, the valuations v the base n + 1 digits of P,
    the first most significant: a product of p^(n-v-1)(p-1) for v < n and 1 for v = n."""
    single = np.array([p ** (n - v - 1) * (p - 1) for v in range(n)] + [1], dtype=dtype)
    weights = np.ones(1, dtype=dtype)
    for _ in range(s):
        weights = np.multiply.outer(weights, single).ravel()
    return weights


def echelon_basis(coeffs: np.ndarray, p: int, n: int) -> np.ndarray:
    """The nonzero slices of one tensor's (l, d, e) coefficients, entries in [0, p^n),
    after invertible row operations over Z/p^n on its l x de flattening Phi.

    Phi goes to reduced echelon form: for each column, a row whose entry has the least
    valuation v is swapped up and scaled by a unit to p^v, and that pivot clears the
    column below it and reduces it mod p^v above it. The rows that end as zero are
    dropped: each is a parameter on which A no longer depends. The operations are a
    matrix H invertible over Z/p^n, so a -> aH permutes (Z/p^k)^l at every level
    k <= n, and the census at every level is unchanged.
    """
    l, d, e = coeffs.shape
    pn = p**n
    rows = coeffs.reshape(l, d * e).tolist()
    top = 0
    for f in range(d * e):
        pivot, low = None, n
        for i in range(top, l):
            x, v = rows[i][f], 0
            if x:
                while x % p == 0:
                    x //= p
                    v += 1
                if v < low:
                    pivot, low, unit = i, v, x
                    if not v:
                        break
        if pivot is None:
            continue
        row = rows[pivot]
        rows[pivot] = rows[top]
        inverse, step = pow(unit, -1, pn), p**low
        rows[top] = row = [x * inverse % pn for x in row]
        for i in range(l):
            q = rows[i][f] // step
            if q and i != top:
                rows[i] = [(x - q * y) % pn for x, y in zip(rows[i], row)]
        top += 1
        if top == l:
            break
    return np.array(rows[:top], dtype=np.int64).reshape(top, d, e)


def torus_coordinates(support: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """(S, C, R, P): a torus of one tensor's diagonal row and column scalings, read off
    the boolean support (l, d, e) of its coefficients.

    Scaling row i by t^w_i and column j by t^u_j, t a vector of units, scales entry
    (i, j) of A(a) by t^(w_i + u_j). Where c_h = w_i + u_j on every nonzero entry
    (h, i, j), scaling each a_h by t^c_h gives A(t a) = D_row(t) A(a) D_col(t), with
    the same kernel. The characters c in Z^l that some integer w, u fit are a lattice,
    the integer kernel of these equations: a spanning forest of the bipartite graph of
    the entries gives each row and column a potential, an integer combination of the
    c_h (a root has 0, a tree entry's far end c_h minus its near end), and every other
    entry asks that its ends' potentials add up to its c_h. C has one row per
    coordinate and one column per generator of the lattice, and P one row per
    potential, of the rows then the columns: at a character c = C g, w = P[:d] c and
    u = P[d:] c.

    S is chosen greedily: coordinate h joins while the rows C_S have Smith invariants
    all 1, so that C_S R = I for an integer R. Then for any units y_S, the units
    t_g = prod_k y_k^R[g, k] have t^c_h = y_h on S. This needs only that the units
    form an abelian group, not that they are cyclic, so it holds at every p, p = 2
    included, whose units mod 2^n are not: with y_h the inverse of a_h's unit part,
    the torus moves a_S to p^v, v the valuations of a_S, at every level.
    """
    l, d, e = support.shape
    unit = np.eye(l, dtype=np.int64)
    ends: dict[int, list[tuple[int, int]]] = {}  # rows 0..d-1, columns d..d+e-1
    for h, i, j in np.argwhere(support).tolist():
        ends.setdefault(i, []).append((d + j, h))
        ends.setdefault(d + j, []).append((i, h))
    P = np.zeros((d + e, l), dtype=np.int64)  # the potentials, 0 off the entries
    seen, equations = set(), set()
    for root in ends:
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            a = stack.pop()
            for b, h in ends[a]:
                if b not in seen:
                    seen.add(b)
                    P[b] = unit[h] - P[a]
                    stack.append(b)
                elif a < b:  # an entry off the forest, seen from its row
                    equations.add(tuple((P[a] + P[b] - unit[h]).tolist()))
    equations.discard((0,) * l)
    # the kernel: the columns of a unimodular U beyond the pivots. Some nonzero c is a
    # solution (1 on every nonzero slice), so rank l - 1 leaves nothing to find
    U, rank = np.eye(l, dtype=np.int64).tolist(), 0
    for equation in equations:
        if rank == l - 1:
            break
        rank += _column_gcd(_times(equation, U), U, rank) != 0
    C = [line[rank:] for line in U]
    # S: C_S V = [I | 0] for a unimodular V; C[h] V = [a | b] keeps the invariants 1
    # exactly when gcd(b) = 1, and column operations then make it [0 | 1 0 ...]
    V = np.eye(l - rank, dtype=np.int64).tolist()
    S: list[int] = []
    for h in range(l):
        row = _times(C[h], V)
        g = _column_gcd(row, V, len(S))
        if abs(g) != 1:
            continue
        for line in V:  # column s *= g, then column k -= row[k] column s
            line[len(S)] *= g
            for k in range(len(S)):
                line[k] -= row[k] * line[len(S)]
        S.append(h)
    R = np.array(V, dtype=np.int64).reshape(l - rank, l - rank)[:, : len(S)]
    return S, np.array(C, dtype=np.int64).reshape(l, l - rank), R, P


def _times(v: list[int], M: list[list[int]]) -> list[int]:
    """The row vector v times the matrix M, exactly."""
    return [sum(x * line[k] for x, line in zip(v, M)) for k in range(len(M[0]) if M else 0)]


def _column_gcd(row: list[int], U: list[list[int]], s: int) -> int:
    """Unimodular column operations on U, also applied to the row vector row, that make
    row[s:] (g, 0, ..., 0); returns g, a gcd of row[s:] (0 if there is none)."""
    if s >= len(row):
        return 0
    for k in range(s + 1, len(row)):
        x, y = row[s], row[k]
        if not y:
            continue
        g, u0, v0, u1, v1 = x, 1, 0, 0, 1  # g = u0 x + v0 y, step by step
        b = y
        while b:
            q = g // b
            g, b, u0, u1, v0, v1 = b, g - q * b, u1, u0 - q * u1, v1, v0 - q * v1
        # (col s, col k) <- (u0 col s + v0 col k, -y/g col s + x/g col k), determinant 1
        for line in U:
            line[s], line[k] = u0 * line[s] + v0 * line[k], x // g * line[k] - y // g * line[s]
        row[s], row[k] = g, 0
    return row[s]
