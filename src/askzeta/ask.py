"""Exact computation of average kernel sizes and their zeta coefficients.

ask^m of a representation over Z/p^n is the average of |kernel|^m over all
parameter vectors; each coefficient of the zeta series is one such average,
taken at successive levels n. Everything is exact integer/rational
arithmetic.

The auto strategy enumerates the smallest tensor two exact laws allow: ask^m(A)
= ask(A^(m)) on a Knuth side of the collapsed power (_side), and census(A + B) =
census(A) * census(B) over the connected pieces of the tensor (_orbit_levels),
each read off one vector per unit orbit, or in its echelon basis one per torus
orbit where that reduces fewer matrices (_plan; bulk.orbit_censuses). The direct
strategy enumerates every parameter vector of rep: the literal definition.
Budgets and the int64 bound count the p^(n l) vectors of the whole tensor.

Every census is a process-wide cache of a pure function: each enumerated
tensor's census is kept, keyed by (strategy, shape, reduced array, p, n), so a
census at Z/p^n, any moment read off it and a zeta series to level n of the
same tensor share one pass. An auto entry holds the census at every level
0..n, a direct one at level n; the strategy in the key keeps a literal census
from ever being served by the planner, or the other way round. The cache holds
at most MEMO_ENTRIES tensors, oldest out first, and every call returns new
dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from typing import Sequence

import numpy as np

from . import bulk
from .bulk import DEFAULT_BUDGET, BudgetExceededError
from .mrep import MRep, collapsed_power
from .ring import TruncatedRing

__all__ = [
    "DEFAULT_BUDGET",
    "AskResult",
    "ZetaSeries",
    "BudgetExceededError",
    "ask_m",
    "ask_with_census",
    "auto_asks",
    "kernel_census",
    "literal_censuses",
    "unit_orbit_censuses",
    "zeta_coeffs",
]

@dataclass(frozen=True)
class AskResult:
    value: Fraction
    level: int
    moment: int
    strategy: str


@dataclass(frozen=True)
class ZetaSeries:
    """Zeta coefficients c_0..c_N; failed_level flags a budget cutoff."""

    coeffs: tuple[Fraction, ...]
    failed_level: int | None = None

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


def _by_shape(arrays: Sequence[np.ndarray], sweep, *args, tori: Sequence[int] = ()) -> list:
    """sweep(stack, *args) of the arrays stacked by shape, one call per shape, in input order;
    with tori, by shape and torus prefix, and sweep(stack, *args, torus=s) where s > 0."""
    shapes: dict[tuple, list[int]] = {}
    for i, array in enumerate(arrays):
        shapes.setdefault((array.shape, tori[i] if tori else 0), []).append(i)
    out = {}
    for (_, s), idx in shapes.items():
        stack = np.array([arrays[i] for i in idx])
        out.update(zip(idx, sweep(stack, *args, torus=s) if s else sweep(stack, *args)))
    return [out[i] for i in range(len(arrays))]


def _split(stack: np.ndarray) -> list[tuple[list[np.ndarray], int, int]]:
    """(pieces, free parameters, free rows) of each reduced tensor of a (T, l, d, e) stack.

    A nonzero entry (h, i, j) links parameter h, row i and column j; the pieces, the
    subtensors on the components, make A(a) block diagonal up to order, each block in
    its own parameters, so its kernel is theirs multiplied. Zero slices are free."""
    T, l, d, _ = stack.shape
    support = stack != 0
    incidence = np.concatenate([support.any(axis=3), support.any(axis=2)], axis=2)
    reach = incidence @ incidence.transpose(0, 2, 1)  # parameters that share a row or a column
    for _ in range(max(l - 2, 0).bit_length()):  # closed under paths of up to l - 1 steps
        reach = reach @ reach
    touched, params = incidence.any(axis=1), reach.diagonal(axis1=1, axis2=2)
    roots = params & ~(reach & np.tri(l, k=-1, dtype=bool)).any(axis=2)  # first of each component
    whole = (reach.all(axis=(1, 2)) & touched.all(axis=1)).tolist()
    free_params = (l - params.sum(axis=1)).tolist()
    free_rows = (d - touched[:, :d].sum(axis=1)).tolist()

    def pieces(t):
        for h in np.flatnonzero(roots[t]):
            sides = incidence[t, reach[t, h]].any(axis=0)
            yield stack[t][reach[t, h]][:, sides[:d]][:, :, sides[d:]]

    return [([stack[t]] if whole[t] else [*pieces(t)], free_params[t], free_rows[t]) for t in range(T)]


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for (i, x), (j, y) in product(a.items(), b.items()):
        out[i + j] = out.get(i + j, 0) + x * y
    return out


@lru_cache(maxsize=1024)
def _torus_loses(p: int, n: int, l: int, r: int) -> bool:
    """Whether a torus of rank at most r reduces no fewer matrices than the unit orbits,
    (n+1)^r p^(n(l-r)) against p^((n-1)(l-1)) (p^l - 1)/(p - 1); at l < 2 it always does."""
    return n == 0 or l < 2 or (n + 1) ** r * p ** (n * (l - r)) >= p ** ((n - 1) * (l - 1)) * (p**l - 1) // (p - 1)


def _plan(piece: np.ndarray, p: int, n: int) -> tuple[np.ndarray, int, int]:
    """(tensor, s, free): the tensor whose census bulk.orbit_censuses(tensor, p, n, torus=s)
    reads, and the free parameters the piece's census has beyond it.

    The torus census reduces (n+1)^s p^(n(l-s)) matrices, and s is at most
    r = min(l, d + e - 1), the rank of the row and column torus. Only a piece where that
    bound beats its unit orbits pays for its echelon basis, whose zero rows are free
    parameters. Slices that share an entry there have one character, so s is also at most
    the number of classes of slices joined by shared entries; only if that still can beat
    the unit orbits is the torus solved, and taken if it reduces fewer matrices."""
    l, d, e = piece.shape
    if _torus_loses(p, n, l, min(l, d + e - 1)):
        return piece, 0, 0
    tensor = bulk.echelon_basis(piece, p, n)
    k = len(tensor)
    root, owner = list(range(k)), {}  # the slices joined by shared entries, as a forest
    for h, row in enumerate(tensor.reshape(k, -1).tolist()):
        for f, x in enumerate(row):
            if x:
                g = owner.setdefault(f, h)
                while root[g] != g:
                    g = root[g]
                root[g] = h
    if _torus_loses(p, n, k, min(sum(g == h for h, g in enumerate(root)), d + e - 1)):
        return tensor, 0, l - k
    support = tensor != 0
    S = _torus_prefix(support.shape, support.tobytes())
    if _torus_loses(p, n, k, len(S)):
        return tensor, 0, l - k
    return tensor[[*S, *(h for h in range(k) if h not in S)]], len(S), l - k


@lru_cache(maxsize=4096)
def _torus_prefix(shape: tuple[int, int, int], support: bytes) -> tuple[int, ...]:
    """bulk.torus_coordinates' S for a support, kept: supports recur from tensor to tensor."""
    return tuple(bulk.torus_coordinates(np.frombuffer(support, dtype=bool).reshape(shape))[0])


def _orbit_levels(arrays: Sequence[np.ndarray], p: int, n: int) -> list[list[dict[int, int]]]:
    """The census at every level 0..n of each reduced tensor: at level k the convolution of
    its pieces' (_split), times p^k per free parameter and with k more per free row. Each
    piece is read off its unit orbits or its torus (_plan), one bulk.orbit_censuses sweep
    per shape and torus."""
    splits = _by_shape(arrays, _split)
    plans = [_plan(piece, p, n) for split in splits for piece in split[0]]
    swept = iter(_by_shape([tensor for tensor, _, _ in plans], bulk.orbit_censuses, p, n, tori=[s for _, s, _ in plans]))
    freed = iter(free for _, _, free in plans)
    result = []
    for split, free_params, free_rows in splits:
        free_params += sum(next(freed) for _ in split)
        if len(split) == 1 and not free_params + free_rows:  # the tensor is its one piece
            result.append(next(swept))
            continue
        levels = [{k * free_rows: p ** (k * free_params)} for k in range(n + 1)]
        for _ in split:
            levels = [*map(_convolve, levels, next(swept))]
        result.append(levels)
    return result


def _literal_levels(arrays: Sequence[np.ndarray], p: int, n: int) -> list[list[dict[int, int]]]:
    """The census at level n alone of each reduced tensor, by evaluating every parameter
    vector: one bulk.census_of_stack sweep per shape."""
    return [[census] for census in _by_shape(arrays, bulk.census_of_stack, p, n)]


# how each strategy sweeps the misses of a call: every level from orbits, or level n literally
_SWEEPS = {"auto": _orbit_levels, "direct": _literal_levels}

# every census of the process: (strategy, shape, reduced bytes, p, n) -> the sweep's
# levels as (k, count) pairs, oldest out first past the bound, which is above the
# 4779-4898 censuses of one askzeta verify run, so no criterion loses one an earlier took
MEMO_ENTRIES = 8192
_MEMO: dict[tuple, tuple[tuple[tuple[int, int], ...], ...]] = {}


def _levels(reps: Sequence[MRep], ring: TruncatedRing, budget: int, strategy: str) -> list[tuple]:
    """The memo's entry of each rep under the strategy, its last level the census over
    ring; budgets and the int64 bound are checked first, and the misses of the call go to
    the strategy's sweep, each once."""
    for rep in reps:
        if ring.size**rep.l > budget:
            raise BudgetExceededError(ring.size**rep.l, budget)
        bulk.check_evaluation_bound(rep.l, ring.size)
    arrays = [rep.reduced_array(ring) for rep in reps]
    keys = [(strategy, array.shape, array.tobytes(), ring.p, ring.n) for array in arrays]
    misses = {key: array for key, array in zip(keys, arrays) if key not in _MEMO}
    if misses:
        swept = _SWEEPS[strategy]([*misses.values()], ring.p, ring.n)
        _MEMO.update(zip(misses, (tuple(tuple(c.items()) for c in levels) for levels in swept)))
    entries = [_MEMO[key] for key in keys]
    if len(_MEMO) > MEMO_ENTRIES:
        for key in [*islice(_MEMO, len(_MEMO) - MEMO_ENTRIES)]:
            del _MEMO[key]
    return entries


def literal_censuses(
    reps: Sequence[MRep], ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> list[dict[int, int]]:
    """The census of each rep by evaluating every parameter vector, budgets checked first;
    each is read from the memo, else swept once (_literal_levels) and kept, and the dicts
    returned are new."""
    return [dict(levels[-1]) for levels in _levels(reps, ring, budget, "direct")]


def unit_orbit_censuses(
    reps: Sequence[MRep], ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> list[dict[int, int]]:
    """The census of each rep by convolution of its pieces' unit-orbit or torus censuses,
    budgets checked first (_orbit_levels). Each is read from the memo, which a census or a
    series of the same tensor and ring filled, else computed once and kept; the dicts
    returned are new."""
    return [dict(levels[-1]) for levels in _levels(reps, ring, budget, "auto")]


def kernel_census(
    rep: MRep, ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Histogram {k: #parameter vectors with |kernel| = p^k}.

    All moments are recoverable from it:
    ask^m = sum_k census[k] p^(k m) / p^(n l).
    The budget bounds the nominal p^(n l) vectors, also when the census is
    in the memo; the census itself is read off the unit-orbit or torus
    representatives of its pieces (_orbit_levels), one pass per tensor and
    ring in a process (unit_orbit_censuses).
    """
    return unit_orbit_censuses([rep], ring, budget)[0]


def ask_from_census(
    census: dict[int, int], ring: TruncatedRing, side_rank: int, m: int = 1
) -> Fraction:
    total = sum(count * ring.p ** (k * m) for k, count in census.items())
    return Fraction(total, ring.size**side_rank)


def _side(rep: MRep, m: int, strategy: str) -> tuple[str, MRep]:
    """The side for a strategy and the tensor enumerated there: rep (l parameters) under
    "direct"; under "auto" the fewest of rep and the circ (m d) and bullet (m e) duals of
    its collapsed m-th power, ties direct."""
    if m < 1:
        raise ValueError("moment must be >= 1")
    if strategy not in _SWEEPS:
        raise ValueError(f"unknown strategy {strategy!r}")
    costs = {"direct": rep.l, "circ": m * rep.d, "bullet": m * rep.e}
    side = min(costs, key=costs.get) if strategy == "auto" else "direct"
    if side == "direct":
        return side, rep
    return side, (collapsed_power(rep, m, "mod") if m > 1 else rep).dual(side)


def _result(
    rep: MRep, side: str, tensor: MRep, census: dict[int, int], ring: TruncatedRing, m: int
) -> AskResult:
    """ask^m from the census of the tensor enumerated on the given side: its m-th moment
    on the direct side, else the first, as ask^m(A) = ask(A^(m))."""
    value = ask_from_census(census, ring, tensor.l, m if side == "direct" else 1)
    if side == "circ":  # averaging over the domain rescales by q^(n(m d - l))
        value *= Fraction(ring.p) ** (ring.n * (m * rep.d - rep.l))
    return AskResult(value, ring.n, m, side if side == "direct" else f"{side}-side")


def ask_m(
    rep: MRep,
    ring: TruncatedRing,
    m: int = 1,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> AskResult:
    """Average m-th power of the kernel size, as an exact rational.

    "auto" convolves the census of the side with the fewest parameters from its
    pieces' unit or torus orbits; "direct" enumerates every parameter vector of rep.
    """
    side, tensor = _side(rep, m, strategy)
    return _result(rep, side, tensor, dict(_levels([tensor], ring, budget, strategy)[0][-1]), ring, m)


def auto_asks(
    reps: Sequence[MRep], ring: TruncatedRing, m: int = 1, budget: int = DEFAULT_BUDGET
) -> list[AskResult]:
    """ask_m(rep, ring, m, "auto") for each rep: the cheapest side of each, and
    one orbit sweep per shape and torus of the pieces of the tensors enumerated there."""
    sides = [_side(rep, m, "auto") for rep in reps]
    censuses = unit_orbit_censuses([tensor for _, tensor in sides], ring, budget)
    return [_result(rep, *side, census, ring, m) for rep, side, census in zip(reps, sides, censuses)]


def ask_with_census(
    rep: MRep,
    ring: TruncatedRing,
    m: int = 1,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> tuple[AskResult, dict[int, int]]:
    """(ask_m, kernel_census) of rep, both read off one census of the direct side,
    taken as the strategy takes it: from unit or torus orbits, or literally."""
    side = _side(rep, m, "direct" if strategy == "auto" else strategy)  # an unknown one raises
    census = dict(_levels([rep], ring, budget, strategy)[0][-1])
    return _result(rep, *side, census, ring, m), census


def zeta_coeffs(
    rep: MRep,
    p: int,
    m: int = 1,
    levels: int = 2,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> ZetaSeries:
    """Coefficients [c_0 .. c_levels] with c_n = ask^m over Z/p^n.

    On budget exhaustion the partial coefficient list is returned with the
    failing level flagged; a budget too small for level 0 raises, and so does
    levels < 0 (ValueError), which has no coefficient to return. "auto"
    reads every level from the memo's auto entry at the highest level within
    budget, the entry a census of the same tensor over Z/p^top shares (one
    orbit pass, unless it is there); "direct" takes one literal census per
    level.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    side, tensor = _side(rep, m, strategy)
    top = -1  # the highest level whose nominal cost is within budget
    while top < levels and p ** ((top + 1) * tensor.l) <= budget:
        top += 1
    if top < 0:
        raise BudgetExceededError(1, budget, 0)
    rings = [TruncatedRing(p, n) for n in range(top + 1)]
    if strategy == "direct":
        censuses = [literal_censuses([tensor], ring, budget)[0] for ring in rings]
    else:  # the census at the top level comes with every level below it
        censuses = [*map(dict, _levels([tensor], rings[-1], budget, strategy)[0])]
    coeffs = [_result(rep, side, tensor, c, ring, m).value for ring, c in zip(rings, censuses)]
    return ZetaSeries(tuple(coeffs), failed_level=top + 1 if top < levels else None)
