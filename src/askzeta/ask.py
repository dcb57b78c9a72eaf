"""Exact computation of average kernel sizes and their zeta coefficients.

ask^m of a representation over Z/p^n is the average of |kernel|^m over all
parameter vectors; each coefficient of the zeta series is one such average,
taken at successive levels n. Everything is exact integer/rational
arithmetic.

plan makes every decision of a census before any sweep, and _levels carries
it out. The auto strategy enumerates the smallest tensor two exact laws allow:
ask^m(A) = ask(A^(m)) on the side, rep or a Knuth dual of the collapsed power,
that plans the fewest matrices, and census(A + B) = census(A) * census(B) over
the connected pieces of the tensor (_split), each read off one vector per unit
orbit, or in its echelon basis one per torus orbit where that reduces fewer
(_plan). The direct strategy enumerates every parameter vector of rep: the
literal definition. Budgets and the int64 bound count the p^(n l) vectors of
the side with the fewest parameters.

Every census is a process-wide cache of a pure function: each enumerated
tensor's census is kept, keyed by (strategy, shape, reduced array, p, n), so a
census at Z/p^n, any moment read off it and a zeta series to level n of the
same tensor share one pass, which a plan that finds its key skips. An auto
entry holds the census at every level 0..n, a direct one at level n; the
strategy in the key keeps a literal census from ever being served by the
planner, or the other way round. The cache holds at most MEMO_ENTRIES tensors,
oldest out first, and every call returns new dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from typing import NamedTuple, Sequence

import numpy as np

from . import bulk
from .bulk import DEFAULT_BUDGET, BudgetExceededError
from .mrep import MRep, collapsed_power
from .ring import TruncatedRing

__all__ = [
    "DEFAULT_BUDGET",
    "AskResult",
    "Plan",
    "ZetaSeries",
    "BudgetExceededError",
    "ask_m",
    "ask_with_census",
    "auto_asks",
    "kernel_census",
    "literal_censuses",
    "plan",
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


class Plan(NamedTuple):
    """One census as plan decided it: its pieces are (tensor, torus rank; None for every vector),
    or None, and planned 0, where the memo or an earlier plan of the call has its key."""

    side: str
    tensor: MRep
    key: tuple
    pieces: tuple[tuple[np.ndarray, int | None], ...] | None
    free: tuple[int, int]  # parameters and rows in no piece
    planned: int
    nominal: int  # the p^(n l) vectors of the tensor


def _by_shape(items: Sequence[tuple], sweep, *args) -> list:
    """sweep(stack, *args, *rest) of the arrays of items (array, *rest) stacked by shape and rest, in input order."""
    groups: dict[tuple, list[int]] = {}
    for i, (array, *rest) in enumerate(items):
        groups.setdefault((array.shape, *rest), []).append(i)
    out = {}
    for (_, *rest), idx in groups.items():
        out.update(zip(idx, sweep(np.array([items[i][0] for i in idx]), *args, *rest)))
    return [out[i] for i in range(len(items))]


def _split(stack: np.ndarray) -> list[list[np.ndarray]]:
    """The pieces of each reduced tensor of a (T, l, d, e) stack.

    A nonzero entry (h, i, j) links parameter h, row i and column j; the pieces, the
    subtensors on the components, make A(a) block diagonal up to order, each block in
    its own parameters, so its kernel is theirs multiplied. Zero slices and untouched
    rows are in no piece: they are free."""
    T, l, d, _ = stack.shape
    support = stack != 0
    incidence = np.concatenate([support.any(axis=3), support.any(axis=2)], axis=2)
    reach = incidence @ incidence.transpose(0, 2, 1)  # parameters that share a row or a column
    for _ in range(max(l - 2, 0).bit_length()):  # closed under paths of up to l - 1 steps
        reach = reach @ reach
    touched, params = incidence.any(axis=1), reach.diagonal(axis1=1, axis2=2)
    roots = params & ~(reach & np.tri(l, k=-1, dtype=bool)).any(axis=2)  # first of each component
    whole = (reach.all(axis=(1, 2)) & touched.all(axis=1)).tolist()

    def pieces(t):
        for h in np.flatnonzero(roots[t]):
            sides = incidence[t, reach[t, h]].any(axis=0)
            yield stack[t][reach[t, h]][:, sides[:d]][:, :, sides[d:]]

    return [[stack[t]] if whole[t] else [*pieces(t)] for t in range(T)]


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for (i, x), (j, y) in product(a.items(), b.items()):
        out[i + j] = out.get(i + j, 0) + x * y
    return out


@lru_cache(maxsize=1024)
def _cost(p: int, n: int, l: int, s: int) -> int:
    """The matrices bulk.orbit_censuses reduces for l slices over Z/p^n: the unit orbits,
    p^((n-1)(l-1)) (p^l - 1)/(p - 1), at s = 0 (none at n or l = 0), else (n+1)^s p^(n(l-s))."""
    if s:
        return (n + 1) ** s * p ** (n * (l - s))
    return p ** ((n - 1) * (l - 1)) * (p**l - 1) // (p - 1) if n and l else 0


def _plan(piece: np.ndarray, p: int, n: int) -> tuple[np.ndarray, int]:
    """(tensor, s): the piece, or its echelon basis, whose dropped zero rows are free
    parameters, and the rank s of the torus bulk.orbit_censuses(tensor, p, n, torus=s)
    takes, 0 for the unit orbits: the torus where it reduces fewer matrices (_cost). s is
    at most r = min(l, d + e - 1), the rank of the row and column torus, and the number of
    classes of slices joined by shared entries in the echelon basis, which have one
    character. Only a piece where r wins pays for the echelon basis, and only one where
    the classes do for the torus solve."""
    l, d, e = piece.shape
    if _cost(p, n, l, min(l, d + e - 1)) >= _cost(p, n, l, 0):
        return piece, 0
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
    if _cost(p, n, k, min(sum(g == h for h, g in enumerate(root)), d + e - 1)) >= _cost(p, n, k, 0):
        return tensor, 0
    S = _torus_prefix(tensor.shape, (tensor != 0).tobytes())
    if _cost(p, n, k, len(S)) >= _cost(p, n, k, 0):
        return tensor, 0
    return tensor[[*S, *(h for h in range(k) if h not in S)]], len(S)


@lru_cache(maxsize=4096)
def _torus_prefix(shape: tuple[int, int, int], support: bytes) -> tuple[int, ...]:
    """bulk.torus_coordinates' S for a support, kept: supports recur from tensor to tensor."""
    return tuple(bulk.torus_coordinates(np.frombuffer(support, dtype=bool).reshape(shape))[0])


def _sides(rep: MRep, m: int | None, strategy: str) -> dict[str, int]:
    """The parameters of each side plan may enumerate for rep, in tie order: rep, and with a
    moment under "auto" the circ (m d) and bullet (m e) duals of its collapsed m-th power."""
    if m is not None and m < 1:
        raise ValueError("moment must be >= 1")
    if strategy not in ("auto", "direct"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return {"direct": rep.l, "circ": m * rep.d, "bullet": m * rep.e} if m and strategy == "auto" else {"direct": rep.l}


def _plans(reps: Sequence[MRep], sides: list[str], ring: TruncatedRing, m: int | None, strategy: str) -> list:
    """The Plan of each rep's side over ring; the misses of an auto census are split by shape, then _plan."""
    p, n = ring.p, ring.n
    tensors = [r if s == "direct" else (collapsed_power(r, m) if m > 1 else r).dual(s) for r, s in zip(reps, sides)]
    arrays = [tensor.reduced_array(ring) for tensor in tensors]
    keys = [(strategy, array.shape, array.tobytes(), p, n) for array in arrays]
    misses = {key: array for key, array in zip(keys, arrays) if key not in _MEMO}
    if strategy == "direct":  # the tensor itself, every vector
        swept = {k: (((a, None),), (0, 0), ring.size ** len(a)) for k, a in misses.items()}
    else:
        splits = _by_shape([(a,) for a in misses.values()], _split) if misses else ()
        swept = {k: _sized(misses[k], [_plan(t, p, n) for t in ts], p, n) for k, ts in zip(misses, splits)}
    return [Plan(s, t, k, *swept.get(k, (None, (0, 0), 0)), ring.size**t.l) for s, t, k in zip(sides, tensors, keys)]


def _sized(array: np.ndarray, pieces: list, p: int, n: int) -> tuple[tuple, tuple[int, int], int]:
    """(pieces, (free parameters, free rows), planned matrices) of a tensor swept as pieces."""
    free = len(array) - sum(len(t) for t, _ in pieces), array.shape[1] - sum(t.shape[1] for t, _ in pieces)
    return tuple(pieces), free, sum(_cost(p, n, len(t), s) for t, s in pieces)


def plan(
    reps: Sequence[MRep], ring: TruncatedRing, m: int | None = None, strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> list[Plan]:
    """One Plan per rep, made before any sweep, for its census over ring (m None) or the
    census its ask^m is read off. The budget and the int64 bound are checked first, for
    every rep, on its side with the fewest parameters (_sides), which is planned. Where
    that plan exceeds one kernel batch (planned d e > bulk._SLICE_ELEMENTS), the other
    sides within both bounds are planned too, and the one that plans the fewest matrices
    is taken, ties to the fewest parameters, then in tie order."""
    q, sides = ring.size, [_sides(rep, m, strategy) for rep in reps]
    for params in sides:
        l = min(params.values())
        if q**l > budget:
            raise BudgetExceededError(q**l, budget)
        bulk.check_evaluation_bound(l, q)
    plans = _plans(reps, [min(params, key=params.get) for params in sides], ring, m, strategy)
    for i, (rep, params, pl) in enumerate(zip(reps, sides, plans)):
        if len(params) > 1 and pl.planned * pl.tensor.d * pl.tensor.e > bulk._SLICE_ELEMENTS:
            within = [
                s for s, l in params.items() if s != pl.side and q**l <= budget and l * (q - 1) ** 2 < bulk._INT64_LIMIT
            ]
            others = [pl, *_plans([rep] * len(within), within, ring, m, strategy)]
            plans[i] = min(others, key=lambda c: (c.planned, c.tensor.l, [*params].index(c.side)))
    seen: set[tuple] = set()  # a key an earlier plan of the call sweeps is read from the memo
    return [pl._replace(pieces=None, planned=0) if pl.key in seen else seen.add(pl.key) or pl for pl in plans]


def _sweep(stack: np.ndarray, p: int, n: int, torus: int | None) -> list[list[dict[int, int]]]:
    """bulk.orbit_censuses of a stack, every level 0..n, or bulk.census_of_stack's level n if torus is None."""
    if torus is None:
        return [[census] for census in bulk.census_of_stack(stack, p, n)]
    return bulk.orbit_censuses(stack, p, n, torus=torus) if torus else bulk.orbit_censuses(stack, p, n)


# every census of the process: (strategy, shape, reduced bytes, p, n) -> the sweep's
# levels as (k, count) pairs, oldest out first past the bound, which is above the
# 4779-4898 censuses of one askzeta verify run, so no criterion loses one an earlier took
MEMO_ENTRIES = 8192
_MEMO: dict[tuple, tuple[tuple[tuple[int, int], ...], ...]] = {}


def _levels(plans: Sequence[Plan], ring: TruncatedRing) -> list[tuple]:
    """Carry out plans over ring: the memo's entry of each plan's key, its last level the census
    over ring. The pieces go to one sweep per shape and torus (_sweep), and each census is kept:
    at level k the convolution of its pieces', times p^k per free parameter, k more per free row."""
    p, n = ring.p, ring.n
    todo = [pl for pl in plans if pl.pieces is not None]
    swept = iter(_by_shape([piece for pl in todo for piece in pl.pieces], _sweep, p, n) if todo else ())
    for pl in todo:
        if len(pl.pieces) == 1 and pl.free == (0, 0):  # the tensor is its one piece
            levels = next(swept)
        else:
            levels = [{k * pl.free[1]: p ** (k * pl.free[0])} for k in range(n + 1)]
            for _ in pl.pieces:
                levels = [*map(_convolve, levels, next(swept))]
        _MEMO[pl.key] = tuple(tuple(c.items()) for c in levels)
    entries = [_MEMO[pl.key] for pl in plans]
    if len(_MEMO) > MEMO_ENTRIES:
        for key in [*islice(_MEMO, len(_MEMO) - MEMO_ENTRIES)]:
            del _MEMO[key]
    return entries


def literal_censuses(
    reps: Sequence[MRep], ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> list[dict[int, int]]:
    """The census of each rep by evaluating every parameter vector, budgets checked first;
    each is read from the memo, else swept once and kept, and the dicts returned are new."""
    return [dict(levels[-1]) for levels in _levels(plan(reps, ring, strategy="direct", budget=budget), ring)]


def kernel_census(
    rep: MRep, ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Histogram {k: #parameter vectors with |kernel| = p^k}.

    All moments are recoverable from it: ask^m = sum_k census[k] p^(k m) / p^(n l).
    The budget bounds the nominal p^(n l) vectors, kept or not; the census is
    read off its pieces' unit or torus orbits (plan), one pass per tensor and ring.
    """
    return dict(_levels(plan([rep], ring, budget=budget), ring)[0][-1])


def ask_from_census(
    census: dict[int, int], ring: TruncatedRing, side_rank: int, m: int = 1
) -> Fraction:
    total = sum(count * ring.p ** (k * m) for k, count in census.items())
    return Fraction(total, ring.size**side_rank)


def _result(rep: MRep, pl: Plan, census: dict[int, int], ring: TruncatedRing, m: int) -> AskResult:
    """ask^m from the census of the tensor a plan enumerates: its m-th moment on the
    direct side, else the first, as ask^m(A) = ask(A^(m))."""
    value = ask_from_census(census, ring, pl.tensor.l, m if pl.side == "direct" else 1)
    if pl.side == "circ":  # averaging over the domain rescales by q^(n(m d - l))
        value *= Fraction(ring.p) ** (ring.n * (m * rep.d - rep.l))
    return AskResult(value, ring.n, m, pl.side if pl.side == "direct" else f"{pl.side}-side")


def ask_m(
    rep: MRep,
    ring: TruncatedRing,
    m: int = 1,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> AskResult:
    """Average m-th power of the kernel size, as an exact rational.

    "auto" convolves the census of the side that plans the fewest matrices from
    its pieces' unit or torus orbits; "direct" enumerates every parameter vector
    of rep.
    """
    pl = plan([rep], ring, m, strategy, budget)[0]
    return _result(rep, pl, dict(_levels([pl], ring)[0][-1]), ring, m)


def auto_asks(
    reps: Sequence[MRep], ring: TruncatedRing, m: int = 1, budget: int = DEFAULT_BUDGET
) -> list[AskResult]:
    """ask_m(rep, ring, m, "auto") for each rep: one plan of them all, and one orbit
    sweep per shape and torus of the pieces of the tensors enumerated."""
    plans = plan(reps, ring, m, budget=budget)
    return [_result(rep, pl, dict(levels[-1]), ring, m) for rep, pl, levels in zip(reps, plans, _levels(plans, ring))]


def ask_with_census(
    rep: MRep,
    ring: TruncatedRing,
    m: int = 1,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> tuple[AskResult, dict[int, int]]:
    """(ask_m, kernel_census) of rep, both read off one census of the direct side,
    taken as the strategy takes it: from unit or torus orbits, or literally."""
    _sides(rep, m, strategy)  # an invalid moment or strategy raises
    pl = plan([rep], ring, strategy=strategy, budget=budget)[0]
    census = dict(_levels([pl], ring)[0][-1])
    return _result(rep, pl, census, ring, m), census


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
    levels < 0 (ValueError), which has no coefficient to return; the side with
    the fewest parameters bounds the level. "auto" reads every level from the
    memo's auto entry at the top level, planned there, which a census of the
    same tensor over Z/p^top shares; "direct" takes one literal census per level.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    l = min(_sides(rep, m, strategy).values())
    top = -1  # the highest level whose nominal cost is within budget
    while top < levels and p ** ((top + 1) * l) <= budget:
        top += 1
    if top < 0:
        raise BudgetExceededError(1, budget, 0)
    rings = [TruncatedRing(p, n) for n in range(top + 1)]
    if strategy == "direct":  # one literal census per level
        plans = [plan([rep], ring, m, strategy, budget)[0] for ring in rings]
        censuses = [_levels([pl], ring)[0][-1] for pl, ring in zip(plans, rings)]
    else:  # the census at the top level comes with every level below it
        plans = plan([rep], rings[-1], m, strategy, budget) * len(rings)
        censuses = _levels(plans[:1], rings[-1])[0]
    coeffs = [_result(rep, pl, dict(c), ring, m).value for pl, c, ring in zip(plans, censuses, rings)]
    return ZetaSeries(tuple(coeffs), failed_level=top + 1 if top < levels else None)
