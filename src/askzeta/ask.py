"""Exact computation of average kernel sizes and their zeta coefficients.

ask^m of a representation over Z/p^n is the average of |kernel|^m over all
parameter vectors; each coefficient of the zeta series is one such average,
taken at successive levels n. Everything is exact integer/rational
arithmetic.

For the first moment the enumeration side can be switched: the circ dual
trades the parameter side for the domain side at the cost of an exact power
of p, and the bullet dual preserves the average kernel size outright. The
auto strategy picks whichever side is cheapest (moments m >= 2 stay on the
parameter side) and reads its census off one vector per unit orbit, split by
valuation (bulk.orbit_censuses). An explicit strategy ("direct", "circ",
"bullet") enumerates every parameter vector: the literal definition. Both
evaluate with one additive sweep, on stacks of tensors: literal_censuses and
unit_orbit_censuses stack many reps by shape, one sweep per shape. Budgets
always count the nominal p^(n l) parameter vectors of the side.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import bulk
from .bulk import DEFAULT_BUDGET, BudgetExceededError
from .mrep import Dual, MRep
from .ring import TruncatedRing

__all__ = [
    "DEFAULT_BUDGET",
    "AskResult",
    "ZetaSeries",
    "BudgetExceededError",
    "ask_m",
    "ask_with_census",
    "auto_asks",
    "census_plan",
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


def _check_budget(rep: MRep, ring: TruncatedRing, budget: int) -> None:
    cost = ring.size**rep.l
    if cost > budget:
        raise BudgetExceededError(cost, budget)


# the memo of the active census plan: (shape, reduced bytes, p, n) -> literal census
_PLAN: ContextVar[dict | None] = ContextVar("census_plan", default=None)


@contextmanager
def census_plan() -> Iterator[dict]:
    """Share literal censuses within a block; a nested plan reuses the outer memo."""
    token = _PLAN.set(_PLAN.get() if _PLAN.get() is not None else {})
    try:
        yield _PLAN.get()
    finally:
        _PLAN.reset(token)


def _censuses(reps, ring: TruncatedRing, budget: int, memo: dict, sweep) -> list[dict[int, int]]:
    """memo's census of each rep, budgets checked first; the misses are stacked by
    shape, one sweep per shape."""
    for rep in reps:
        _check_budget(rep, ring, budget)
    arrays = [rep.reduced_array(ring) for rep in reps]
    keys = [(array.shape, array.tobytes(), ring.p, ring.n) for array in arrays]
    misses: dict[tuple, dict] = {}  # shape -> {key: reduced array}, each key once
    for key, array in zip(keys, arrays):
        if key not in memo:
            misses.setdefault(array.shape, {})[key] = array
    for stack in misses.values():
        memo.update(zip(stack, sweep([*stack.values()])))
    return [memo[key] for key in keys]


def literal_censuses(
    reps: Sequence[MRep], ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> list[dict[int, int]]:
    """The census of each rep by evaluating every parameter vector, budgets checked first.

    Misses of the plan's memo (a fresh dict outside a plan) are stacked by shape, one
    bulk.census_of_stack sweep per shape; the histograms returned are the memo's."""
    memo = {} if _PLAN.get() is None else _PLAN.get()
    return _censuses(reps, ring, budget, memo, lambda s: bulk.census_of_stack(s, ring.p, ring.n))


def unit_orbit_censuses(
    reps: Sequence[MRep], ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> list[dict[int, int]]:
    """The census of each rep read off its unit-orbit representatives, budgets checked first.

    The reps are stacked by shape, one bulk.orbit_censuses sweep per shape. A plan's
    memo holds literal censuses only, so these never enter it."""
    def sweep(stack):
        return [levels[ring.n] for levels in bulk.orbit_censuses(stack, ring.p, ring.n)]

    return _censuses(reps, ring, budget, {}, sweep)


def kernel_census(
    rep: MRep, ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Histogram {k: #parameter vectors with |kernel| = p^k}.

    All moments are recoverable from it:
    ask^m = sum_k census[k] p^(k m) / p^(n l).
    The budget bounds the nominal p^(n l) vectors; the census itself is
    read off the unit-orbit representatives (bulk.orbit_censuses).
    """
    return unit_orbit_censuses([rep], ring, budget)[0]


def ask_from_census(
    census: dict[int, int], ring: TruncatedRing, side_rank: int, m: int = 1
) -> Fraction:
    total = sum(count * ring.p ** (k * m) for k, count in census.items())
    return Fraction(total, ring.size**side_rank)


_SIDES = ("direct", "circ", "bullet")


def _side(rep: MRep, m: int, strategy: str) -> tuple[str, MRep]:
    """The enumeration side for a strategy, and the tensor enumerated there."""
    if m < 1:
        raise ValueError("moment must be >= 1")
    if strategy != "auto" and strategy not in _SIDES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if m > 1 and strategy in ("circ", "bullet"):
        raise ValueError(f"strategy {strategy!r} only computes the first moment")
    if strategy == "auto":
        if m > 1:
            strategy = "direct"
        else:
            costs = {"direct": rep.l, "circ": rep.d, "bullet": rep.e}
            strategy = min(_SIDES, key=lambda s: costs[s])
    if strategy == "direct":
        return strategy, rep
    return strategy, rep.dual(Dual.CIRC if strategy == "circ" else Dual.BULLET)


_LABELS = {"direct": "direct", "circ": "circ-side", "bullet": "bullet-side"}


def _result(
    rep: MRep, side: str, tensor: MRep, census: dict[int, int], ring: TruncatedRing, m: int
) -> AskResult:
    """ask^m from the census of the tensor enumerated on the given side."""
    value = ask_from_census(census, ring, tensor.l, m)
    if side == "circ":  # averaging over the domain rescales by q^(n(d-l))
        value *= Fraction(ring.p) ** (ring.n * (rep.d - rep.l))
    return AskResult(value, ring.n, m, _LABELS[side])


def ask_m(
    rep: MRep,
    ring: TruncatedRing,
    m: int = 1,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> AskResult:
    """Average m-th power of the kernel size, as an exact rational.

    "auto" reads the census of the cheapest side off its unit-orbit
    representatives; an explicit side enumerates every parameter vector.
    """
    if strategy == "auto":
        return auto_asks([rep], ring, m, budget)[0]
    side, tensor = _side(rep, m, strategy)
    return _result(rep, side, tensor, literal_censuses([tensor], ring, budget)[0], ring, m)


def auto_asks(
    reps: Sequence[MRep], ring: TruncatedRing, m: int = 1, budget: int = DEFAULT_BUDGET
) -> list[AskResult]:
    """ask_m(rep, ring, m, "auto") for each rep: the cheapest side of each, and
    one unit-orbit sweep per shape of the tensors enumerated there."""
    sides = [_side(rep, m, "auto") for rep in reps]
    censuses = unit_orbit_censuses([tensor for _, tensor in sides], ring, budget)
    return [
        _result(rep, side, tensor, census, ring, m)
        for rep, (side, tensor), census in zip(reps, sides, censuses)
    ]


def ask_with_census(
    rep: MRep,
    ring: TruncatedRing,
    m: int = 1,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> tuple[AskResult, dict[int, int]]:
    """(ask_m, kernel_census) of rep. When "auto" picks the direct side, one census
    gives both; an explicit strategy takes ask_m's value, so "direct" stays literal."""
    side, tensor = _side(rep, m, strategy)
    if strategy != "auto" or side != "direct":
        return ask_m(rep, ring, m, strategy, budget), kernel_census(rep, ring, budget)
    census = kernel_census(rep, ring, budget)
    return _result(rep, side, tensor, census, ring, m), census


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
    failing level flagged; a budget too small for level 0 raises. "auto"
    makes one orbit pass at the highest level within budget and reads every
    lower level from it; an explicit strategy enumerates each level.
    """
    coeffs: list[Fraction] = []
    if strategy == "auto":
        side, tensor = _side(rep, m, strategy)
        top = levels  # the highest level whose nominal cost is within budget
        while top >= 0 and p ** (top * tensor.l) > budget:
            top -= 1
        if top < 0 <= levels:
            raise BudgetExceededError(1, budget, 0)
        censuses = []
        if top >= 0:
            array = tensor.reduced_array(TruncatedRing(p, top))
            censuses = bulk.orbit_censuses(array[None], p, top)[0]
        for n, census in enumerate(censuses):
            coeffs.append(_result(rep, side, tensor, census, TruncatedRing(p, n), m).value)
        return ZetaSeries(tuple(coeffs), failed_level=top + 1 if top < levels else None)
    for n in range(levels + 1):
        ring = TruncatedRing(p, n)
        try:
            coeffs.append(ask_m(rep, ring, m, strategy, budget).value)
        except BudgetExceededError as err:
            raise_level = BudgetExceededError(err.required, err.budget, n)
            if coeffs:
                return ZetaSeries(tuple(coeffs), failed_level=n)
            raise raise_level from err
    return ZetaSeries(tuple(coeffs), failed_level=None)
