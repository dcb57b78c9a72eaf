"""The auto planner: collapsed powers on the Knuth sides, direct summands by convolution."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from askzeta import ask, bulk, catalog
from askzeta.ask import (
    BudgetExceededError,
    ask_from_census,
    ask_m,
    ask_with_census,
    kernel_census,
    literal_censuses,
    zeta_coeffs,
)
from askzeta.mrep import MRep
from askzeta.ring import TruncatedRing

from helpers import brute_ask, brute_census
from test_orbit import (
    PROPERTY,
    SCAN_RINGS,
    assert_scans_match_literal_scans,
    literal_census,
    reps,
    side_ask,
)


def auto_censuses(reps, ring):
    """The census of each rep as kernel_census takes it, from one plan of them all."""
    return [dict(levels[-1]) for levels in ask._levels(ask.plan(reps, ring), ring)]


@st.composite
def interleaved_sums(draw):
    """A direct sum of two reps, padded with up to one zero slice on each side,
    with all three index sets shuffled so that the blocks interleave."""
    a, b = draw(reps(max_rank=2)), draw(reps(max_rank=2))
    pad = [draw(st.integers(0, 1)) for _ in range(3)]
    array = np.pad(a.direct_sum(b).array, [(0, k) for k in pad])
    for axis, size in enumerate(array.shape):
        array = np.take(array, draw(st.permutations(range(size))), axis=axis)
    return MRep(*array.shape, array), a, b


# every (p, n) with p^n <= 9, n = 0 included
SMALL_RINGS = [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


@PROPERTY
@given(case=interleaved_sums(), ring=st.sampled_from(SMALL_RINGS), m=st.integers(1, 2))
def test_direct_summands_equal_the_literal_census(case, ring, m):
    rep, a, b = case
    p, n = ring
    top = TruncatedRing(p, n)
    literal = [literal_census(rep, TruncatedRing(p, k)) for k in range(n + 1)]
    assert kernel_census(rep, top) == literal[n]
    assert auto_censuses([a, rep, b], top) == [
        literal_census(a, top), literal[n], literal_census(b, top)
    ]
    auto = zeta_coeffs(rep, p, m=m, levels=n, strategy="auto")
    assert auto.coeffs == tuple(
        ask_from_census(census, TruncatedRing(p, k), rep.l, m) for k, census in enumerate(literal)
    )
    if top.size ** (rep.l + rep.d) * max(1, rep.d * rep.e) <= 5000:
        assert literal[n] == brute_census(rep, top)


@PROPERTY
@given(case=interleaved_sums(), ring=st.sampled_from(SCAN_RINGS))
def test_unit_scans_of_interleaved_sums_match_literal_scans(case, ring):
    # the scans read the convolution of the sum's pieces; the literal scan lists its unit vectors
    assert_scans_match_literal_scans(case[0], *ring)


@PROPERTY
@given(rep=reps(max_rank=2), ring=st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]), m=st.integers(2, 3))
def test_every_side_answers_higher_moments(rep, ring, m):
    ring = TruncatedRing(*ring)
    values = {s: side_ask(rep, ring, m, s) for s in ("direct", "circ", "bullet")}
    values["auto"] = ask_m(rep, ring, m=m).value
    assert len(set(values.values())) == 1, values
    if ring.size ** (rep.l + rep.d) * max(1, rep.d * rep.e) <= 5000:
        assert values["direct"] == brute_ask(rep, ring, m)


def _interleaved(rep, seed):
    rng = np.random.default_rng(seed)
    array = rep.array
    for axis, size in enumerate(array.shape):
        array = np.take(array, rng.permutation(size), axis=axis)
    return MRep(*array.shape, array)


def unimodular(rng, k):
    """A seeded k x k integer matrix of determinant +-1: row additions and swaps of the identity."""
    B = np.eye(k, dtype=np.int64)
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.choice(k, size=2, replace=False)
        if rng.random() < 0.25:
            B[[i, j]] = B[[j, i]]
        else:
            B[i] += rng.choice([-1, 1]) * B[j]
    return B


def seeded_basis(rep, seed):
    """rep under seeded unimodular changes of basis on all three sides: a -> aM, then P A Q."""
    rng = np.random.default_rng(seed)
    M, P, Q = (unimodular(rng, k) for k in rep.shape)
    return MRep(*rep.shape, np.einsum("hk,ia,kab,bj->hij", M, P, rep.array, Q))


m33, m23 = catalog.make("matdxe", d=3, e=3), catalog.make("matdxe", d=2, e=3)
m22_m12 = _interleaved(catalog.make("matdxe", d=2, e=2).direct_sum(catalog.make("matdxe", d=1, e=2)), 1)
Z4, Z9 = TruncatedRing(2, 2), TruncatedRing(3, 2)
m33_seeded, m23_seeded = seeded_basis(m33, 8020), seeded_basis(m23, 1807)

# the census queries of perfbench's queries workload whose planner changed, each as a
# function of the strategy; "direct" is the literal definition
QUERIES = {
    "census m33 Z/4 seeded": lambda s: (kernel_census if s == "auto" else literal_census)(m33_seeded, Z4),
    "census m23 Z/9 seeded": lambda s: (kernel_census if s == "auto" else literal_census)(m23_seeded, Z9),
    "ask m33 Z/4 m=2": lambda s: ask_m(m33, Z4, m=2, strategy=s).value,
    "ask m23 Z/9 m=2": lambda s: ask_m(m23, Z9, m=2, strategy=s).value,
    "zeta m23 p=2 m=2": lambda s: zeta_coeffs(m23, 2, m=2, levels=2, strategy=s),
    "census m22+m12 Z/9": lambda s: (kernel_census if s == "auto" else literal_census)(m22_m12, Z9),
}


# Each piece reduces the fewer of its unit-orbit representatives,
# p^((n-1)(l-1)) (p^l - 1)/(p - 1), and its torus census, (n+1)^s p^(n(l-s)) with s the
# torus prefix of its echelon basis; the counts in brackets are the unit orbits'.
@pytest.mark.parametrize(
    "name,reduced,shapes",
    [
        # seeded bases: the echelon basis is the coordinate tensor again, whose torus has
        # rank d + e - 1: 3^5 4^4 = 62 208 (2^8 511 = 130 816) and 3^4 9^2 = 6 561 (3^5 364 = 88 452)
        ("census m33 Z/4 seeded", 62208, {(3, 3)}),
        ("census m23 Z/9 seeded", 6561, {(2, 3)}),
        # the circ side of the collapsed square, 6 parameters in place of 9, s = 4:
        # 3^4 4^2 = 1 296 (2^5 63 = 2 016; 130 816 at the direct side)
        ("ask m33 Z/4 m=2", 1296, {(9, 6)}),
        ("ask m23 Z/9 m=2", 243, {(6, 6)}),  # 4 parameters, s = 3: 3^3 9 (3^3 40 = 1 080)
        ("zeta m23 p=2 m=2", 108, {(6, 6)}),  # s = 3 over Z/4: 3^3 4 (2^3 15 = 120)
        # two pieces, each swept on its own: s = 3 of 4 for the 2 x 2 piece, 3^3 9 = 243, and
        # s = 2 of 2 for the 1 x 2 piece, 3^2 = 9 (1 080 and 12; 88 452 for the 3 x 4 sum)
        ("census m22+m12 Z/9", 252, {(2, 2), (1, 2)}),
    ],
)
def test_matrices_reduced_by_the_planner(monkeypatch, name, reduced, shapes):
    direct = QUERIES[name]("direct")
    seen = []
    batch_smith_exponents = bulk.batch_smith_exponents

    def counting(mats, p, n):
        seen.append(mats.shape)
        return batch_smith_exponents(mats, p, n)

    monkeypatch.setattr(bulk, "batch_smith_exponents", counting)
    assert QUERIES[name]("auto") == direct
    assert sum(shape[0] for shape in seen) == reduced
    assert {shape[1:] for shape in seen} == shapes


@pytest.fixture
def reduced(monkeypatch):
    """The number of matrices bulk.batch_smith_exponents has reduced, as a one-item list."""
    count = [0]
    batch_smith_exponents = bulk.batch_smith_exponents

    def counting(mats, p, n):
        count[0] += len(mats)
        return batch_smith_exponents(mats, p, n)

    monkeypatch.setattr(bulk, "batch_smith_exponents", counting)
    return count


# matdxe(2,2) ties on every side at m = 2 and 3, so those moments and their series
# enumerate the direct side, the tensor whose census kernel_census takes. Its torus has
# rank 3 = d + e - 1, so over Z/9 it reduces 3^3 9 = 243 matrices, not its 1 080 unit orbits
m22 = catalog.make("matdxe", d=2, e=2)


def test_a_census_and_its_moments_share_one_orbit_pass(reduced):
    census = kernel_census(m22, Z9)
    assert reduced[0] == 243
    assert ask_m(m22, Z9, m=3).value == ask_from_census(census, Z9, m22.l, 3)
    assert reduced[0] == 243  # the third moment is read off the kept census
    series = zeta_coeffs(m22, 3, m=2, levels=2)
    assert reduced[0] == 243  # and so is the series to level 2 over Z/9
    assert series.coeffs == tuple(
        ask_from_census(literal_census(m22, TruncatedRing(3, k)), TruncatedRing(3, k), m22.l, 2) for k in range(3)
    )
    assert len(ask._MEMO) == 1


def test_a_kept_census_over_budget_still_raises():
    kernel_census(m22, Z9)
    literal_censuses([m22], Z9)
    assert len(ask._MEMO) == 2
    nominal = Z9.size**m22.l
    for call in (
        lambda budget: kernel_census(m22, Z9, budget=budget),
        lambda budget: ask_m(m22, Z9, m=2, budget=budget),
        lambda budget: ask_with_census(m22, Z9, budget=budget),
        lambda budget: literal_censuses([m22], Z9, budget=budget),
        lambda budget: ask_m(m22, Z9, m=2, strategy="direct", budget=budget),
    ):
        call(nominal)  # the budget bounds the nominal p^(n l) vectors, kept or not
        with pytest.raises(BudgetExceededError):
            call(nominal - 1)


def test_mutating_a_returned_census_changes_no_later_answer(reduced):
    census = kernel_census(m22, Z9)
    want = dict(census)
    census.clear()
    _, other = ask_with_census(m22, Z9)
    other[0] += 1
    auto_censuses([m22], Z9)[0][1] = 0
    assert kernel_census(m22, Z9) == want
    assert ask_m(m22, Z9, m=2).value == ask_from_census(want, Z9, m22.l, 2)
    assert reduced[0] == 243  # every answer after the first was kept
    assert want == literal_census(m22, Z9)


def test_a_cleared_literal_census_changes_no_later_answer(monkeypatch):
    sweeps = []
    census_of_stack = bulk.census_of_stack

    def counting(stack, p, n):
        sweeps.append(len(stack))
        return census_of_stack(stack, p, n)

    monkeypatch.setattr(bulk, "census_of_stack", counting)
    first = literal_censuses([m22], Z9)[0]
    want = dict(first)
    first.clear()
    assert literal_censuses([m22], Z9) == [want]
    assert ask_m(m22, Z9, m=1, strategy="direct").value == Fraction(25, 9)
    assert sweeps == [1]  # one sweep, then the kept census


def test_literal_and_auto_censuses_are_kept_apart(monkeypatch):
    calls = []
    for name in ("census_of_stack", "orbit_censuses"):

        def counting(stack, p, n, name=name, sweep=getattr(bulk, name), **torus):
            calls.append(name)
            return sweep(stack, p, n, **torus)

        monkeypatch.setattr(bulk, name, counting)
    orbit = kernel_census(m22, Z9)
    assert literal_censuses([m22], Z9) == [orbit]  # enumerated, not read from the auto entry
    assert kernel_census(m22, Z9) == orbit and literal_censuses([m22], Z9) == [orbit]  # both kept
    assert calls == ["orbit_censuses", "census_of_stack"]
    assert sorted(key[0] for key in ask._MEMO) == ["auto", "direct"]  # one tensor, two keys
    del ask._MEMO[next(key for key in ask._MEMO if key[0] == "auto")]
    assert kernel_census(m22, Z9) == orbit  # swept, not read from the literal entry
    assert calls == ["orbit_censuses", "census_of_stack", "orbit_censuses"]


def test_the_memo_is_bounded(monkeypatch):
    assert ask.MEMO_ENTRIES >= 4897  # the censuses of one askzeta verify run at seed 1807
    monkeypatch.setattr(ask, "MEMO_ENTRIES", 3)
    tensors = [catalog.make("matdxe", d=1, e=e) for e in range(1, 6)]
    # one call with more misses than the bound answers every one of them, of either kind
    assert auto_censuses(tensors, Z9) == [literal_census(t, Z9) for t in tensors]
    assert literal_censuses(tensors, Z9) == [literal_census(t, Z9) for t in tensors]
    assert [key[:2] for key in ask._MEMO] == [("direct", (3, 1, 3)), ("direct", (4, 1, 4)), ("direct", (5, 1, 5))]
    kernel_census(tensors[0], Z9)  # evicted, so computed again: the oldest goes
    assert [key[:2] for key in ask._MEMO] == [("direct", (4, 1, 4)), ("direct", (5, 1, 5)), ("auto", (1, 1, 1))]
