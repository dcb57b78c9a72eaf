"""The valuation-layer, unit-orbit census against literal enumeration."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from askzeta import ask, bulk, catalog
from askzeta.ask import BudgetExceededError, ZetaSeries, ask_m, kernel_census, zeta_coeffs
from askzeta.cli import emit_rep, main
from askzeta.mrep import MRep, collapsed_power, constant_rank_check, kminimality_check
from askzeta.ring import TruncatedRing

from helpers import brute_ask, brute_census

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

# every (p, n) with p^n <= 27, n = 0 included
RINGS = [(2, n) for n in range(5)] + [(3, n) for n in range(4)] + [(5, 0), (5, 1), (5, 2)]
RINGS += [(p, n) for p in (7, 11, 13, 17, 19, 23) for n in (0, 1)]


@st.composite
def reps(draw, max_rank=3):
    l, d, e = (draw(st.integers(0, max_rank)) for _ in range(3))
    entry = st.integers(-9, 9)
    coeffs = draw(
        st.lists(
            st.lists(st.lists(entry, min_size=e, max_size=e), min_size=d, max_size=d),
            min_size=l,
            max_size=l,
        )
    )
    return MRep(l, d, e, coeffs)


def literal_census(rep, ring):
    stack = rep.reduced_array(ring).reshape(1, rep.l, rep.d, rep.e)
    return bulk.census_of_stack(stack, ring.p, ring.n)[0]


def side_tensor(rep, m, side):
    """The tensor a side enumerates: rep, or that Knuth dual of its collapsed m-th power."""
    return rep if side == "direct" else collapsed_power(rep, m).dual(side)


def side_ask(rep, ring, m, side):
    """ask^m of rep from the literal census of a side: rep's m-th moment, else the first
    moment of side_tensor (ask^m(A) = ask(A^(m))), rescaled by q^(n(m d - l)) on the circ side."""
    value = ask_m(side_tensor(rep, m, side), ring, m=m if side == "direct" else 1, strategy="direct").value
    return value * Fraction(ring.p) ** (ring.n * (m * rep.d - rep.l)) if side == "circ" else value


@PROPERTY
@given(rep=reps(), ring=st.sampled_from(RINGS))
def test_orbit_census_equals_literal_census(rep, ring):
    p, n = ring
    censuses = bulk.orbit_censuses(rep.reduced_array(TruncatedRing(p, n))[None], p, n)[0]
    assert len(censuses) == n + 1
    for k, census in enumerate(censuses):
        level = TruncatedRing(p, k)
        assert census == literal_census(rep, level)
        if level.size ** (rep.l + rep.d) * max(1, rep.d * rep.e) <= 5000:
            assert census == brute_census(rep, level)
    # every level through the census memo, cold then kept, equals the sweep and the oracles
    ask._MEMO.clear()
    cold = [kernel_census(rep, TruncatedRing(p, k)) for k in range(n + 1)]
    assert len(ask._MEMO) == n + 1
    assert [kernel_census(rep, TruncatedRing(p, k)) for k in range(n + 1)] == cold == censuses


# slice sizes: the default, one vector per batch and one matrix per kernel
# slice (every coordinate a prefix), and sizes that split the coordinates
# between prefixes and stored sums, and the batches between kernel slices
@pytest.mark.parametrize("entries", [None, 1, 40, 300])
@pytest.mark.parametrize(
    "p,n,l,d,e", [(2, 2, 3, 2, 2), (3, 1, 3, 2, 3), (2, 3, 2, 1, 2), (5, 1, 0, 2, 2), (3, 1, 2, 0, 2), (2, 2, 2, 2, 0)]
)
def test_census_sweep_matches_brute_force(monkeypatch, entries, p, n, l, d, e):
    if entries is not None:
        monkeypatch.setattr(bulk, "_SLICE_ELEMENTS", entries)
    ring = TruncatedRing(p, n)
    rng = np.random.default_rng(l * 100 + d * 10 + e)
    reps = [MRep(l, d, e, rng.integers(-9, 10, size=(l, d, e))) for _ in range(3)]
    reps.append(MRep.zero(l, d, e))
    stack = np.stack([rep.reduced_array(ring) for rep in reps])
    censuses = bulk.census_of_stack(stack, p, n)
    assert censuses == [brute_census(rep, ring) for rep in reps]
    assert censuses == [literal_census(rep, ring) for rep in reps]


# the same slice sizes split the orbit blocks between prefixes and stored sums,
# and join small blocks into one kernel batch
@pytest.mark.parametrize("entries", [None, 1, 40, 300])
@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize(
    "p,n,l,d,e",
    [(2, 2, 3, 2, 2), (3, 1, 3, 2, 3), (2, 3, 2, 1, 2), (3, 2, 2, 1, 1), (5, 1, 0, 2, 2),
     (3, 1, 2, 0, 2), (2, 2, 2, 2, 0)],
)
def test_orbit_sweep_matches_brute_force(monkeypatch, entries, T, p, n, l, d, e):
    if entries is not None:
        monkeypatch.setattr(bulk, "_SLICE_ELEMENTS", entries)
    rng = np.random.default_rng([T, p, n, l, d, e])
    reps = [MRep(l, d, e, rng.integers(-9, 10, size=(l, d, e))) for _ in range(max(1, T - 1))]
    if T > 1:
        reps.insert(1, MRep.zero(l, d, e))
    stack = np.stack([rep.reduced_array(TruncatedRing(p, n)) for rep in reps])
    censuses = bulk.orbit_censuses(stack, p, n)
    assert len(censuses) == T
    for k in range(n + 1):
        level = TruncatedRing(p, k)
        literal = bulk.census_of_stack(np.stack([rep.reduced_array(level) for rep in reps]), p, k)
        assert [levels[k] for levels in censuses] == literal
        assert literal == [brute_census(rep, level) for rep in reps]


def test_depth_orbit_census_allocates_only_the_valuation_table():
    # an l = 1 census at Z/p^n reduces one representative, [1]; no table of
    # stored sums or prefixes is sized by p^n, and the kernel's uint8
    # valuations take at most 2^20 entries whatever p^n
    for p, n in [(2, 20), (2, 31), (5, 12), (2**31 - 1, 1)]:
        coeffs = np.array([[[[p**n - 1, p % p**n], [0, p**2 % p**n]]]], dtype=np.int64)
        bulk._valuation_table.cache_clear()
        bulk._pivot_orders.cache_clear()
        tracemalloc.start()
        try:
            censuses = bulk.orbit_censuses(coeffs, p, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (1 << 20) + (1 << 20), (p, n, peak)  # a 2^20-entry table and 1 MiB
        # A(1) has Smith exponents (0, 2), so A(a) for a of valuation v has (v, v + 2), capped at n
        want: dict[int, int] = {}
        for v in range(n + 1):
            k = v + min(v + 2, n)
            want[k] = want.get(k, 0) + ((p - 1) * p ** (n - v - 1) if v < n else 1)
        assert censuses[0][n] == want


@PROPERTY
@given(rep=reps(), ring=st.sampled_from(RINGS), m=st.integers(1, 3))
def test_auto_equals_direct(rep, ring, m):
    p, n = ring
    auto = zeta_coeffs(rep, p, m=m, levels=n, strategy="auto")
    direct = zeta_coeffs(rep, p, m=m, levels=n, strategy="direct")
    assert auto == direct
    value = ask_m(rep, TruncatedRing(p, n), m=m).value
    assert value == direct.coeffs[n]
    if p ** (n * (rep.l + rep.d)) * max(1, rep.d * rep.e) <= 5000:
        assert value == brute_ask(rep, TruncatedRing(p, n), m)


def _levelwise(rep, p, m, levels, budget):
    """The series from one literal census per level on the side auto plans, cut at the
    first level whose p^(n l) over that side's l passes the budget."""
    side = ask_m(rep, TruncatedRing(2, 0), m=m).strategy.removesuffix("-side")
    l = side_tensor(rep, m, side).l
    coeffs = []
    for n in range(levels + 1):
        if p ** (n * l) > budget:
            return ZetaSeries(tuple(coeffs), failed_level=n) if n else ("budget", 1, budget, 0)
        coeffs.append(side_ask(rep, TruncatedRing(p, n), m, side))
    return ZetaSeries(tuple(coeffs))


def _series_or_error(rep, p, m, levels, budget):
    try:
        return zeta_coeffs(rep, p, m=m, levels=levels, budget=budget)
    except BudgetExceededError as err:
        return ("budget", err.required, err.budget, err.level)


@PROPERTY
@given(
    rep=reps(),
    p=st.sampled_from([2, 3, 5]),
    m=st.integers(1, 2),
    levels=st.integers(0, 3),
    budget=st.integers(0, 200),
)
def test_budget_cutoff_matches_levelwise_enumeration(rep, p, m, levels, budget):
    assert _series_or_error(rep, p, m, levels, budget) == _levelwise(rep, p, m, levels, budget)


def test_budget_counts_nominal_vectors():
    rep = MRep(2, 2, 2, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    with pytest.raises(BudgetExceededError) as err:
        kernel_census(rep, TruncatedRing(3, 2), budget=80)
    assert err.value.required == 81
    assert kernel_census(rep, TruncatedRing(3, 2), budget=81) == literal_census(rep, TruncatedRing(3, 2))


def test_cli_budget_exit_with_default_strategy(capsys):
    code = main(["zeta", "--catalog", "matdxe", "--d", "2", "--e", "2", "--p", "3",
                 "--levels", "2", "--budget", "50"])
    out = capsys.readouterr().out
    assert code == 3
    assert "c_1 = " in out and "level 2: enumeration budget exceeded" in out


def unit_kernel_exponents(rep, p, n):
    """Kernel exponents of every parameter vector nonzero mod p, enumerated literally."""
    ring = TruncatedRing(p, n)
    a = np.concatenate(list(bulk.iter_vector_chunks(ring.size, rep.l, 1 << 20)))
    a = a[(a % p).any(axis=1)]
    flat = rep.reduced_array(ring).reshape(rep.l, rep.d * rep.e)
    mats = (a @ flat % ring.size).reshape(len(a), rep.d, rep.e)
    return set(bulk.batch_kernel_exponents(mats, p, n).tolist())


def assert_scans_match_literal_scans(rep, p, n):
    """Both scans of rep over Z/p^n against the kernels of its unit vectors, listed literally."""
    if rep.l:
        ranks = {rep.d - k for k in unit_kernel_exponents(rep, p, 1)}
        assert constant_rank_check(rep, TruncatedRing(p, 1)) == (len(ranks) == 1, max(ranks))
    exps = {k: unit_kernel_exponents(rep, p, k) for k in range(1, n + 1)}
    for r in range(rep.d + 1):
        want = {k: exps[k] <= {k * (rep.d - r)} for k in exps}
        assert kminimality_check(rep, p, n, r) == want


SCAN_RINGS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


@PROPERTY
@given(rep=reps(), ring=st.sampled_from(SCAN_RINGS))
def test_unit_scans_match_literal_scans(rep, ring):
    assert_scans_match_literal_scans(rep, *ring)


def test_scans_read_the_census_memo(monkeypatch):
    reduced, smith = [0], bulk.batch_smith_exponents

    def counting(mats, p, n):
        reduced[0] += len(mats)
        return smith(mats, p, n)

    monkeypatch.setattr(bulk, "batch_smith_exponents", counting)
    band = catalog.make("band", r=2)
    zeta_coeffs(band, 2, levels=3)
    reduced[0] = 0
    assert kminimality_check(band, 2, 3, 2) == {1: True, 2: True, 3: True}
    assert reduced == [0]  # every level is read off the series' census over Z/8
    F5 = TruncatedRing(5, 1)
    for rep in (catalog.make("westwick_a", r=2).dual("bullet"), catalog.make("gamma", d=3)):
        kernel_census(rep, F5)
        reduced[0] = 0
        constant_rank_check(rep, F5)
        assert reduced == [0]
    # the two summands' tori, 3^3 9 + 3^2 (their unit orbits are 1 080 + 12), not the 9^6
    # vectors of the sum's
    rep = catalog.make("matdxe", d=2, e=2).direct_sum(catalog.make("matdxe", d=1, e=2))
    reduced[0] = 0
    assert kminimality_check(rep, 3, 2, 3) == {1: False, 2: False}
    assert reduced == [252]
    assert [kminimality_check(rep, 3, 2, r) for r in (0, 1, 2)] == [{1: False, 2: False}] * 3
    assert reduced == [252]


def test_scans_refuse_before_any_sweep(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration started")

    for name in ("batch_smith_exponents", "iter_vector_chunks", "_sweep", "orbit_censuses", "census_of_stack"):
        monkeypatch.setattr(bulk, name, forbidden)
    band = catalog.make("band", r=3)
    with pytest.raises(BudgetExceededError) as err:
        kminimality_check(band, 3, 3, 3, budget=1000)
    assert (err.value.required, err.value.level) == (3**9, None)  # the top level's nominal count
    with pytest.raises(BudgetExceededError):
        constant_rank_check(band, TruncatedRing(3, 1), budget=26)
    with pytest.raises(ValueError, match="int64"):
        kminimality_check(MRep.zero(3, 3, 3), 2, 31, 3, budget=2**100)


def test_kminimality_refuses_a_rank_outside_the_domain_before_any_sweep(monkeypatch):
    for name in ("batch_smith_exponents", "_sweep", "orbit_censuses", "census_of_stack"):
        monkeypatch.setattr(bulk, name, lambda *args, **kwargs: pytest.fail("enumeration started"))
    band = catalog.make("band", r=2)  # domain rank 3
    for r in (-1, 4, 9):
        with pytest.raises(ValueError, match=rf"target rank {r} is outside 0\.\.3"):
            kminimality_check(band, 2, 2, r)


def test_int64_bound_refused_before_enumeration(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration started")

    for name in ("batch_smith_exponents", "iter_vector_chunks", "_sweep"):
        monkeypatch.setattr(bulk, name, forbidden)
    # the bound is tight over Z/2^31: it holds at l = 2 and fails at l = 3
    bulk.check_evaluation_bound(2, 2**31)
    tiny = np.zeros((3, 1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        bulk.orbit_censuses(tiny[None], 2, 31)
    with pytest.raises(ValueError, match="int64"):
        bulk.census_of_stack(tiny.reshape(1, 3, 1, 1), 2, 31)
    with pytest.raises(ValueError, match="int64"):
        bulk.orbit_censuses(np.zeros((1, 2, 1, 1), dtype=np.int64), 2, 32)
    big = MRep.zero(3, 3, 3)  # every side has 3 parameters
    for strategy in ("auto", "direct"):
        with pytest.raises(ValueError, match="int64"):
            ask_m(big, TruncatedRing(2, 31), strategy=strategy, budget=2**100)


def test_cli_int64_bound_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(emit_rep(MRep.zero(3, 3, 3))))
    code = main(["ask", "--input", str(path), "--p", "2", "--n", "31", "--budget", str(2**100)])
    err = capsys.readouterr().err
    assert code == 2 and "int64" in err
    # at l = 2 the bound holds, and the nominal 2^62 vectors exceed the default budget
    path.write_text(json.dumps({"shape": {"l": 2, "d": 1, "e": 1}, "coeffs": [[[1]], [[0]]]}))
    code = main(["ask", "--input", str(path), "--p", "2", "--n", "31"])
    assert code == 3 and "budget" in capsys.readouterr().err


def test_cli_ask_census_of_a_unit_scalar_at_depth(tmp_path, capsys):
    # a -> (u a) over Z/2^23: ask = 1 + n (p-1)/p, and the census counts valuations
    p, n = 2, 23
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"shape": {"l": 1, "d": 1, "e": 1}, "coeffs": [[[p**n - 5]]]}))
    code = main(["ask", "--input", str(path), "--p", str(p), "--n", str(n), "--census",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert Fraction(payload["value"]) == 1 + Fraction(n * (p - 1), p)
    census = {v: p ** (n - v - 1) * (p - 1) for v in range(n)} | {n: 1}
    assert payload["census"] == {str(v): count for v, count in census.items()}


def test_orbit_census_committed_values():
    # one representative, [1], stands for all the units of Z/2^3
    assert bulk.orbit_censuses(np.ones((1, 1, 1, 1), dtype=np.int64), 2, 3) == [[
        {0: 1},
        {0: 1, 1: 1},
        {0: 2, 1: 1, 2: 1},
        {0: 4, 1: 2, 2: 1, 3: 1},
    ]]
    assert zeta_coeffs(MRep(1, 1, 1, (((1,),),)), 2, levels=2).coeffs == (1, Fraction(3, 2), 2)
    assert bulk.orbit_censuses(np.zeros((1, 0, 2, 1), dtype=np.int64), 3, 2) == [[{0: 1}, {2: 1}, {4: 1}]]
    assert bulk.orbit_censuses(np.zeros((0, 2, 2, 1), dtype=np.int64), 3, 2) == []
