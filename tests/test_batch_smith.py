"""The batch Smith kernel against the scalar reduction in helpers and literal counting."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from askzeta import bulk, catalog
from askzeta.bulk import batch_kernel_exponents, batch_smith_exponents
from askzeta.ring import TruncatedRing, kernel_size

from helpers import brute_kernel_count, smith_exponents, valuation

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

# both sides of each narrow-dtype threshold: int16 | int32 and int32 | int64
THRESHOLD_RINGS = [(181, 1), (2, 8), (46337, 1), (2, 16)]
# both sides of the valuation table's 2^20 entries: Z/3^13, Z/3^19 and Z/2^31 read two digits
RINGS = [(2, 1), (2, 2), (3, 2), (5, 1), (5, 2), (2, 20), (3, 13), (3, 19), (2, 31)] + THRESHOLD_RINGS
# vectors both ways, the collapsed powers of the moment laws, and the largest square
SHAPES = [(1, 1), (1, 7), (7, 1), (1, 9), (9, 1), (5, 6), (6, 5), (9, 9)]
KINDS = ("skewed", "mixed valuations", "zero rows", "zero columns", "zero", "low rank", "units near p^n")


def skewed(rng, p, n, shape, skew):
    """Entries u p^v, v geometric with parameter skew and capped at n (a zero)."""
    v = np.minimum(rng.geometric(skew, size=shape) - 1, n)
    return rng.integers(0, p**n, size=shape) * p**v % p**n


def matrix(rng, kind, p, n, d, e, skew):
    """One d x e matrix over Z/p^n whose trailing block empties as kind says."""
    if kind == "zero":
        return np.zeros((d, e), dtype=np.int64)
    if kind == "units near p^n":
        # the largest products a step forms: all p^n - 1, or units p^n - k with small k
        if rng.random() < 0.5:
            return np.full((d, e), p**n - 1, dtype=np.int64)
        k = rng.integers(1, 2 * p + 1, size=(d, e))
        return (p**n - np.where(k % p, k, 1)) % p**n
    if kind == "mixed valuations":
        # every valuation 0..n alike, so deep rings read a second digit beside one-digit entries
        v = rng.integers(0, n + 1, size=(d, e))
        return rng.integers(1, p**n, size=(d, e)) * (p**v % p**n) % p**n
    if kind == "low rank":
        r = int(rng.integers(0, max(1, min(d, e))))
        return skewed(rng, p, n, (d, r), skew) @ skewed(rng, p, n, (r, e), skew) % p**n
    A = skewed(rng, p, n, (d, e), skew)
    if kind == "zero rows":
        A[rng.random(d) < 0.5] = 0
    if kind == "zero columns":
        A[:, rng.random(e) < 0.5] = 0
    return A


@st.composite
def batches(draw):
    """A ring and a batch of same-shaped matrices of mixed kinds, so some drop out early."""
    p, n = draw(st.sampled_from(RINGS))
    d, e = draw(st.sampled_from(SHAPES) | st.tuples(st.integers(0, 9), st.integers(0, 9)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    skew = draw(st.sampled_from((0.2, 0.5, 0.8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [matrix(rng, kind, p, n, d, e, skew) for kind in kinds]
    return p, n, np.array(mats, dtype=np.int64).reshape(len(kinds), d, e)


def at_thresholds(test):
    """Pin batches of the largest intermediates at each threshold ring, in every shape."""
    rng = np.random.default_rng(0)
    for p, n in THRESHOLD_RINGS:
        for d, e in SHAPES:
            mats = np.array([matrix(rng, "units near p^n", p, n, d, e, 0.5) for _ in range(4)])
            test = example(batch=(p, n, mats))(test)
    return test


@PROPERTY
@at_thresholds
@given(batch=batches())
def test_batch_smith_matches_scalar(batch):
    p, n, mats = batch
    ring = TruncatedRing(p, n)
    N, d, e = mats.shape
    smith = batch_smith_exponents(mats, p, n)
    kexp = batch_kernel_exponents(mats, p, n)
    assert smith.shape == (N, min(d, e)) and smith.dtype == np.uint8
    assert kexp.dtype == np.int64
    flipped = mats.transpose(0, 2, 1)
    assert (batch_smith_exponents(flipped, p, n) == smith).all()
    assert (batch_kernel_exponents(flipped, p, n) == kexp + n * (e - d)).all()
    for entries, exps, k in zip(mats.tolist(), smith.tolist(), kexp.tolist()):
        want = smith_exponents(entries, p, n)
        assert exps == want
        assert k == sum(want) + n * (d - min(d, e))
        if ring.size**d <= 256:
            assert p**k == brute_kernel_count(entries, ring)


# one digit up to 2^20 entries; two past it; a prime past it (n = 1) reads zeros only
DEEP_RINGS = [(2, 20), (3, 13), (5, 12), (3, 19), (2, 31), (2097169, 1), (2**31 - 1, 1)]


@pytest.mark.parametrize("p,n", DEEP_RINGS)
def test_valuations_are_exact_on_both_sides_of_the_table_bound(p, n):
    # every valuation 0..n of 1 x 1 matrices u p^v, and 0, against the oracle
    pn = p**n
    h = bulk._table_level(p, n)
    assert p**h <= 1 << 20 < p ** (h + 1) or h == n
    units = [u for u in (1, p + 1, pn - 1, 2 * p - 1, pn // 2 + 1) if u % p] + list(
        p * np.random.default_rng([p, n]).integers(0, pn // p, size=8) + 1
    )
    xs = [0] + [int(u) * p**v % pn for v in range(n + 1) for u in units]
    exps = batch_smith_exponents(np.array(xs, dtype=np.int64).reshape(-1, 1, 1), p, n)
    table = bulk._valuation_table(p, h)
    assert table.dtype == np.uint8 and table.shape == (p**h,)
    assert exps[:, 0].tolist() == [valuation(x, p, n) for x in xs]
    assert set(exps[:, 0].tolist()) == set(range(n + 1))


def test_first_call_allocates_only_the_valuation_table():
    # memory grows with the batch, not with p^n: the one allocation near
    # 1 MiB is the uint8 valuation table, at most 2^20 entries whatever p^n
    for p, n in [(2, 20), (2, 31), (5, 12), (2**31 - 1, 1)]:
        pn = p**n
        mats = np.array(
            [[[3, 6], [10, 12]], [[pn - 1, 5], [7, pn // p]], [[p ** (n - 1), 0], [pn - p ** (n // 2), 0]]],
            dtype=np.int64,
        )
        bulk._valuation_table.cache_clear()
        bulk._pivot_orders.cache_clear()
        tracemalloc.start()
        try:
            exps = batch_smith_exponents(mats, p, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exps.tolist() == [smith_exponents(A, p, n) for A in mats.tolist()]
        assert peak < (1 << 20) + (1 << 20), (p, n, peak)  # a 2^20-entry table and 1 MiB


def test_one_valuation_table_stays_cached():
    # rings in turn leave one table behind: the three tables took 3.0 MB
    # when every table stayed cached
    bulk._valuation_table.cache_clear()
    tracemalloc.start()
    try:
        for p, n in [(2, 20), (3, 13), (5, 8)]:
            batch_smith_exponents(np.ones((2, 2, 2), dtype=np.int64), p, n)
        alive, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alive < 1 << 20


@pytest.mark.parametrize(
    "pn,dtype", [(181, np.int16), (2**8, np.int32), (46337, np.int32), (2**16, np.int64)]
)
def test_narrow_dtype_holds_a_step(pn, dtype):
    assert bulk._narrow_dtype(pn) is dtype
    assert (pn - 1) * pn <= np.iinfo(dtype).max


@PROPERTY
@at_thresholds
@given(batch=batches())
def test_unreduced_batch_gives_the_same_exponents(batch):
    p, n, mats = batch
    pn = p**n
    smith = batch_smith_exponents(mats, p, n)
    # the kernel reduces a copy: negative or unreduced entries are safe and kept
    shifted = mats - pn * (np.arange(mats.size).reshape(mats.shape) % 3)
    before = shifted.copy()
    assert (batch_smith_exponents(shifted, p, n) == smith).all()
    assert (shifted == before).all()
    unreduced = mats + pn * (np.arange(mats.size).reshape(mats.shape) % 5)
    kexp = batch_kernel_exponents(mats, p, n)
    assert (batch_kernel_exponents(unreduced, p, n) == kexp).all()
    # shifts up to the evaluation bound l (p^n - 1)^2 at l = 9, or at the
    # largest l the bound admits (2 at Z/2^31), both signs: a kernel that
    # narrowed before reducing would wrap them
    l = min(9, (bulk._INT64_LIMIT - 1) // (pn - 1) ** 2)
    top = (l * (pn - 1) ** 2 - (pn - 1)) // pn
    shifts = pn * (top >> (np.arange(mats.size).reshape(mats.shape) % 8))
    for sign in (1, -1):
        assert (batch_smith_exponents(mats + sign * shifts, p, n) == smith).all()


def sweep_layout(mats, p, n):
    """mats as the census sweeps hand them over: reduced, narrow and batch-last."""
    N, d, e = mats.shape
    flat = mats.reshape(N, d * e).T % p**n
    return np.ascontiguousarray(flat.astype(bulk._narrow_dtype(p**n))).T.reshape(N, d, e)


@PROPERTY
@given(batch=batches(), copies=st.integers(1, 5), slice_entries=st.integers(1, 60))
def test_any_slice_gives_the_same_exponents(batch, copies, slice_entries):
    # slices of a few entries: a batch straddles many slice boundaries, and
    # each slice drops its own zero blocks
    p, n, mats = batch
    mats = np.concatenate([mats, mats[::-1]] * copies)
    whole = batch_smith_exponents(mats, p, n)
    kexp = batch_kernel_exponents(mats, p, n)
    with mock.patch.object(bulk, "_SLICE_ELEMENTS", slice_entries):
        for layout in (mats, sweep_layout(mats, p, n)):
            assert (batch_smith_exponents(layout, p, n) == whole).all()
            assert (batch_kernel_exponents(layout, p, n) == kexp).all()


@pytest.mark.parametrize("p,n", [(3, 2), (2, 8), (2, 16)])  # int16, int32, int64
@pytest.mark.parametrize("per_slice", [1, 2, 3, 5, 8, 13])
def test_slices_straddle_zero_blocks(p, n, per_slice):
    # mostly zero blocks after the first pivot, so every slice with a live
    # matrix drops the rest; 37 matrices never fill the last slice
    rng = np.random.default_rng([p, n, per_slice])
    pn = p**n
    mats = np.zeros((37, 3, 3), dtype=np.int64)
    mats[:, 0, 0] = p * rng.integers(0, pn // p, size=37)
    mats[::3, 1:, 1:] = rng.integers(0, pn, size=(13, 2, 2))
    mats[::7] = rng.integers(0, pn, size=(6, 3, 3))
    want = [smith_exponents(A, p, n) for A in mats.tolist()]
    with mock.patch.object(bulk, "_SLICE_ELEMENTS", 9 * per_slice):
        for layout in (mats, sweep_layout(mats, p, n)):
            assert batch_smith_exponents(layout, p, n).tolist() == want


@pytest.mark.parametrize("p,n", RINGS)
def test_uint64_and_python_int_entries_are_reduced_exactly(p, n):
    # entries past int64, which a cast to int64 would wrap or refuse; the
    # slices are short, so the reduction is exact in every slice
    rng = np.random.default_rng([p, n])
    pn = p**n
    lifts = rng.integers(0, 2**64 // pn, size=(20, 3, 3), dtype=np.uint64)
    wide = rng.integers(0, pn, size=(20, 3, 3)).astype(np.uint64) + lifts * np.uint64(pn)
    wide[0, 0, 0] = 2**64 - 1  # 6 mod 9, where a cast to int64 wraps to -1, a unit
    huge = wide.astype(object) * (1 - 2**70)  # Python ints, negative and past int64
    with mock.patch.object(bulk, "_SLICE_ELEMENTS", 27):
        for mats in (wide, huge):
            want = [smith_exponents(A, p, n) for A in mats.tolist()]
            assert batch_smith_exponents(mats, p, n).tolist() == want


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64, np.bool_]


@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
@pytest.mark.parametrize("p,n", [(3, 5), (2, 20)])
def test_every_integer_dtype_gives_the_oracle_exponents(dtype, p, n):
    # p^n exceeds int8 and uint8 at Z/3^5, and int16 and uint16 too at Z/2^20
    if dtype is np.bool_:
        lo, hi = 0, 1
    else:
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    # every valuation the dtype holds, both signs, and its extremes
    values = sorted({x for v in range(n + 1) for x in (0, p**v, -(p**v), 2 * p**v, lo, hi) if lo <= x <= hi})
    rng = np.random.default_rng([p, n, len(values)])
    mats = np.array(values, dtype=object)[rng.integers(0, len(values), size=(200, 3, 3))].astype(dtype)
    want = [smith_exponents(A, p, n) for A in mats.tolist()]
    assert batch_smith_exponents(mats, p, n).tolist() == want
    ring = TruncatedRing(p, n)
    assert [kernel_size(A, ring) for A in mats[:5]] == [p ** sum(exps) for exps in want[:5]]


@pytest.mark.parametrize(
    "mats", [[[[2.9]]], [[[2.0, 1.0]]], [[[1 + 0j]]], [[["1"]]], [[[2**70, 2.9]]], [[[Fraction(5, 2)]]]]
)
def test_non_integer_entries_are_refused(mats):
    # the last two are object arrays: Python ints beside a float, and a fraction
    with pytest.raises(ValueError, match="integers"):
        batch_smith_exponents(np.array(mats), 2, 3)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_follows_the_slice_not_the_batch():
    # 3 x 2 over Z/9 as the census sweeps pass them; past one slice, only the
    # output grows with the batch
    rng = np.random.default_rng(0)
    batch_smith_exponents(np.zeros((1, 3, 2), dtype=np.int16), 3, 2)  # the tables
    peaks = {}
    for N in (1 << 16, 1 << 19):
        mats = np.ascontiguousarray(rng.integers(0, 9, size=(6, N), dtype=np.int16)).T.reshape(N, 3, 2)
        peaks[N] = traced_peak(lambda: batch_smith_exponents(mats, 3, 2))
    assert peaks[1 << 19] - peaks[1 << 16] <= (1 << 19) * 2 + (1 << 20)
    assert peaks[1 << 19] < 10 << 20


def test_a_large_census_peaks_below_2_mb():
    # criterion 3's literal census: 531 441 matrices of matdxe(3,2) over Z/9
    rep, ring = catalog.make("matdxe", d=3, e=2), TruncatedRing(3, 2)
    coeffs = rep.reduced_array(ring)[None]
    census = []
    peak = traced_peak(lambda: census.extend(bulk.census_of_stack(coeffs, 3, 2)))
    assert sum(census[0].values()) == 9**6
    assert peak < 2 << 20


@pytest.mark.parametrize("census", ["orbit", "stack"])
def test_large_censuses_peak_below_2_mb_and_match_one_slice(census):
    # the queries workload's orbit census of matdxe(3,3) over Z/4 (130 816
    # representatives), and 16 tensors of 3 x 3 x 3 over Z/25 (250 000 matrices)
    if census == "orbit":
        p, n, sweep = 2, 2, bulk.orbit_censuses
        coeffs = catalog.make("matdxe", d=3, e=3).reduced_array(TruncatedRing(p, n))[None]
    else:
        p, n, sweep = 5, 2, bulk.census_of_stack
        coeffs = np.random.default_rng(0).integers(0, p**n, size=(16, 3, 3, 3))
    result = []
    peak = traced_peak(lambda: result.extend(sweep(coeffs, p, n)))
    T, l, d, e = coeffs.shape
    # every vector in one batch, and the batch in one kernel slice
    with mock.patch.object(bulk, "_SLICE_ELEMENTS", T * p ** (n * l) * d * e):
        assert sweep(coeffs, p, n) == result
    assert peak < 2 << 20
