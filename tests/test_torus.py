"""The torus census: each piece in its echelon basis, its coordinates in S moved to p^v by
row and column scalings, against the unit-orbit census and literal enumeration."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from askzeta import ask, bulk, catalog
from askzeta.mrep import MRep
from askzeta.ring import TruncatedRing

from helpers import brute_census, valuation
from test_orbit import PROPERTY, literal_census
from test_planner import seeded_basis, unimodular

FAMILIES = [
    ("matdxe", {"d": 1, "e": 2}), ("matdxe", {"d": 2, "e": 1}), ("matdxe", {"d": 2, "e": 2}),
    ("so", {"d": 3}), ("sym", {"d": 2}), ("band", {"r": 2}), ("hankel", {"r": 2}),
    ("gamma", {"d": 2}), ("type_G", {"d": 2}), ("type_F", {"d": 2}), ("lie_heisenberg", {}),
]
# p = 2 at three levels; p^(n l) stays small enough to enumerate at l <= 4
RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def unit(rng, p, n):
    return int(rng.integers(0, p ** (n - 1))) * p + int(rng.integers(1, p))


@st.composite
def torus_cases(draw):
    """(array, p, n): a reduced tensor with up to one zero slice: a sparse one (l = 0 too),
    or a catalog family under a random monomial or unimodular change of basis."""
    p, n = draw(st.sampled_from(RINGS))
    pn = p**n
    kind = draw(st.sampled_from(["sparse", "monomial", "unimodular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        l, d, e = (draw(st.integers(0, 3)) for _ in range(3))
        entry = st.sampled_from([0, 0, 0, 0, 0, 1, 1, -1, 2, 3, 4, -6, 9])
        array = np.array(draw(st.lists(entry, min_size=l * d * e, max_size=l * d * e)), dtype=np.int64)
        array = array.reshape(l, d, e)
    else:
        name, params = draw(st.sampled_from(FAMILIES))
        array = catalog.make(name, **params).array
        if kind == "unimodular":
            array = seeded_basis(MRep(*array.shape, array), int(rng.integers(2**32))).array
        else:  # permuted, and scaled by units, on all three sides
            for axis, size in enumerate(array.shape):
                scale = np.array([unit(rng, p, n) for _ in range(size)]).reshape([-1 if a == axis else 1 for a in range(3)])
                array = np.take(array, rng.permutation(size), axis=axis) * scale % pn
    pad = draw(st.integers(0, 1))
    array = np.insert(array, int(rng.integers(len(array) + 1)), 0, axis=0) if pad else array
    return np.ascontiguousarray(array % pn), p, n


# c_0 = w_0 + u_0 = w_1 + u_2, c_1 = w_0 + u_1, c_2 = w_0 + u_2 = w_1 + u_1, c_3 = w_1 + u_0:
# c_0 + c_1 = c_2 + c_3, and the characters of coordinates 0 and 1 span their plane only to
# index 2 (c_0 - c_1 = 2(w_0 - w_1) + ...); S is 0 and 2. Over F_3, moving coordinates 0 and 1
# to 1 would change the census, so a greedy S that took a Smith invariant 2 fails on it
NON_UNIT = (np.array([[[1, 0, 0], [0, 0, 2]], [[0, 1, 0], [0, 0, 0]], [[0, 0, 1], [0, 2, 0]], [[0, 0, 0], [1, 0, 0]]]), 3, 1)


def torus_levels(array, p, n):
    """The census of a reduced (l, d, e) tensor at every level 0..n, read off the torus of its
    echelon basis: orbit_censuses with the torus prefix S first, times p^k per dropped row."""
    tensor = bulk.echelon_basis(array, p, n)
    S = bulk.torus_coordinates(tensor != 0)[0]
    order = S + [h for h in range(len(tensor)) if h not in S]
    levels = bulk.orbit_censuses(tensor[order][None], p, n, torus=len(S))[0]
    free = len(array) - len(tensor)
    return [{k: count * p ** (level * free) for k, count in census.items()} for level, census in enumerate(levels)]


@PROPERTY
@given(case=torus_cases())
@example(case=NON_UNIT)
def test_torus_census_equals_orbit_census_and_brute_force(case):
    array, p, n = case
    rep = MRep(*array.shape, array)
    torus = torus_levels(array, p, n)
    assert torus == bulk.orbit_censuses(array[None], p, n)[0]
    ring = TruncatedRing(p, n)
    planned = ask._levels(ask.plan([rep], ring), ring)[0]  # whichever way the planner takes
    assert [*map(dict, planned)] == torus
    for k in range(n + 1):
        level = TruncatedRing(p, k)
        if level.size**rep.l <= 10**5:
            assert torus[k] == literal_census(rep, level)
        if level.size ** (rep.l + rep.d) * max(1, rep.d * rep.e) <= 5000:
            assert torus[k] == brute_census(rep, level)


@PROPERTY
@given(case=torus_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=NON_UNIT, seed=0)
def test_the_torus_acts(case, seed):
    array, p, n = case
    pn = p**n
    rng = np.random.default_rng(seed)
    tensor = bulk.echelon_basis(array, p, n)
    l, d, e = tensor.shape
    S, C, R, P = bulk.torus_coordinates(tensor != 0)
    assert (C[S] @ R == np.eye(len(S), dtype=np.int64)).all()
    if np.array_equal(array, NON_UNIT[0]):
        assert S == [0, 2]

    def scalings(t, chars):  # t^char mod p^n for each row of chars
        return np.array([prod(pow(x, int(c), pn) for x, c in zip(t, char)) % pn for char in chars], dtype=object)

    def A(a):
        return np.tensordot(np.array(a, dtype=object), tensor.astype(object), axes=1) % pn

    # A(t a) = D_row(t) A(a) D_col(t), entry by entry, for random units t
    t = [unit(rng, p, n) for _ in range(C.shape[1])]
    a = [int(x) for x in rng.integers(0, pn, size=l)]
    ta = scalings(t, C) * a % pn
    rows, cols = scalings(t, P[:d] @ C), scalings(t, P[d:] @ C)
    assert (A(ta) == rows[:, None] * A(a) * cols[None, :] % pn).all()
    # and t_g = prod_k y_k^R[g, k], y_k the inverse unit part of a_S, moves a_S to p^v
    vals = [valuation(a[h], p, n) for h in S]
    y = [pow(a[h] // p**v, -1, pn) if v < n else 1 for h, v in zip(S, vals)]
    t = [prod(pow(x, int(k), pn) for x, k in zip(y, line)) % pn for line in R]
    assert [x * a[h] % pn for x, h in zip(scalings(t, C[S]), S)] == [p**v % pn for v in vals]
    # a pattern of valuations v on S weighs #{x : v(x) = v}
    if pn ** len(S) <= 5000:
        patterns = Counter(
            sum(valuation(x, p, n) * (n + 1) ** (len(S) - 1 - i) for i, x in enumerate(xs))
            for xs in product(range(pn), repeat=len(S))
        )
        assert bulk.torus_weights(p, n, len(S)).tolist() == [patterns[i] for i in range((n + 1) ** len(S))]


def test_a_full_matrix_space_in_any_basis_is_the_coordinate_tensor():
    # its flattening is invertible, so the echelon basis is the identity, and its torus has
    # rank d + e - 1: 3^5 4^4 = 62 208 matrices for matdxe(3,3) over Z/4, 130 816 unit orbits
    rep = catalog.make("matdxe", d=3, e=3)
    seeded = seeded_basis(rep, 8020).reduced_array(TruncatedRing(2, 2))
    assert not (seeded == rep.array).all()
    tensor = bulk.echelon_basis(seeded, 2, 2)
    assert (tensor == rep.array).all()
    assert len(bulk.torus_coordinates(tensor != 0)[0]) == 5
    plan = ask.plan([MRep(*seeded.shape, seeded)], TruncatedRing(2, 2))[0]
    assert [s for _, s in plan.pieces] == [5] and plan.free == (0, 0)
    assert plan.planned == 3**5 * 4**4 < plan.nominal


def test_zero_rows_of_the_echelon_basis_are_free_parameters():
    # slice 2 = slice 0 + 3 slice 1: one row of the echelon basis is zero, one free parameter
    rep = catalog.make("matdxe", d=1, e=2)
    array = np.concatenate([rep.array, rep.array[:1] + 3 * rep.array[1:]]) % 9
    assert bulk.echelon_basis(array, 3, 2).shape == (2, 1, 2)
    plan = ask.plan([MRep(*array.shape, array)], TruncatedRing(3, 2))[0]
    assert [(t.shape, s) for t, s in plan.pieces] == [((2, 1, 2), 2)] and plan.free == (1, 0)
    assert torus_levels(array, 3, 2) == bulk.orbit_censuses(array[None], 3, 2)[0]


def parameter_basis(rep, seed):
    """rep under a seeded unimodular change of parameters alone, a -> aM."""
    M = unimodular(np.random.default_rng(seed), rep.l)
    return MRep(*rep.shape, np.tensordot(M, rep.array, axes=1))


# slice sizes: the default, one vector per batch, and sizes that split the patterns between
# batches and join several in one; stacks of one and three tensors with one torus prefix.
# A full matrix space keeps its torus in any basis; so(3) and sym(2) keep theirs under
# changes of parameters, which the echelon basis undoes
@pytest.mark.parametrize("entries", [None, 1, 40, 300])
@pytest.mark.parametrize(
    "name,params,p,n,basis",
    [("matdxe", {"d": 2, "e": 2}, 2, 3, seeded_basis), ("so", {"d": 3}, 5, 2, parameter_basis),
     ("sym", {"d": 2}, 3, 2, parameter_basis)],
)
def test_torus_sweep_matches_the_orbit_sweep(monkeypatch, entries, name, params, p, n, basis):
    ring = TruncatedRing(p, n)
    reps = [basis(catalog.make(name, **params), seed) for seed in (1, 2, 3)]
    plans = [piece for rep in reps for piece in ask.plan([rep], ring)[0].pieces]  # one piece each
    assert len(plans) == len(reps) and len({s for _, s in plans}) == 1 and plans[0][1] >= 2
    want = bulk.orbit_censuses(np.stack([rep.reduced_array(ring) for rep in reps]), p, n)
    if entries is not None:
        monkeypatch.setattr(bulk, "_SLICE_ELEMENTS", entries)
    stack = np.stack([tensor for tensor, _ in plans])
    assert bulk.orbit_censuses(stack, p, n, torus=plans[0][1]) == want
    assert bulk.orbit_censuses(stack[:1], p, n, torus=plans[0][1]) == want[:1]


def test_a_torus_census_past_int64_weighs_exactly():
    # so(3) at Z/2^22: 2^(22 * 3) vectors overflow int64, so the weights are Python ints;
    # 23^3 = 12 167 representatives, against 2^42 (2^3 - 1) unit orbits
    p, n = 2, 22
    so3 = catalog.make("so", d=3).reduced_array(TruncatedRing(p, n))
    plan = ask.plan([catalog.make("so", d=3)], TruncatedRing(p, n), budget=p ** (n * 3))[0]
    ((tensor, s),) = plan.pieces
    assert (s, plan.free, plan.planned) == (3, (0, 0), 23**3)
    levels = bulk.orbit_censuses(tensor[None], p, n, torus=s)[0]
    assert [sum(census.values()) for census in levels] == [p ** (k * 3) for k in range(n + 1)]
    assert levels[:4] == bulk.orbit_censuses(bulk.echelon_basis(so3 % 8, 2, 3)[None], 2, 3)[0]
    # every level's ask is so(3)'s fitted form (1 - q^-2 T)/((1 - T)(1 - qT)) at q = 2, whose
    # coefficients are a_k - a_(k-1)/q^2 with a_k = (q^(k+1) - 1)/(q - 1)
    a = [2 ** (k + 1) - 1 for k in range(n + 1)]
    want = [Fraction(a[0])] + [a[k] - Fraction(a[k - 1], 4) for k in range(1, n + 1)]
    assert [ask.ask_from_census(census, TruncatedRing(p, k), 3) for k, census in enumerate(levels)] == want
