"""Array-backed tensor operations against their literal index definitions."""

import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from askzeta.cli import emit_rep, parse_rep
from askzeta.mrep import HomotopyTriple, MRep, collapse, collapsed_power, verify_homotopy
from askzeta.ring import TruncatedRing

from helpers import (
    literal_collapse,
    literal_direct_sum,
    literal_dual,
    literal_evaluate,
    literal_homotopy,
    literal_hull,
    literal_is_alternating,
    literal_reduced,
    literal_scalar_multiply,
)

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

# entries on both sides of the int64 storage bound 2^62 and beyond int64 itself
BOUNDARY = [2**62 - 1, -(2**62 - 1), 2**62, -(2**62), 2**63, -(2**63), 2**70, -(2**70)]
SMALL = st.integers(-9, 9)
ENTRY = st.one_of(SMALL, SMALL, SMALL, st.sampled_from(BOUNDARY))

# p^n up to 3^40 > 2^63: evaluation past the int64 bound; n = 0 is the zero ring
RINGS = [(2, 0), (2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 2), (2, 31), (3, 40)]
ring_st = st.sampled_from(RINGS).map(lambda pn: TruncatedRing(*pn))
DUALS = ("circ", "bullet", "vee")
SIDES = {"mod": 0, "dom": 1, "cod": 2}


def view(rep):
    return rep.shape, rep.coeffs


def nested(draw, shape, entry):
    l, d, e = shape
    row = st.lists(entry, min_size=e, max_size=e)
    return draw(st.lists(st.lists(row, min_size=d, max_size=d), min_size=l, max_size=l))


@st.composite
def reps(draw, shape=None, entry=ENTRY, max_rank=3):
    """Tensors with every side rank in 0..max_rank, rank 0 included."""
    shape = shape or tuple(draw(st.integers(0, max_rank)) for _ in range(3))
    return MRep(*shape, nested(draw, shape, entry))


@st.composite
def alternating_reps(draw):
    l, e = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    c = np.array(nested(draw, (l, l, e), ENTRY), dtype=object).reshape(l, l, e)
    return MRep(l, l, e, c - c.transpose(1, 0, 2))


@st.composite
def summands(draw):
    """(mode, k, blocks) for 1-3 tensors that share a side of size k."""
    mode = draw(st.sampled_from(sorted(SIDES)))
    k = draw(st.integers(0, 2))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        shape = [draw(st.integers(0, 2)) for _ in range(3)]
        shape[SIDES[mode]] = k
        blocks.append(draw(reps(shape=tuple(shape))))
    return mode, k, blocks


def check_storage(rep):
    small = all(-(2**62) < x < 2**62 for x in rep.array.ravel().tolist())
    assert rep.array.dtype == (np.int64 if small else object)
    assert not rep.array.flags.writeable


@PROPERTY
@given(reps())
def test_duals_match_literal_and_obey_s3_laws(rep):
    check_storage(rep)
    for which in DUALS:
        got = rep.dual(which)
        assert view(got) == literal_dual(rep, which)
        check_storage(got)
        assert got.dual(which) == rep
    circ, bullet, vee = (rep.dual(which) for which in DUALS)
    # conjugating one transposition by another gives the third
    assert circ.dual("bullet").dual("circ") == vee
    assert bullet.dual("vee").dual("bullet") == circ
    assert vee.dual("circ").dual("vee") == bullet


@PROPERTY
@given(reps(), reps())
def test_direct_sum_matches_literal(a, b):
    got = a.direct_sum(b)
    assert view(got) == literal_direct_sum(a, b)
    check_storage(got)


@PROPERTY
@given(summands())
def test_collapse_matches_literal_in_every_mode(case):
    mode, k, blocks = case
    total = reduce(MRep.direct_sum, blocks)
    got = collapse(total, mode, [b.shape for b in blocks])
    assert view(got) == literal_collapse(total, mode, k)
    check_storage(got)


@PROPERTY
@given(reps(max_rank=2), st.sampled_from(sorted(SIDES)), st.integers(1, 3))
def test_collapsed_power_matches_literal(rep, mode, m):
    total = reduce(MRep.direct_sum, [rep] * m)
    assert view(collapsed_power(rep, m, mode)) == literal_collapse(total, mode, rep.shape[SIDES[mode]])


@PROPERTY
@given(reps())
def test_alternating_hull_matches_literal(rep):
    hull = rep.alternating_hull()
    assert view(hull) == literal_hull(rep)
    check_storage(hull)
    assert hull.is_alternating() and literal_is_alternating(hull)


@PROPERTY
@given(st.one_of(reps(), alternating_reps()))
def test_is_alternating_matches_literal(rep):
    assert rep.is_alternating() is literal_is_alternating(rep)


@PROPERTY
@given(reps(), st.one_of(st.integers(-3, 3), st.sampled_from([2**40, -(2**62), 2**64])))
def test_scalar_multiply_matches_literal(rep, s):
    got = rep.scalar_multiply(s)
    assert view(got) == literal_scalar_multiply(rep, s)
    check_storage(got)


@PROPERTY
@given(reps(), ring_st, st.data())
def test_evaluate_at_and_reduced_array_match_literal(rep, ring, data):
    a = data.draw(st.lists(st.integers(-(2**64), 2**64), min_size=rep.l, max_size=rep.l))
    got = rep.evaluate_at(a, ring)
    assert got.shape == (rep.d, rep.e)
    assert tuple(map(tuple, got.tolist())) == literal_evaluate(rep, a, ring)
    if ring.size < 2**62:
        reduced = rep.reduced_array(ring)
        assert reduced.dtype == np.int64 and reduced.shape == rep.shape
        assert tuple(tuple(map(tuple, m)) for m in reduced.tolist()) == literal_reduced(rep, ring)


@st.composite
def homotopies(draw):
    source, target = draw(reps()), draw(reps())
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(BOUNDARY))
    maps = (
        draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=s, max_size=s))
        for s, t in zip(source.shape, target.shape)
    )
    return HomotopyTriple(*(tuple(map(tuple, m)) for m in maps)), source, target


@PROPERTY
@given(homotopies(), ring_st)
def test_verify_homotopy_matches_literal(case, ring):
    triple, source, target = case
    assert verify_homotopy(triple, source, target, ring) is literal_homotopy(triple, source, target, ring)


@PROPERTY
@given(reps(), ring_st, st.integers(-3, 3))
def test_verify_homotopy_accepts_congruent_targets(rep, ring, k):
    # the identity intertwines rep with any tensor congruent to it mod p^n
    triple = HomotopyTriple.identity(rep)
    shifted = MRep(*rep.shape, rep.array.astype(object) * (1 + k * ring.size))
    assert verify_homotopy(triple, rep, shifted, ring)
    assert literal_homotopy(triple, rep, shifted, ring)


@pytest.mark.parametrize("value", BOUNDARY + [0, 1, -1])
def test_storage_follows_the_values(value):
    rep = MRep(1, 1, 1, [[[value]]])
    assert rep.array.dtype == (np.int64 if abs(value) < 2**62 else object)
    assert rep.coeffs == (((value,),),) and type(rep.coeffs[0][0][0]) is int


def assert_every_operation_exact(rep):
    ring = TruncatedRing(3, 2)
    for which in DUALS:
        assert view(rep.dual(which)) == literal_dual(rep, which)
    assert view(rep.direct_sum(rep)) == literal_direct_sum(rep, rep)
    assert view(rep.alternating_hull()) == literal_hull(rep)
    assert view(rep.scalar_multiply(-3)) == literal_scalar_multiply(rep, -3)
    assert rep.is_alternating() is literal_is_alternating(rep)
    a = list(range(5, 5 + rep.l))
    assert tuple(map(tuple, rep.evaluate_at(a, ring).tolist())) == literal_evaluate(rep, a, ring)
    reduced = rep.reduced_array(ring).tolist()
    assert tuple(tuple(map(tuple, m)) for m in reduced) == literal_reduced(rep, ring)
    for mode in SIDES:
        k = rep.shape[SIDES[mode]]
        assert view(collapsed_power(rep, 2, mode)) == literal_collapse(rep.direct_sum(rep), mode, k)
    triple = HomotopyTriple.identity(rep)
    assert verify_homotopy(triple, rep, rep.scalar_multiply(1 + ring.size), ring)


def test_boundary_values_through_every_operation():
    assert_every_operation_exact(
        MRep(2, 2, 2, [[BOUNDARY[0:2], BOUNDARY[2:4]], [BOUNDARY[4:6], BOUNDARY[6:8]]])
    )
    # no parameters: the zero matrix, even over a ring past int64
    assert MRep.zero(0, 2, 1).evaluate_at([], TruncatedRing(3, 40)).tolist() == [[0], [0]]


def test_decimal_strings_beyond_2_53_survive_parse_and_emit():
    values = [2**53 + 1, -(2**62 - 1), 2**63, -(2**70) - 3]
    payload = {
        "shape": {"l": 2, "d": 1, "e": 2},
        "coeffs": [[[str(v) for v in values[:2]]], [[str(v) for v in values[2:]]]],
    }
    rep = parse_rep(json.dumps(payload))
    assert rep.array.dtype == object
    assert rep.coeffs == (((values[0], values[1]),), ((values[2], values[3]),))
    assert emit_rep(rep) == payload
    assert_every_operation_exact(rep)
    for which in DUALS:
        assert parse_rep(json.dumps(emit_rep(rep.dual(which)))) == rep.dual(which)


def test_collapse_near_the_storage_bound_does_not_wrap():
    big = 2**62 - 1
    rep = MRep(2, 1, 1, [[[big]], [[big]]])
    assert rep.array.dtype == np.int64
    # any tensor of the summed shape collapses; here two slices add
    folded = collapse(rep, "mod", [(1, 1, 0), (1, 0, 1)])
    assert folded.coeffs == (((2 * big,),),) and folded.array.dtype == object
    neg = collapse(rep.scalar_multiply(-1), "mod", [(1, 1, 0), (1, 0, 1)])
    assert neg.coeffs == (((-2 * big,),),)
    # three such slices would wrap in int64 itself
    wide = MRep(3, 1, 1, [[[big]], [[big]], [[big]]])
    for sign in (1, -1):
        folded = collapse(wide.scalar_multiply(sign), "mod", [(1, 1, 0), (1, 0, 1), (1, 0, 0)])
        assert folded.coeffs == (((sign * 3 * big,),),)
    # back below the bound, the sum is narrowed to int64 again
    mixed = MRep(2, 1, 1, [[[big]], [[-big]]])
    assert collapse(mixed, "mod", [(1, 1, 0), (1, 0, 1)]).array.dtype == np.int64


def test_equal_values_are_equal_whatever_the_path():
    huge = MRep(1, 1, 1, [[[2**70]]])
    zero = huge.scalar_multiply(0)
    assert zero == MRep.zero(1, 1, 1) and hash(zero) == hash(MRep.zero(1, 1, 1))
    assert zero.array.dtype == np.int64
    again = huge.scalar_multiply(-1).scalar_multiply(-1)
    assert again == huge and hash(again) == hash(huge)
    small = MRep(1, 2, 1, np.array([[[3], [-4]]], dtype=object))
    assert small == MRep(1, 2, 1, [[[3], [-4]]]) and small.array.dtype == np.int64
    assert MRep.zero(0, 2, 3) != MRep.zero(0, 3, 2)
    assert len({huge, again, zero, MRep.zero(1, 1, 1)}) == 2


def test_repr_coeffs_and_read_only_storage():
    rep = MRep(1, 2, 1, [[[1], [-2]]])
    assert repr(rep) == "MRep(l=1, d=2, e=1, coeffs=(((1,), (-2,)),))"
    assert repr(MRep.zero(2, 0, 3)) == "MRep(l=2, d=0, e=3, coeffs=((), ()))"
    assert rep.shape == (1, 2, 1) and (rep.l, rep.d, rep.e) == (1, 2, 1)
    with pytest.raises(ValueError):
        rep.array[0, 0, 0] = 5
    with pytest.raises(ValueError):
        rep.dual("circ").array[0, 0, 0] = 5
    with pytest.raises(ValueError):
        MRep(1, 2, 2, [[[2**70, 0], [1]]])
    with pytest.raises(ValueError):
        MRep(1, 1, 2, [[[1, 2, 3]]])
    with pytest.raises(ValueError):
        MRep(-1, 1, 1, [])
