import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askzeta.catalog import make
from askzeta.mrep import MRep
from askzeta.polynom import (
    MultiPoly,
    count_hypersurface_points,
    det_linear_matrix,
    generic_rank,
)
from askzeta.ring import TruncatedRing

from helpers import rational_matrix_rank


def z(i, n):
    return MultiPoly.variable(i, n)


def test_eval():
    f = z(0, 2) * z(1, 2)
    assert f.evaluate((2, 3)) == 6
    assert MultiPoly.zero(3).evaluate((1, 2, 3)) == 0
    g = z(0, 2) * z(0, 2) - z(1, 2)
    assert g.evaluate((3, 1), TruncatedRing(5, 1)) == 3
    with pytest.raises(ValueError):
        f.evaluate((1,))


def test_partial():
    f = z(0, 2) * z(0, 2) * z(1, 2)
    assert f.partial(0) == 2 * z(0, 2) * z(1, 2)
    assert MultiPoly.constant(7, 1).partial(0).is_zero()
    g = z(0, 3) * z(1, 3) - z(2, 3) * z(2, 3) * z(2, 3)
    assert g.partial(2) == -3 * z(2, 3) * z(2, 3)
    with pytest.raises(IndexError):
        f.partial(5)


def test_det_linear_matrix():
    assert det_linear_matrix(MRep(1, 1, 1, (((1,),),))) == z(0, 1)
    so2 = MRep(1, 2, 2, (((0, 1), (-1, 0)),))
    assert det_linear_matrix(so2) == z(0, 1) * z(0, 1)
    diag = MRep(1, 2, 2, (((1, 0), (0, 1)),))
    assert det_linear_matrix(diag) == z(0, 1) * z(0, 1)
    with pytest.raises(ValueError):
        det_linear_matrix(MRep.zero(1, 2, 3))


def test_det_multiplicative_on_blocks():
    rng = random.Random(5)
    for _ in range(10):
        a = MRep(2, 2, 2, tuple(
            tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)) for _ in range(2)
        ))
        b = MRep(2, 1, 1, tuple(((rng.randint(-3, 3),),) for _ in range(2)))
        # block-diagonal determinant factors; embed the summands in disjoint variables
        both = a.direct_sum(b)
        det = det_linear_matrix(both)
        upper = MRep(4, 2, 2, tuple(
            tuple(row[:2] for row in both.coeffs[h][:2]) for h in range(4)
        ))
        lower = MRep(4, 1, 1, tuple(
            tuple(row[2:] for row in both.coeffs[h][2:]) for h in range(4)
        ))
        assert det == det_linear_matrix(upper) * det_linear_matrix(lower)


def leibniz_det(A):
    """The determinant as a sum over permutations, each signed by its inversions."""
    total = 0
    for perm in itertools.permutations(range(len(A))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(A[i][j] for i, j in enumerate(perm))
    return total


@st.composite
def pencils_and_points(draw):
    l, d = draw(st.integers(1, 4)), draw(st.sampled_from([3, 4]))
    # small entries, so that singular pencils (determinant 0) come up too
    entries = st.integers(-2, 2) if draw(st.booleans()) else st.sampled_from([0, 0, 0, 1, -1])
    rows = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    rep = MRep(l, d, d, draw(st.lists(rows, min_size=l, max_size=l)))
    return rep, draw(st.lists(st.lists(st.integers(-9, 9), min_size=l, max_size=l), min_size=1, max_size=4))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=pencils_and_points())
def test_det_linear_matrix_evaluates_to_the_determinant(case):
    rep, points = case
    det = det_linear_matrix(rep)
    for a in points:
        A = [[sum(a[h] * rep.coeffs[h][i][j] for h in range(rep.l)) for j in range(rep.e)] for i in range(rep.d)]
        assert det.evaluate(a) == leibniz_det(A)


def test_generic_rank_committed():
    assert generic_rank(MRep.zero(2, 3, 3)) == 0
    assert generic_rank(make("matdxe", d=2, e=2)) == 2
    assert generic_rank(make("gamma", d=2)) == 2
    assert generic_rank(make("band", r=2)) == 2
    assert generic_rank(make("westwick_a", r=2)) == 3


def test_generic_rank_matches_evaluation_bound():
    # 50 deterministic integer points: the best evaluation rank must equal the
    # symbolic elimination result on small random tensors
    rng = random.Random(99)
    for _ in range(20):
        l, d, e = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        rep = MRep(l, d, e, tuple(
            tuple(tuple(rng.randint(-4, 4) for _ in range(e)) for _ in range(d)) for _ in range(l)
        ))
        r = generic_rank(rep)
        best = 0
        pts = random.Random(7)
        for _ in range(50):
            a = [pts.randint(-20, 20) for _ in range(l)]
            mat = [
                [sum(a[h] * rep.coeffs[h][i][j] for h in range(l)) for j in range(e)]
                for i in range(d)
            ]
            rank = rational_matrix_rank(mat)
            assert rank <= r
            best = max(best, rank)
        assert best == r


def test_euler_relation_on_random_homogeneous():
    rng = random.Random(3)
    for _ in range(15):
        nv = rng.randint(1, 3)
        deg = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = [0] * nv
            for _ in range(deg):
                exps[rng.randrange(nv)] += 1
            terms[tuple(exps)] = rng.randint(-5, 5)
        f = MultiPoly(nv, terms)
        if f.is_zero():
            continue
        acc = MultiPoly.zero(nv)
        for i in range(nv):
            acc = acc + MultiPoly.variable(i, nv) * f.partial(i)
        assert acc == f * deg


def test_count_hypersurface_points():
    F3 = TruncatedRing(3, 1)
    assert count_hypersurface_points(z(0, 1), F3) == (0, True)
    # two reduced points on the projective line: smooth by the gradient test
    assert count_hypersurface_points(z(0, 2) * z(1, 2), F3) == (2, True)
    # the same binary form viewed in three variables is singular at (0:0:1)
    pair = z(0, 3) * z(1, 3)
    points, smooth = count_hypersurface_points(pair, F3)
    assert points == 3 + 3 + 1 and smooth is False
    f = z(0, 2) * z(0, 2) + z(1, 2) * z(1, 2)
    assert count_hypersurface_points(f, F3) == (0, True)
    assert count_hypersurface_points(f, TruncatedRing(5, 1)) == (2, True)
    with pytest.raises(ValueError):
        count_hypersurface_points(z(0, 2) + z(0, 2) * z(1, 2), F3)
    with pytest.raises(ValueError):
        count_hypersurface_points(z(0, 1), TruncatedRing(3, 2))


def test_exact_division_guard():
    f = z(0, 2) * z(0, 2) - z(1, 2) * z(1, 2)
    g = z(0, 2) - z(1, 2)
    assert f.exact_div(g) == z(0, 2) + z(1, 2)
    with pytest.raises(ArithmeticError):
        (z(0, 2) + MultiPoly.constant(1, 2)).exact_div(z(0, 2))
