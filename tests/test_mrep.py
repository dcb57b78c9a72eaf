import random
from fractions import Fraction

import pytest

from askzeta.ask import ask_m
from askzeta.catalog import make
from askzeta.mrep import (
    HomotopyTriple,
    MRep,
    adjoint_rep,
    collapse,
    collapsed_power,
    constant_rank_check,
    kminimality_check,
    verify_homotopy,
)
from askzeta.ring import TruncatedRing

from helpers import brute_ask

F2 = TruncatedRing(2, 1)
F3 = TruncatedRing(3, 1)
Z9 = TruncatedRing(3, 2)

SO2 = MRep(1, 2, 2, (((0, 1), (-1, 0)),))
HEIS = make("lie_heisenberg")


def test_validation():
    assert MRep(1, 1, 1, (((1,),),)).shape == (1, 1, 1)
    with pytest.raises(ValueError):
        MRep(2, 2, 1, (((1,), (0,)), ((0,), (1,)), ((1,), (1,))))
    with pytest.raises(ValueError):
        MRep(1, 2, 2, (((1, 0), (0,)),))
    empty = MRep.zero(0, 2, 3)
    assert empty.evaluate_at([], F3).tolist() == [[0, 0, 0], [0, 0, 0]]


def test_evaluate_at():
    m22 = make("matdxe", d=2, e=2)
    assert m22.evaluate_at([1, 0, 0, 1], F3).tolist() == [[1, 0], [0, 1]]
    assert m22.evaluate_at([0, 0, 0, 0], F3).tolist() == [[0, 0], [0, 0]]
    g2 = make("gamma", d=2)
    assert g2.evaluate_at([0, 1], F3).tolist() == [[0, 0], [0, 0], [0, 1]]
    with pytest.raises(ValueError):
        m22.evaluate_at([1, 0], F3)


def test_evaluation_linearity():
    rng = random.Random(4)
    rep = MRep(2, 3, 2, tuple(
        tuple(tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(3)) for _ in range(2)
    ))
    for _ in range(10):
        a = [rng.randrange(9) for _ in range(2)]
        b = [rng.randrange(9) for _ in range(2)]
        ab = [x + y for x, y in zip(a, b)]
        left = rep.evaluate_at(ab, Z9).tolist()
        right = [
            [(x + y) % 9 for x, y in zip(r1, r2)]
            for r1, r2 in zip(rep.evaluate_at(a, Z9).tolist(), rep.evaluate_at(b, Z9).tolist())
        ]
        assert left == right


def test_dual_shapes_and_fixed_point():
    single = MRep(1, 1, 1, (((1,),),))
    for s in ("circ", "bullet", "vee"):
        assert single.dual(s) == single
    rep = MRep.zero(2, 3, 4)
    assert rep.dual("bullet").shape == (4, 3, 2)
    assert rep.dual("circ").shape == (3, 2, 4)
    assert rep.dual("vee").shape == (2, 4, 3)
    with pytest.raises(ValueError):
        rep.dual("star")


def test_dual_entry_permutation_and_negation():
    # circ on so2 permutes the parameter/domain slots
    circ = SO2.dual("circ")
    assert circ.shape == (2, 1, 2)
    assert circ.coeffs[0][0] == (0, 1)
    assert circ.coeffs[1][0] == (-1, 0)
    # on a square anticommutative tensor, circ is entrywise negation
    assert HEIS.dual("circ") == HEIS.scalar_multiply(-1)


def test_involutions_and_braid():
    rng = random.Random(11)
    rep = MRep(2, 3, 2, tuple(
        tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(3)) for _ in range(2)
    ))
    for s in ("circ", "bullet", "vee"):
        assert rep.dual(s).dual(s) == rep
    # conjugating one transposition by another yields the third
    assert rep.dual("circ").dual("bullet").dual("circ") == rep.dual("vee")
    assert rep.dual("circ").dual("vee").dual("circ") == rep.dual("bullet")
    assert rep.dual("bullet").dual("circ").dual("bullet") == rep.dual("vee")
    assert rep.dual("bullet").dual("vee").dual("bullet") == rep.dual("circ")
    assert rep.dual("vee").dual("circ").dual("vee") == rep.dual("bullet")
    assert rep.dual("vee").dual("bullet").dual("vee") == rep.dual("circ")


def test_full_orbit_shapes():
    # the six conjugates permute the side ranks (l, d, e)
    rep = MRep.zero(2, 3, 4)
    assert rep.dual("circ").shape == (3, 2, 4)
    assert rep.dual("bullet").shape == (4, 3, 2)
    assert rep.dual("vee").shape == (2, 4, 3)
    assert rep.dual("circ").dual("bullet").shape == (4, 2, 3)
    assert rep.dual("bullet").dual("circ").shape == (3, 4, 2)


def test_dual_commutes_with_direct_sum():
    a = make("matdxe", d=2, e=1)
    b = make("band", r=2)
    for s in ("circ", "bullet", "vee"):
        assert a.direct_sum(b).dual(s) == a.dual(s).direct_sum(b.dual(s))


def test_direct_sum_values():
    one = MRep(1, 1, 1, (((1,),),))
    zero = MRep.zero(0, 0, 0)
    assert one.direct_sum(zero) == one
    two = one.direct_sum(one)
    assert two.shape == (2, 2, 2)
    assert two.coeffs[0] == ((1, 0), (0, 0))
    assert two.coeffs[1] == ((0, 0), (0, 1))
    assert ask_m(two, F2).value == Fraction(9, 4)
    assert brute_ask(two, F2) == Fraction(9, 4)


def test_collapse_modes():
    one = MRep(1, 1, 1, (((1,),),))
    assert collapsed_power(one, 1, "mod") == one
    sq = collapsed_power(one, 2, "mod")
    assert sq.shape == (1, 2, 2)
    assert sq.evaluate_at([1], F3).tolist() == [[1, 0], [0, 1]]
    assert ask_m(sq, F2).value == Fraction(5, 2)
    dom = collapsed_power(one, 2, "dom")
    assert dom.shape == (2, 1, 2)
    cod = collapsed_power(one, 2, "cod")
    assert cod.shape == (2, 2, 1)
    with pytest.raises(ValueError):
        collapse(one.direct_sum(sq), "dom", [one.shape, sq.shape])
    with pytest.raises(ValueError):
        collapse(sq, "sideways", [sq.shape])
    with pytest.raises(ValueError):
        collapse(sq, "mod", [one.shape])


def test_collapse_block_semantics():
    rng = random.Random(8)
    a = MRep(2, 1, 2, tuple(
        tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(1)) for _ in range(2)
    ))
    b = MRep(2, 2, 1, tuple(
        tuple(tuple(rng.randint(-3, 3) for _ in range(1)) for _ in range(2)) for _ in range(2)
    ))
    merged = collapse(a.direct_sum(b), "mod", [a.shape, b.shape])
    assert merged.shape == (2, 3, 3)
    for h in range(2):
        ev = merged.evaluate_at([1 if t == h else 0 for t in range(2)], F3).tolist()
        ea = a.evaluate_at([1 if t == h else 0 for t in range(2)], F3).tolist()
        eb = b.evaluate_at([1 if t == h else 0 for t in range(2)], F3).tolist()
        assert ev[0][:2] == ea[0]
        assert tuple(row[2] for row in ev[1:]) == tuple(r[0] for r in eb)


def test_scalar_multiply():
    assert SO2.scalar_multiply(1) == SO2
    assert SO2.scalar_multiply(0) == MRep.zero(1, 2, 2)
    for c in (1, 2, 4, 5, 7, 8):
        assert ask_m(SO2.scalar_multiply(c), Z9).value == ask_m(SO2, Z9).value


def test_is_alternating():
    assert SO2.is_alternating() is False  # shape (1, 2, 2): parameter side differs
    assert MRep(1, 1, 1, (((1,),),)).is_alternating() is False
    assert make("type_F", d=2).is_alternating()
    assert make("type_F", d=3).is_alternating()
    assert HEIS.is_alternating()


def test_alternating_hull():
    one = MRep(1, 1, 1, (((1,),),))
    hull = one.alternating_hull()
    assert hull.shape == (2, 2, 1)
    assert hull.coeffs[1][0][0] == 1 and hull.coeffs[0][1][0] == -1
    for rep in (one, SO2, make("band", r=2), MRep.zero(0, 2, 1)):
        assert rep.alternating_hull().is_alternating()
    assert ask_m(one.alternating_hull(), F3).value == Fraction(11, 3)
    assert brute_ask(one.alternating_hull(), F3) == Fraction(11, 3)


def test_hull_bullet_block_structure():
    # bullet dual of the hull is the doubled block matrix [[0, B], [-B^T, 0]]
    rep = make("band", r=2)
    got = rep.alternating_hull().dual("bullet")
    B = rep.dual("bullet")
    d, l = rep.d, rep.l
    for j in range(rep.e):
        for i in range(d + l):
            for k in range(d + l):
                if i < d and k >= d:
                    expect = B.coeffs[j][i][k - d]
                elif i >= d and k < d:
                    expect = -B.coeffs[j][k][i - d]
                else:
                    expect = 0
                assert got.coeffs[j][i][k] == expect


def test_verify_homotopy():
    rep = make("band", r=2)
    ident = HomotopyTriple.identity(rep)
    assert verify_homotopy(ident, rep, rep, Z9)
    doubled = rep.scalar_multiply(2)
    assert not verify_homotopy(ident, rep, doubled, F3)
    # the bullet dual of the band family is literally the same tensor
    assert rep.dual("bullet") == rep
    assert verify_homotopy(ident, rep, rep.dual("bullet"), Z9)
    with pytest.raises(ValueError):
        verify_homotopy(ident, rep, make("band", r=3), F3)


def test_adjoint_rep():
    ab = adjoint_rep(make("lie_abelian", d=2))
    assert ask_m(ab, F3).value == Fraction(9)
    heis = adjoint_rep(HEIS)
    assert ask_m(heis, F3).value == Fraction(11)
    with pytest.raises(ValueError):
        adjoint_rep(MRep(2, 2, 2, (((1, 0), (0, 0)), ((0, 0), (0, 1)))))
    with pytest.raises(ValueError):
        adjoint_rep(MRep.zero(1, 2, 2))


def test_constant_rank_check():
    assert constant_rank_check(SO2, F3) == (True, 2)
    assert constant_rank_check(make("gamma", d=2), F3) == (False, 2)
    assert constant_rank_check(make("westwick_a", r=2).dual("bullet"), TruncatedRing(5, 1)) == (True, 4)
    with pytest.raises(ValueError):
        constant_rank_check(SO2, Z9)
    with pytest.raises(ValueError):
        constant_rank_check(MRep.zero(0, 1, 1), F3)


def test_kminimality_check():
    one = MRep(1, 1, 1, (((1,),),))
    assert kminimality_check(one, 2, 2, 1) == {1: True, 2: True}
    assert kminimality_check(one, 5, 2, 1) == {1: True, 2: True}
    west = make("westwick_a", r=2)
    assert kminimality_check(west, 5, 1, 3) == {1: False}
    assert kminimality_check(make("band", r=2), 2, 2, 2) == {1: True, 2: True}
