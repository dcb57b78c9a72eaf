import random
from fractions import Fraction

import pytest

from askzeta.ask import BudgetExceededError, ask_m, ask_with_census, kernel_census, zeta_coeffs
from askzeta.catalog import make
from askzeta.mrep import MRep
from askzeta.ring import TruncatedRing

from helpers import brute_ask
from test_orbit import side_ask

F2 = TruncatedRing(2, 1)
F3 = TruncatedRing(3, 1)
Z9 = TruncatedRing(3, 2)


def test_ask_committed_values():
    mat1 = make("matdxe", d=1, e=1)
    r = ask_m(mat1, F2)
    assert r.value == Fraction(3, 2) and r.strategy == "direct" and r.level == 1
    zero = MRep.zero(0, 2, 0)
    assert ask_m(zero, Z9, m=3).value == 9 ** (2 * 3)
    g2 = make("gamma", d=2)
    assert ask_m(g2, F2).value == 4  # 3q - 2 at q = 2
    assert brute_ask(g2, F2) == 4


def test_strategies_agree():
    rng = random.Random(2)
    for _ in range(8):
        rep = MRep(2, 2, 2, tuple(
            tuple(tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2)) for _ in range(2)
        ))
        for ring in (F2, Z9):
            direct = ask_m(rep, ring, strategy="direct")
            circ, bullet = (side_ask(rep, ring, 1, side) for side in ("circ", "bullet"))
            assert direct.value == circ == bullet == ask_m(rep, ring).value


def test_auto_picks_smallest_side():
    wide = MRep.zero(4, 2, 1)
    assert ask_m(wide, F3, strategy="auto").strategy == "bullet-side"
    tall = MRep.zero(1, 3, 4)
    assert ask_m(tall, F3, strategy="auto").strategy == "direct"
    assert ask_m(MRep.zero(4, 1, 2), F3, strategy="auto").strategy == "circ-side"
    # the collapsed square has 4, 4 and 2 parameters on its three sides
    assert ask_m(wide, F3, m=2, strategy="auto").strategy == "bullet-side"


def test_moment_restrictions():
    rep = make("matdxe", d=1, e=1)
    # every side answers higher moments, through the collapsed power's duals
    direct = ask_m(rep, F2, m=2, strategy="direct").value
    assert direct == Fraction(5, 2)
    assert side_ask(rep, F2, 2, "circ") == side_ask(rep, F2, 2, "bullet") == direct
    for strategy in ("auto", "direct"):
        with pytest.raises(ValueError):
            ask_m(rep, F2, m=0, strategy=strategy)
    with pytest.raises(ValueError):
        ask_m(rep, F2, strategy="sideways")


def test_strategy_is_auto_or_direct():
    # the planner picks the Knuth side; no strategy names one
    rep = make("matdxe", d=1, e=2)
    for strategy in ("circ", "bullet"):
        for call in (
            lambda: ask_m(rep, F3, strategy=strategy),
            lambda: ask_with_census(rep, F3, strategy=strategy),
            lambda: zeta_coeffs(rep, 3, strategy=strategy),
        ):
            with pytest.raises(ValueError, match="unknown strategy"):
                call()


def test_census_committed():
    assert kernel_census(make("matdxe", d=1, e=1), F2) == {0: 1, 1: 1}
    so2 = MRep(1, 2, 2, (((0, 1), (-1, 0)),))
    assert kernel_census(so2, F3) == {0: 2, 2: 1}
    assert kernel_census(make("gamma", d=2), F2) == {1: 2, 2: 1, 3: 1}


def test_census_powers_all_moments():
    rng = random.Random(6)
    for _ in range(6):
        rep = MRep(2, 2, 3, tuple(
            tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2)) for _ in range(2)
        ))
        census = kernel_census(rep, Z9)
        for m in (1, 2, 3):
            direct = ask_m(rep, Z9, m=m, strategy="direct").value
            from_census = Fraction(
                sum(c * 3 ** (k * m) for k, c in census.items()), 9**rep.l
            )
            assert direct == from_census == brute_ask(rep, Z9, m)


def test_zeta_coeffs_committed():
    zero = MRep.zero(0, 1, 0)
    assert list(zeta_coeffs(zero, 3, levels=2)) == [1, 3, 9]
    m22 = make("matdxe", d=2, e=2)
    assert list(zeta_coeffs(m22, 2, levels=2, strategy="direct")) == [
        Fraction(1),
        Fraction(7, 4),
        Fraction(5, 2),
    ]
    band2 = make("band", r=2)
    series = zeta_coeffs(band2, 2, levels=1, strategy="direct")
    assert list(series) == [1, Fraction(7, 2)]
    assert series.failed_level is None


def test_zeta_coeffs_rejects_negative_levels():
    with pytest.raises(ValueError, match="levels must be >= 0"):
        zeta_coeffs(make("so", d=2), 3, levels=-1)


def test_zeta_zero_level_always_one():
    rng = random.Random(12)
    for _ in range(5):
        rep = MRep(1, 2, 1, (((rng.randint(-9, 9),), (rng.randint(-9, 9),)),))
        assert zeta_coeffs(rep, 5, levels=0).coeffs == (Fraction(1),)


def test_kernel_minimal_family_consistency():
    # a family whose brute coefficients match the minimal closed form for
    # m in {1, 2} must also pass the per-level kernel-minimality conditions
    from askzeta.mrep import kminimality_check
    from askzeta.zeta import closed_form

    for r in (2, 3):
        band = make("band", r=r)
        for p in (2, 3):
            for m in (1, 2):
                form = closed_form("kmin", p, m=m, d=2 * r - 1, r=r, l=r)
                got = list(zeta_coeffs(band, p, m=m, levels=2, strategy="direct"))
                assert got == list(form.expand(2))
            assert kminimality_check(band, p, 2, r) == {1: True, 2: True}


def test_second_moment_via_hull_of_bullet_dual():
    # ask2(theta) = q^(n(d-e)) * ask(hull(bullet(theta))): the second moment
    # is always readable off an alternating hull
    rng = random.Random(31)
    reps = [make("matdxe", d=2, e=1), make("band", r=2)]
    for _ in range(5):
        l, d, e = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        reps.append(MRep(l, d, e, tuple(
            tuple(tuple(rng.randint(-5, 5) for _ in range(e)) for _ in range(d))
            for _ in range(l)
        )))
    for rep in reps:
        for p, n in ((2, 1), (3, 1), (2, 2)):
            ring = TruncatedRing(p, n)
            lhs = ask_m(rep, ring, m=2, strategy="direct").value
            hull = rep.dual("bullet").alternating_hull()
            rhs = Fraction(p) ** (n * (rep.d - rep.e)) * ask_m(hull, ring, strategy="direct").value
            assert lhs == rhs


def test_closed_forms_hold_beyond_committed_levels():
    # level 3 exercises the deeper ring arithmetic (Z/8, Z/16, Z/27)
    from askzeta.zeta import closed_form

    cases = [
        (make("band", r=2), 2, 1, closed_form("kmin", 2, m=1, d=3, r=2, l=2)),
        (make("matdxe", d=2, e=1), 2, 1, closed_form("matdxe", 2, d=2, e=1)),
        (make("gamma", d=2), 2, 2, closed_form("gamma_m", 2, d=2, m=2)),
        (make("type_F", d=2), 3, 1, closed_form("matdxe", 3, d=2, e=1)),
        (make("matdxe", d=2, e=2), 2, 2, closed_form("ask2_matd", 2, d=2)),
    ]
    for rep, p, m, form in cases:
        got = list(zeta_coeffs(rep, p, m=m, levels=3, strategy="direct"))
        assert got == list(form.expand(3))


def test_budget_errors_and_partial_series():
    rep = make("matdxe", d=2, e=2)
    with pytest.raises(BudgetExceededError):
        ask_m(rep, Z9, strategy="direct", budget=100)
    # levels 0 and 1 fit in the budget, level 2 does not: partial result
    series = zeta_coeffs(rep, 3, levels=2, strategy="direct", budget=100)
    assert series.failed_level == 2
    assert len(series.coeffs) == 2
    assert series.coeffs[0] == 1
