"""ask.plan: every census decision made before any sweep, and the matrices a plan
counts are the matrices its sweeps reduce."""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from askzeta import ask, bulk, catalog
from askzeta.ask import BudgetExceededError, ask_m, kernel_census, literal_censuses, zeta_coeffs
from askzeta.mrep import MRep
from askzeta.ring import TruncatedRing
from askzeta.verify import run_all, run_criterion

from test_orbit import PROPERTY, reps
from test_planner import QUERIES, Z4, Z9, m33


@contextmanager
def counted():
    """[planned, reduced]: the matrices of every Plan ask.plan returns, and those
    bulk.batch_smith_exponents reduces, while the block runs."""
    count = [0, 0]
    plan, smith = ask.plan, bulk.batch_smith_exponents

    def planning(*args, **kwargs):
        plans = plan(*args, **kwargs)
        count[0] += sum(pl.planned for pl in plans)
        return plans

    def reducing(mats, p, n):
        count[1] += len(mats)
        return smith(mats, p, n)

    ask.plan, bulk.batch_smith_exponents = planning, reducing
    try:
        yield count
    finally:
        ask.plan, bulk.batch_smith_exponents = plan, smith


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_planned_matrices_are_reduced_on_every_query(name):
    # the rows of test_planner.py::test_matrices_reduced_by_the_planner
    with counted() as count:
        QUERIES[name]("auto")
    assert count[0] == count[1] > 0


@PROPERTY
@given(
    rep=reps(),
    ring=st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]),
    m=st.integers(1, 2),
)
def test_planned_matrices_are_reduced(rep, ring, m):
    ring = TruncatedRing(*ring)
    with counted() as count:
        auto = ask_m(rep, ring, m=m)
        assert auto.value == ask_m(rep, ring, m=m, strategy="direct").value
        assert kernel_census(rep, ring) == literal_censuses([rep], ring)[0]
        zeta_coeffs(rep, ring.p, m=m, levels=ring.n)
    assert count[0] == count[1]


@pytest.mark.parametrize("seed,planned", [(8020, 2158298), (1807, 2079524)])
def test_a_verify_run_reduces_what_it_plans(seed, planned):
    with counted() as count:
        assert all(result.passed for result in run_all(seed))
    assert count == [planned, planned + 2000]
    # the 2 000 further matrices are criterion 14's direct kernel calls, no census's
    ask._MEMO.clear()
    with counted() as count:
        run_criterion(14, seed)
    assert count == [0, 2000]


def test_a_memo_hit_plans_no_matrix():
    m22 = catalog.make("matdxe", d=2, e=2)
    first = ask.plan([m22], Z9)[0]
    assert (first.side, first.planned, first.nominal, first.free) == ("direct", 243, 9**4, (0, 0))
    assert [(tensor.shape, s) for tensor, s in first.pieces] == [((4, 2, 2), 3)]
    kernel_census(m22, Z9)
    kept = ask.plan([m22], Z9)[0]
    assert (kept.pieces, kept.planned, kept.nominal, kept.key) == (None, 0, 9**4, first.key)
    # within one call, the key an earlier plan sweeps is read from the memo
    ask._MEMO.clear()
    plans = ask.plan([m22, m22], Z9)
    assert [pl.planned for pl in plans] == [243, 0] and plans[1].pieces is None
    with counted() as count:  # m22 ties on every side at m = 2, so the direct side is taken
        assert ask.auto_asks([m22, m22], Z9, m=2) == [ask_m(m22, Z9, m=2)] * 2
    assert count == [243, 243]


def test_a_kept_census_is_the_cheapest_side():
    # the circ side of m33's collapsed square plans 1 296 matrices, past one kernel batch
    # of 9 x 6 matrices, so the direct side, whose census is kept, is planned too: 0
    want = ask_m(m33, Z4, m=2, strategy="direct").value
    with counted() as count:
        kernel_census(m33, Z4)
        result = ask_m(m33, Z4, m=2)
    assert count == [62208, 62208]
    assert (result.value, result.strategy) == (want, "direct")
    ask._MEMO.clear()
    assert ask_m(m33, Z4, m=2).strategy == "circ-side"


def test_the_side_that_plans_fewest_matrices_is_taken():
    # sym(3)'s collapsed square has 6 parameters on each side, and the direct side
    # plans all 3^9 = 19 683 unit orbits over Z/9; the circ side plans 3^4 9^2 = 6 561
    sym3 = catalog.make("sym", d=3)
    with counted() as count:
        result = ask_m(sym3, Z9, m=2)
    assert count == [6561, 6561]
    assert (result.value, result.strategy) == (Fraction(2993, 81), "circ-side")
    assert result.value == ask_m(sym3, Z9, m=2, strategy="direct").value


def test_a_side_over_the_budget_is_never_taken():
    # a zero row and column give sym(3)'s Knuth sides 8 parameters, free ones, and still
    # 6 561 matrices; the direct side has 6 and plans 19 683
    sym3 = catalog.make("sym", d=3)
    padded = MRep(6, 4, 4, np.pad(sym3.array, [(0, 0), (0, 1), (0, 1)]))
    want = ask_m(sym3, Z9, m=2).value * 9**2  # the free row is all kernel
    ask._MEMO.clear()
    with counted() as count:
        result = ask_m(padded, Z9, m=2, budget=9**6)
    assert count == [19683, 19683] and (result.value, result.strategy) == (want, "direct")
    ask._MEMO.clear()
    with counted() as count:
        result = ask_m(padded, Z9, m=2, budget=9**8)
    assert count == [6561, 6561] and (result.value, result.strategy) == (want, "circ-side")
    with pytest.raises(BudgetExceededError, match="needs 531441 evaluations, budget is 531440"):
        ask_m(padded, Z9, m=2, budget=9**6 - 1)
