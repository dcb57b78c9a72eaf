"""The census memo across `verify.run_all`: each census computed once per process."""

from collections import Counter

import pytest

from askzeta import ask, bulk
from askzeta.ask import literal_censuses
from askzeta.corpus import seeded_corpus
from askzeta.ring import TruncatedRing
from askzeta.verify import CRITERIA, run_all, run_criterion


def outcome(result):
    return result.checks, result.passed, result.failures


@pytest.fixture
def censused(monkeypatch):
    """Every (strategy, tensor, ring) key the memo's sweeps compute, in order."""
    keys = []
    for strategy, sweep in [*ask._SWEEPS.items()]:

        def counting(arrays, p, n, strategy=strategy, sweep=sweep):
            keys.extend((strategy, a.shape, a.tobytes(), p, n) for a in arrays)
            return sweep(arrays, p, n)

        monkeypatch.setitem(ask._SWEEPS, strategy, counting)
    return keys


@pytest.mark.parametrize("seed", [8020, 1807])
def test_plan_changes_no_result(seed, censused):
    shared = run_all(seed)
    computed = Counter(censused)
    assert computed and max(computed.values()) == 1  # no key computed twice in one run
    assert {key[0] for key in computed} == {"auto", "direct"}
    assert len(ask._MEMO) == len(computed) < ask.MEMO_ENTRIES  # and none evicted
    alone = []
    for index in sorted(CRITERIA):  # each criterion on an emptied memo
        ask._MEMO.clear()
        alone.append(run_criterion(index, seed))
    assert [outcome(r) for r in shared] == [outcome(r) for r in alone]
    assert all(r.passed for r in shared)
    assert len(censused) > 2 * len(computed)  # criteria run alone compute the shared censuses again


def test_perturbed_shape_still_fails_the_laws(monkeypatch):
    # one census per tensor of one shape is off by one vector; every law
    # still compares two literal enumerations, so the laws that cross
    # shapes must fail, even where a census came from the memo
    shapes = Counter(rep.shape for rep in seeded_corpus() if rep.l != rep.d)
    target = shapes.most_common(1)[0][0]
    census_of_stack = bulk.census_of_stack

    def perturbed(coeffs, p, n):
        censuses = census_of_stack(coeffs, p, n)
        if coeffs[0].shape == target:
            censuses = [{**c, 0: c.get(0, 0) + 1} for c in censuses]
        return censuses

    monkeypatch.setattr(bulk, "census_of_stack", perturbed)
    results = {r.index: r for r in run_all()}
    assert results[1].failures
    assert {f.identity for f in results[6].failures} == {
        "ask(sum) = ask * ask", "ask^m = ask of collapsed power"
    }
    # criterion 12 holds the reps' literal asks, from the memo at every ring but
    # Z/5^2, against the planner's asks of their duals, so it fails at all six
    rings = {f.claim.split(" level ")[1] for f in results[12].failures}
    assert rings == {f"{n} p={p}" for p in (2, 3, 5) for n in (1, 2)}


def test_a_second_run_computes_no_census(censused):
    first = run_all()
    computed = len(censused)
    # the memo outlives the run: a second run reads every census from it
    assert [outcome(r) for r in run_all()] == [outcome(r) for r in first]
    assert computed and len(censused) == computed


def test_an_empty_selection_runs_no_criterion(censused):
    assert run_all(indices=()) == []
    assert censused == []
    assert [r.index for r in run_all(indices=(3,))] == [3]


def test_literal_censuses_share_within_a_call(censused):
    reps = seeded_corpus()[:6]
    ring = TruncatedRing(2, 2)
    censuses = literal_censuses([*reps, *reps], ring)
    assert censuses[:6] == censuses[6:]
    assert len(censused) == len(set(censused)) == len({(r.shape, r.array.tobytes()) for r in reps})
    assert censuses[:6] == [literal_censuses([rep], ring)[0] for rep in reps]
    computed = len(censused)
    small = min(reps, key=lambda rep: rep.l)
    with pytest.raises(bulk.BudgetExceededError):  # every budget is checked before any sweep
        literal_censuses([small, *reps], ring, budget=ring.size**small.l)
    assert len(censused) == computed
