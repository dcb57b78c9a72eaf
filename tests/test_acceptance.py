"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison inside a criterion is exact (rational or tensor equality).
Run with -s to see the per-criterion lines; `askzeta verify` prints the
same report from the command line.
"""

import hashlib
from dataclasses import replace

import pytest

from askzeta import ask, catalog
from askzeta.cli import main
from askzeta.corpus import seeded_corpus
from askzeta.verify import CRITERIA, run_all, run_criterion
from askzeta.zeta import closed_form


def _run(index):
    result = run_criterion(index)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:>2} {status}  {result.title} ({result.checks} checks)")
    for failure in result.failures[:5]:
        print(f"    {failure.claim}: expected {failure.expected}, computed {failure.computed}")
    assert result.passed, f"criterion {index}: {len(result.failures)} failed checks"


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    _run(index)


def test_criterion_12_checks_the_planner(monkeypatch):
    # a planner that scales circ-side asks by p at level 2: criterion 1 compares
    # literal censuses only, criterion 12 the planner's asks of the duals
    result = ask._result

    def circ_times_p_at_level_2(rep, side, tensor, census, ring, m):
        out = result(rep, side, tensor, census, ring, m)
        return replace(out, value=out.value * ring.p) if side == "circ" and ring.n == 2 else out

    monkeypatch.setattr(ask, "_result", circ_times_p_at_level_2)
    assert run_criterion(1).passed
    failures = run_criterion(12).failures
    assert failures and all(" level 2 " in f.claim for f in failures)


def test_criterion_4_checks_the_registered_hankel_form(monkeypatch):
    # verify reads each family's form from the catalog, so a wrong registration fails it
    def wrong(m, q, r):
        return closed_form("matdxe", q, d=r, e=r + 1) if m == 1 else None

    monkeypatch.setitem(catalog._BY_NAME, "hankel", replace(catalog._BY_NAME["hankel"], zeta=wrong))
    failures = run_criterion(4).failures
    assert failures and all(f.claim.startswith("hankel(") for f in failures)


def test_missing_registered_form_fails_criterion_4(monkeypatch, capsys):
    # a family with no form for the moment it is checked at is one failed check, not a crash
    monkeypatch.setitem(catalog._BY_NAME, "hankel", replace(catalog._BY_NAME["hankel"], zeta=lambda m, q, r: None))
    failures = run_criterion(4).failures
    assert [(f.claim, f.expected, f.computed) for f in failures] == [
        (f"hankel({r}) p={p}", "a registered form", "None") for r in (2, 3) for p in (2, 3)
    ]
    assert main(["verify", "--criteria", "4"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


# sha256 of repr([(l, d, e, coefficients), ...]) of the corpus at each seed
CORPUS_DIGESTS = {
    8020: "78cc954f1e0aa897a5db3e6851379882ac36b23f1f35e17d7adce4191aded3d2",
    1807: "3948cd3ec312b592ffe658ac7601b2bf741626778b5b6360495589a5330314ff",
    5150: "117f8c2c51d82d849b7aff94a2f01d47da35ca3351622ed85a658761805bd7a4",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_seeded_corpus_is_pinned(seed):
    reps = seeded_corpus(seed=seed)
    text = repr([(rep.l, rep.d, rep.e, rep.array.tolist()) for rep in reps])
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGESTS[seed]


def test_run_all_builds_its_corpus_once():
    # criteria 1, 2, 6, 7, 12 and 14 read the corpus; one run builds it once and shares it,
    # read-only: a tuple of MReps whose arrays cannot be written
    seeded_corpus.cache_clear()
    assert all(result.passed for result in run_all(seed=1807))
    assert (seeded_corpus.cache_info().misses, seeded_corpus.cache_info().hits) == (1, 5)
    reps = seeded_corpus(seed=1807)
    assert isinstance(reps, tuple) and not any(rep.array.flags.writeable for rep in reps)
