"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison inside a criterion is exact (rational or tensor equality).
Run with -s to see the per-criterion lines; `askzeta verify` prints the
same report from the command line.
"""

import pytest

from askzeta.verify import CRITERIA, run_criterion


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
