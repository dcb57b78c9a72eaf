"""Fixtures shared by every test module."""

import pytest

from askzeta import ask


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts with an empty census memo, so what it counts or perturbs is
    computed in the test, whatever ran before it."""
    ask._MEMO.clear()
    yield
    ask._MEMO.clear()
