"""The tracer reports what it could not wrap or size, instead of reading 0.

Run with:  python3 -m pytest -q perfbench/test_tracing.py
"""

import sys
import types

import tracing


def test_missing_target_and_unreadable_size_are_reported(monkeypatch):
    mod = types.ModuleType("askzeta.fake")
    mod.present = lambda rep, ring, m=1: m
    monkeypatch.setitem(sys.modules, "askzeta.fake", mod)
    monkeypatch.setattr(
        tracing, "TARGETS", (("fake", "present", "ask.ask_m"), ("fake", "gone", "fake.gone"), ("nomod", "f", "nomod.f"))
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.problems["fake.gone"] == "askzeta.fake.gone not found"
    assert tracer.problems["askzeta.nomod"].startswith("import failed")
    assert len(tracer.problems) == 2

    assert mod.present(None, None, m=2) == 2  # the call still runs
    assert [s[0] for s in tracer.spans] == ["ask.ask_m"]
    assert tracer.problems["ask.ask_m"].startswith("size from the arguments raised AttributeError")
