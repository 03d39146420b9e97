"""Fixtures shared by the jit tests."""

import builtins

import pytest

from repro.machine import jit


@pytest.fixture
def compiled_sources(monkeypatch):
    """Every source the jit hands to ``compile()`` while the test runs (the
    jit's own global shadows the builtin: every unit passes through)."""
    sources = []

    def spy(source, filename, mode):
        sources.append(source)
        return builtins.compile(source, filename, mode)

    monkeypatch.setattr(jit, "compile", spy, raising=False)
    return sources
