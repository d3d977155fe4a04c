"""Shared fixtures: a hermetic result store, a forced pool and one-block traces.

The CLI enables the persistent result store by default, and the store
defaults to ``~/.cache/repro`` — exactly right for users, exactly wrong for
tests, which must neither read a developer's warm cache (a stale entry could
mask a timing regression) nor litter it.  Pointing ``REPRO_CACHE_DIR`` at a
*per-test* temporary directory makes every test run cold and independent of
test ordering by construction; tests that exercise the store itself build
their own :class:`~repro.store.ResultStore` on ``tmp_path`` anyway.
"""

import pytest

from repro.isa.builder import InstructionBuilder
from repro.isa.program import BasicBlock
from repro.trace.generator import TraceBuilder


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-store"))


@pytest.fixture()
def two_cpus(monkeypatch):
    """Let a ``Runner(jobs=2)`` use its pool even on a one-CPU host."""
    monkeypatch.setattr("repro.core.experiment._available_parallelism", lambda: 2)


@pytest.fixture
def trace_from_block():
    """Build a one-block trace from a callback that emits instructions."""

    def _build(emitter, name="unit", repeats=1):
        block = BasicBlock("body")
        emitter(InstructionBuilder(block))
        builder = TraceBuilder(name)
        for _ in range(repeats):
            builder.append_block(block)
        return builder.build()

    return _build
