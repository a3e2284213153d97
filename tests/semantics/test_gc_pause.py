"""The cyclic-GC pause around graph building and behaviour enumeration.

``explore`` and ``behaviours`` disable the cyclic collector for their
body and restore the caller's setting on every exit path. The pause is
safe only because neither builds reference cycles: the last class
checks that nothing they leave behind needs the collector.
"""

import gc

import pytest

from repro.framework.build import lock_counter_system
from repro.semantics import (
    ExplorationLimit,
    GlobalContext,
    PreemptiveSemantics,
    behaviours,
    explore,
)
from repro.semantics import parallel
from repro.semantics.explore import gc_paused

from tests.helpers import cimp_program

SPIN = "main(){ while(1 == 1){ [C] := 0; } }"
COUNTER = "main(){ i := 0; while(i < 50){ i := i + 1; } print(i); }"


@pytest.fixture
def gc_state():
    """Restore the collector's setting whatever a test leaves."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def _explore(source, **kw):
    return explore(
        GlobalContext(cimp_program(source, ["main"])),
        PreemptiveSemantics(), **kw
    )


class TestRestore:
    def test_enabled_after_explore_and_behaviours(self, gc_state):
        gc.enable()
        graph = _explore(SPIN)
        assert gc.isenabled()
        behaviours(graph)
        assert gc.isenabled()

    def test_paused_inside(self, gc_state):
        gc.enable()
        seen = []

        def observer(world, outcomes):
            seen.append(gc.isenabled())
            return False

        explore(
            GlobalContext(cimp_program(SPIN, ["main"])),
            PreemptiveSemantics(), observer=observer,
        )
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_when_explore_raises(self, gc_state):
        gc.enable()
        with pytest.raises(ExplorationLimit):
            _explore(COUNTER, max_states=5, strict=True)
        assert gc.isenabled()

    def test_restored_when_behaviours_raises(self, gc_state):
        gc.enable()
        graph = _explore(COUNTER)
        with pytest.raises(ExplorationLimit):
            behaviours(graph, max_nodes=3, strict=True)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, gc_state):
        gc.disable()
        graph = _explore(SPIN)
        assert not gc.isenabled()
        behaviours(graph)
        assert not gc.isenabled()
        with pytest.raises(ExplorationLimit):
            _explore(COUNTER, max_states=5, strict=True)
        assert not gc.isenabled()

    def test_nesting(self, gc_state):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.skipif(
        not parallel.available(), reason="needs fork"
    )
    def test_enabled_after_sharded_explore(self, gc_state):
        gc.enable()
        prog = lock_counter_system(2).source_program()
        graph = explore(
            GlobalContext(prog), PreemptiveSemantics(), jobs=2
        )
        assert gc.isenabled()
        assert graph.state_count() > 0


class TestNoCyclicGarbage:
    """What the pause defers, reference counting frees on its own."""

    def _check(self, prog, **kw):
        ctx = GlobalContext(prog)
        gc.collect()
        graph = explore(ctx, PreemptiveSemantics(), **kw)
        behs = behaviours(graph, 12)
        assert behs
        del graph, behs
        assert gc.collect() == 0

    def test_lock_counter(self, gc_state):
        prog = lock_counter_system(2).source_program()
        self._check(prog)
        self._check(prog, reduce=True)

    def test_spin_loop(self, gc_state):
        self._check(cimp_program(SPIN, ["main"]))
