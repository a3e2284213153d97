"""Unit tests for worlds, frames and the global context."""

import pytest

from repro.common.errors import SemanticsError
from repro.common.freelist import FreeList
from repro.common.memory import Memory
from repro.common.values import VInt
from repro.semantics.world import Frame, GlobalContext, World

from tests.helpers import cimp_program


def _frame(core="k"):
    return Frame(0, FreeList.for_thread(0), core)


class TestFrame:
    def test_equality_and_hash(self):
        assert _frame() == _frame()
        assert hash(_frame()) == hash(_frame())
        assert _frame("a") != _frame("b")

    def test_with_core(self):
        f = _frame("a").with_core("b")
        assert f.core == "b"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            _frame().core = "x"


class TestWorld:
    def _world(self, nthreads=2):
        threads = tuple((_frame("t{}".format(i)),)
                        for i in range(nthreads))
        return World(threads, 0, (0,) * nthreads, Memory({1: VInt(0)}))

    def test_live_threads(self):
        w = self._world()
        assert w.live_threads() == [0, 1]
        w2 = w._update(1, (), None, None, None)
        assert w2.live_threads() == [0]

    def test_is_done(self):
        w = World(((), ()), 0, (0, 0), Memory())
        assert w.is_done()
        assert not self._world().is_done()

    def test_top_frame(self):
        w = self._world()
        assert w.top_frame().core == "t0"
        assert w.top_frame(1).core == "t1"
        w2 = w._update(0, (), None, None, None)
        assert w2.top_frame(0) is None

    def test_push_pop_frames(self):
        w = self._world()
        inner = _frame("inner")
        pushed = w.push_frame(inner)
        assert pushed.top_frame().core == "inner"
        popped = pushed.pop_frame()
        assert popped.top_frame().core == "t0"

    def test_replace_top_with_bit(self):
        w = self._world()
        w2 = w.replace_top(_frame("new"), bit=1)
        assert w2.top_frame().core == "new"
        assert w2.bits == (1, 0)

    def test_with_current(self):
        assert self._world().with_current(1).cur == 1

    def test_add_thread(self):
        w = self._world()
        w2 = w.add_thread(_frame("spawned"))
        assert len(w2.threads) == 3
        assert w2.bits == (0, 0, 0)
        assert w2.top_frame(2).core == "spawned"

    def test_hashable_and_equal(self):
        assert self._world() == self._world()
        assert hash(self._world()) == hash(self._world())


class TestGlobalContext:
    def test_resolve_entry(self):
        prog = cimp_program(
            "f(){ skip; } g(){ skip; }", ["f"]
        )
        ctx = GlobalContext(prog)
        assert ctx.resolve("g") is not None
        assert ctx.resolve("missing") is None

    def test_ambiguous_entry_rejected(self):
        from repro.lang.module import GlobalEnv, ModuleDecl, Program
        from repro.langs.cimp import CIMP, parse_module

        m1 = parse_module("f(){ skip; }")
        m2 = parse_module("f(){ skip; }")
        prog = Program(
            [
                ModuleDecl(CIMP, GlobalEnv(), m1),
                ModuleDecl(CIMP, GlobalEnv(), m2),
            ],
            ["f"],
        )
        with pytest.raises(ValueError):
            GlobalContext(prog).resolve("f")

    def test_call_depth_limit(self):
        from repro.common.freelist import MAX_DEPTH

        prog = cimp_program("f(){ skip; }", ["f"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        deep = world
        for _ in range(MAX_DEPTH - 1):
            deep = deep.push_frame(_frame())
        with pytest.raises(SemanticsError):
            ctx.next_flist(deep)

    def test_next_flist_is_fresh(self):
        prog = cimp_program("f(){ skip; }", ["f"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        first = ctx.next_flist(world)
        # The first activation at a depth gets the depth's freelist.
        assert first == FreeList.for_thread(0, 1)
        # Once a returned activation allocated from it, the next call
        # at the same depth gets another one.
        used = World(
            world.threads, 0, world.bits,
            world.mem.alloc(first.addr_at(0), VInt(1)),
        )
        second = ctx.next_flist(used)
        assert second == FreeList.for_thread(0, 2)
        # Nor is a freelist an activation on the stack owns reused,
        # even if that activation has not allocated yet.
        pushed = used.push_frame(Frame(0, second, "k"))
        third = ctx.next_flist(pushed)
        assert third not in (first, second)
        assert third == FreeList.for_thread(0, 3)

    def test_spawn_flist_disjoint(self):
        prog = cimp_program("f(){ skip; } g(){ skip; }", ["f", "g"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        spawned = ctx.spawn_flist(world)
        for frames in world.threads:
            for frame in frames:
                assert spawned.disjoint_from(frame.flist)
