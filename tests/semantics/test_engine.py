"""Unit tests for the shared global-semantics engine: the message
protocol (Fig. 7 rules + interaction semantics)."""

import pytest

from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.values import VInt
from repro.lang.messages import ENT_ATOM, EXT_ATOM, TAU, SpawnMsg
from repro.lang.module import GlobalEnv, ModuleDecl, Program
from repro.lang.steps import Step
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
)
from repro.semantics.engine import (
    SW,
    GAbort,
    GStep,
    SyncPoint,
    thread_successors,
)

from tests.helpers import behaviours_of, cimp_program, done_traces


def _step_until(ctx, world, pred, semantics=None, bound=100):
    """Follow non-switch global steps until ``pred(world)``."""
    semantics = semantics or PreemptiveSemantics()
    for _ in range(bound):
        if pred(world):
            return world
        outs = [
            o
            for o in semantics.successors(ctx, world)
            if isinstance(o, GStep) and o.label != SW
        ]
        world = outs[0].world
    raise AssertionError("predicate never satisfied")


#: Both global semantics; every Fig. 7 error rule must fire in each.
SEMANTICS = (PreemptiveSemantics(), NonPreemptiveSemantics())


class _ScriptedLang:
    """A hand-built language: ``script`` maps a core to the one step
    ``(msg, fp, next_core)`` it takes, so a test can emit any message
    sequence the real languages never would."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def init_core(self, module, entry, args=()):
        return "start" if entry == "f" else None

    def step(self, module, core, mem, flist):
        msg, fp, nxt = self.script[core]
        return [Step(msg, fp, nxt, mem)]


def _scripted_context(script):
    """A one-thread context running ``_ScriptedLang(script)`` at ``f``,
    and its initial world."""
    prog = Program(
        [ModuleDecl(_ScriptedLang(script), GlobalEnv({}, {}), None)], ["f"]
    )
    ctx = GlobalContext(prog)
    return ctx, ctx.load()[0]


class TestAtomProtocol:
    def test_entatom_sets_bit(self):
        prog = cimp_program("main(){ <skip;> }", ["main"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        world = _step_until(ctx, world, lambda w: w.bits[0] == 1)
        assert world.bits == (1,)

    def test_extatom_clears_bit(self):
        prog = cimp_program("main(){ <skip;> print(1); }", ["main"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        world = _step_until(ctx, world, lambda w: w.bits[0] == 1)
        world = _step_until(ctx, world, lambda w: w.bits[0] == 0)
        assert world.bits == (0,)

    def test_impure_entatom_rejected(self):
        # EntAtom with a footprint violates the Fig. 7 EntAt purity
        # side condition.
        script = {"start": (ENT_ATOM, Footprint({1}, ()), "in")}
        for semantics in SEMANTICS:
            ctx, world = _scripted_context(script)
            with pytest.raises(SemanticsError, match="EntAtom must be pure"):
                semantics.successors(ctx, world)

    @pytest.mark.parametrize("semantics", SEMANTICS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "script, error",
        [
            pytest.param(
                {
                    "start": (ENT_ATOM, EMP, "in"),
                    "in": (ENT_ATOM, EMP, "in2"),
                },
                "nested atomic block",
                id="nested-entatom",
            ),
            pytest.param(
                {"start": (EXT_ATOM, EMP, "out")},
                "ExtAtom outside an atomic block",
                id="extatom-at-bit-0",
            ),
            pytest.param(
                {
                    "start": (ENT_ATOM, EMP, "in"),
                    "in": (EXT_ATOM, Footprint({1}, ()), "out"),
                },
                "ExtAtom must be pure",
                id="impure-extatom",
            ),
        ],
    )
    def test_fig7_error_rules(self, script, error, semantics):
        ctx, world = _scripted_context(script)
        for _ in range(len(script) - 1):
            world = next(
                o.world
                for o in semantics.successors(ctx, world)
                if isinstance(o, GStep) and o.label != SW
            )
        with pytest.raises(SemanticsError, match=error):
            semantics.successors(ctx, world)

    @pytest.mark.parametrize("semantics", SEMANTICS, ids=lambda s: s.name)
    def test_spawn_of_unresolved_aborts(self, semantics):
        script = {"start": (SpawnMsg("ghost"), EMP, "after")}
        ctx, world = _scripted_context(script)
        aborts = [
            o
            for o in semantics.successors(ctx, world)
            if isinstance(o, GAbort)
        ]
        assert len(aborts) == 1
        assert "ghost" in aborts[0].reason


class TestCallProtocol:
    def test_cross_module_call_pushes_frame(self):
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            [
                "extern int g2(); void main() { int r; r = g2(); "
                "print(r); }",
                "int g2() { return 7; }",
            ],
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        deep = _step_until(
            ctx, world, lambda w: len(w.threads[0]) == 2
        )
        assert deep.top_frame().mod_idx == 1
        # Run to completion; the result flows back.
        assert done_traces(behaviours_of(prog)) == {(7,)}

    def test_callee_frame_freelist_disjoint(self):
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            [
                "extern int g2(); void main() { int r; r = g2(); "
                "print(r); }",
                "int g2() { int local = 7; return local; }",
            ],
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        deep = _step_until(
            ctx, world, lambda w: len(w.threads[0]) == 2
        )
        caller, callee = deep.threads[0]
        assert caller.flist.disjoint_from(callee.flist)

    def test_resume_cache_bounded(self, monkeypatch):
        """The (caller, retval) resumption table clears at
        TEMPLATE_MAX like the successor templates beside it."""
        from repro.semantics import engine
        from repro.semantics.explore import explore, program_behaviours
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            [
                "extern int g(); void main() { int a; int b; "
                "a = g(); b = g(); a = a + b; b = g(); a = a + b; "
                "print(a); }",
                "int g() { return 3; }",
            ],
            ["main"],
        )
        ctx = GlobalContext(prog)
        explore(ctx, PreemptiveSemantics(), 10000)
        assert len(ctx.resume_cache) > 2

        monkeypatch.setattr(engine, "TEMPLATE_MAX", 2)
        ctx = GlobalContext(prog)
        behs = program_behaviours(ctx, PreemptiveSemantics(), 10000, 10)
        assert done_traces(behs) == {(9,)}
        assert 0 < len(ctx.resume_cache) <= 2
        assert len(ctx.succ_templates) <= 2


class TestSpawnProtocol:
    def test_preemptive_spawn_is_plain_step(self):
        prog = cimp_program(
            "main(){ spawn worker; } worker(){ skip; }", ["main"]
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        outs = thread_successors(ctx, world)
        assert len(outs) == 1
        assert isinstance(outs[0], SyncPoint)
        assert outs[0].kind == "spawn"
        assert len(outs[0].world.threads) == 2

    def test_np_spawn_is_switch_point(self):
        prog = cimp_program(
            "main(){ spawn worker; print(1); } worker(){ print(2); }",
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        outs = NonPreemptiveSemantics().successors(ctx, world)
        # Spawn offers both: continue in main, or switch to the child.
        currents = {o.world.cur for o in outs if isinstance(o, GStep)}
        assert currents == {0, 1}

    def test_np_spawned_interleavings(self):
        prog = cimp_program(
            "main(){ spawn worker; print(1); } worker(){ print(2); }",
            ["main"],
        )
        from tests.helpers import np_behaviours_of

        assert done_traces(np_behaviours_of(prog)) == {
            (1, 2), (2, 1),
        }


class TestAbortPropagation:
    def test_unresolved_call_aborts_globally(self):
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            ["extern void ghost(); void main() { ghost(); }"],
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        world = _step_until(
            ctx,
            world,
            lambda w: any(
                isinstance(o, GAbort)
                for o in thread_successors(ctx, w)
            ),
        )
        aborts = [
            o
            for o in thread_successors(ctx, world)
            if isinstance(o, GAbort)
        ]
        assert "ghost" in aborts[0].reason
