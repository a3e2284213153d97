"""Tests for the MiniC (Clight) footprint-instrumented semantics."""

from repro.common.freelist import FreeList
from repro.common.values import VInt
from repro.lang.messages import CallMsg, RetMsg, TAU
from repro.lang.steps import Step, StepAbort
from repro.langs.minic import MINIC, compile_unit, link_units

from tests.helpers import behaviours_of, done_traces, minic_program

FLIST = FreeList.for_thread(0)


def single_module(src):
    mods, genvs, _ = link_units([compile_unit(src)])
    return mods[0], genvs[0].memory()


def run_module(module, mem, entry, args=(), max_steps=500):
    """Run to RetMsg; returns (messages, retval, final mem)."""
    core = MINIC.init_core(module, entry, args)
    msgs = []
    for _ in range(max_steps):
        outs = MINIC.step(module, core, mem, FLIST)
        if not outs:
            break
        (out,) = outs
        if isinstance(out, StepAbort):
            return msgs, "abort", mem
        if out.msg is not TAU:
            msgs.append(out.msg)
        core, mem = out.core, out.mem
        if isinstance(out.msg, RetMsg):
            return msgs, out.msg.value, mem
    return msgs, None, mem


class TestEvaluation:
    def test_locals_are_memory_resident(self):
        module, mem = single_module(
            "void main() { int x = 5; print(x); }"
        )
        core = MINIC.init_core(module, "main")
        # The entry step allocates the local slots from the freelist.
        (out,) = MINIC.step(module, core, mem, FLIST)
        assert out.fp.ws, "entry must allocate stack slots"
        assert all(FLIST.contains(a) for a in out.fp.ws)

    def test_statement_footprints_include_local_reads(self):
        module, mem = single_module(
            "void main() { int x = 1; int y; y = x + 1; }"
        )
        core = MINIC.init_core(module, "main")
        fps = []
        for _ in range(10):
            outs = MINIC.step(module, core, mem, FLIST)
            if not outs or not isinstance(outs[0], Step):
                break
            fps.append(outs[0].fp)
            core, mem = outs[0].core, outs[0].mem
        # The assignment y = x + 1 reads x's slot and writes y's.
        assert any(fp.rs and fp.ws for fp in fps)

    def test_global_read_write(self):
        module, mem = single_module(
            "int g = 3; void main() { g = g * 2; print(g); }"
        )
        msgs, ret, _ = run_module(module, mem, "main")
        assert msgs[0].value == 6

    def test_uninitialized_local_use_aborts(self):
        module, mem = single_module(
            "void main() { int x; print(x + 1); }"
        )
        _, ret, _ = run_module(module, mem, "main")
        assert ret == "abort"

    def test_division_by_zero_aborts(self):
        module, mem = single_module(
            "int z = 0; void main() { print(1 / z); }"
        )
        _, ret, _ = run_module(module, mem, "main")
        assert ret == "abort"


class TestCalls:
    def test_internal_call_and_return(self):
        module, mem = single_module(
            "int sq(int n) { return n * n; } "
            "void main() { int r; r = sq(6); print(r); }"
        )
        msgs, _, _ = run_module(module, mem, "main")
        assert msgs[0].value == 36

    def test_recursion(self):
        module, mem = single_module(
            "int fib(int n) {"
            "  if (n < 2) { return n; }"
            "  int a; int b;"
            "  a = fib(n - 1); b = fib(n - 2);"
            "  return a + b;"
            "} "
            "void main() { int r; r = fib(7); print(r); }"
        )
        msgs, _, _ = run_module(module, mem, "main")
        assert msgs[0].value == 13

    def test_external_call_emits_callmsg(self):
        module, mem = single_module(
            "extern int ext(int); "
            "void main() { int r; r = ext(5); print(r); }"
        )
        core = MINIC.init_core(module, "main")
        call = None
        for _ in range(20):
            outs = MINIC.step(module, core, mem, FLIST)
            if not outs:
                break
            (out,) = outs
            core, mem = out.core, out.mem
            if isinstance(out.msg, CallMsg):
                call = out.msg
                break
        assert call == CallMsg("ext", (VInt(5),))
        # Resume with a result and observe it.
        core = MINIC.after_external(core, VInt(40))
        msgs = []
        for _ in range(20):
            outs = MINIC.step(module, core, mem, FLIST)
            if not outs:
                break
            (out,) = outs
            core, mem = out.core, out.mem
            if out.msg is not TAU:
                msgs.append(out.msg)
        assert msgs[0].value == 40

    def test_waiting_core_has_no_steps(self):
        module, mem = single_module(
            "extern void e(); void main() { e(); }"
        )
        core = MINIC.init_core(module, "main")
        while True:
            outs = MINIC.step(module, core, mem, FLIST)
            (out,) = outs
            core, mem = out.core, out.mem
            if isinstance(out.msg, CallMsg):
                break
        assert MINIC.step(module, core, mem, FLIST) == []

    def test_pointer_argument_within_module(self):
        module, mem = single_module(
            "void setp(int* p, int v) { *p = v; } "
            "void main() { int x = 0; setp(&x, 9); print(x); }"
        )
        msgs, _, _ = run_module(module, mem, "main")
        assert msgs[0].value == 9


class TestForbiddenRegion:
    def test_client_cannot_touch_object_data(self):
        mods, genvs, _ = link_units(
            [compile_unit("int g = 0; void main() { g = 1; }")]
        )
        addr = genvs[0].address_of("g")
        module = mods[0].with_forbidden({addr})
        _, ret, _ = run_module(module, genvs[0].memory(), "main")
        assert ret == "abort"


class TestWholeProgram:
    def test_multi_module_threads(self):
        prog, _, _, _ = minic_program(
            [
                "extern int g; void t1() { print(g); }",
                "int g = 7; void t2() { print(g + 1); }",
            ],
            ["t1", "t2"],
        )
        assert done_traces(behaviours_of(prog)) == {(7, 8), (8, 7)}

    def test_repeated_external_call_gets_fresh_freelist(self):
        # The second activation of g must not reuse the first one's
        # freelist: its parameter slot is still allocated.
        callee = "int g(int x) { return x; }"
        prog, _, _, _ = minic_program(
            [
                "extern int g(int); "
                "void main() { int a; a = g(1); a = g(2); }",
                callee,
            ],
            ["main"],
        )
        assert done_traces(behaviours_of(prog)) == {()}
        prog, _, _, _ = minic_program(
            [
                "extern int g(int); "
                "void main() { int a; a = g(1); a = g(a + 2); print(a); }",
                callee,
            ],
            ["main"],
        )
        assert done_traces(behaviours_of(prog)) == {(3,)}

    def test_nested_repeated_external_calls(self):
        prog, _, _, _ = minic_program(
            [
                "extern int g(int); "
                "void main() { int a; a = g(1); a = g(a); print(a); }",
                "extern int h(int); "
                "int g(int x) { int y; y = h(x); y = h(y); return y; }",
                "int h(int x) { int z; z = x + 1; return z; }",
            ],
            ["main"],
        )
        assert done_traces(behaviours_of(prog)) == {(5,)}

    def test_loop_over_non_allocating_external_stays_finite(self):
        # A callee that allocates nothing leaves its freelist fresh, so
        # every iteration pushes the same activation.
        prog, _, _, _ = minic_program(
            [
                "extern void e(); "
                "void main() { while (1) { e(); } }",
                "void e() { }",
            ],
            ["main"],
        )
        behs = behaviours_of(prog, max_states=500)
        assert {b.end for b in behs} == {"silent_div"}
