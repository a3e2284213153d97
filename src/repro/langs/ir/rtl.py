"""RTL: the CFG-based register transfer language (output of RTLgen).

A function is a control-flow graph: a map from program points ``pc`` to
instructions, each naming its successor(s). Values live in an unbounded
supply of virtual registers (pseudo-registers); memory is touched only
by explicit ``Iload``/``Istore`` and by the entry step's stack-block
allocation.

RTL is also the IR of the three CFG-level optimization passes we
verify (Tailcall, Renumber) and the input of Allocation.
"""

from repro.common.astbase import Node
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import BINOPS, UNOPS, VInt, VPtr, VUndef
from repro.lang.interface import ModuleLanguage
from repro.lang.messages import (
    TAU,
    CallMsg,
    EventMsg,
    RetMsg,
    SpawnMsg,
)
from repro.lang.steps import Step, StepAbort
from repro.langs.ir.base import (
    EvalAbort,
    load_checked,
    store_checked,
    symbol_addr,
)


# ----- instructions ----------------------------------------------------------


class Instr(Node):
    pass


class Inop(Instr):
    _fields = ("next",)


class Iconst(Instr):
    _fields = ("n", "dst", "next")


class Iaddrglobal(Instr):
    _fields = ("name", "dst", "next")


class Iaddrstack(Instr):
    _fields = ("ofs", "dst", "next")


class Iop(Instr):
    """``dst := op(args)``; unary for 1 argument (incl. ``move``),
    binary for 2."""

    _fields = ("op", "args", "dst", "next")


class Iload(Instr):
    _fields = ("addr", "dst", "next")


class Istore(Instr):
    _fields = ("addr", "src", "next")


class Icall(Instr):
    _fields = ("fname", "args", "dst", "next", "external")


class Itailcall(Instr):
    """Internal tail call: the current activation is replaced."""

    _fields = ("fname", "args")


class Icond(Instr):
    _fields = ("op", "args", "iftrue", "iffalse")


class Ireturn(Instr):
    _fields = ("src",)


class Iprint(Instr):
    _fields = ("src", "next")


class Ispawn(Instr):
    """Thread creation: start ``fname`` in a new thread."""

    _fields = ("fname", "next")


class RTLFunction:
    """An RTL function: params (virtual regs), stack block size, CFG."""

    __slots__ = ("name", "params", "stacksize", "entry", "code")

    def __init__(self, name, params, stacksize, entry, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "stacksize", stacksize)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "code", dict(code))

    def __setattr__(self, name, value):
        raise AttributeError("RTLFunction is immutable")

    def __repr__(self):
        return "RTLFunction({}, {} nodes)".format(
            self.name, len(self.code)
        )


# ----- semantics --------------------------------------------------------------


class RTLFrame:
    __slots__ = ("fname", "pc", "regs", "sp", "ret_dst", "_hash")

    def __init__(self, fname, pc, regs, sp, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "ret_dst", ret_dst)

    def __setattr__(self, name, value):
        raise AttributeError("RTLFrame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, RTLFrame)
            and self.fname == other.fname
            and self.pc == other.pc
            and self.regs == other.regs
            and self.sp == other.sp
            and self.ret_dst == other.ret_dst
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.fname, self.pc, self.regs, self.sp, self.ret_dst))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "RTLFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc, regs=None):
        return RTLFrame(
            self.fname,
            pc,
            self.regs if regs is None else regs,
            self.sp,
            self.ret_dst,
        )


class RTLCore:
    __slots__ = ("frames", "nidx", "pending", "done", "_hash")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("RTLCore is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, RTLCore)
            and self.frames == other.frames
            and self.nidx == other.nidx
            and self.pending == other.pending
            and self.done == other.done
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.frames, self.nidx, self.pending, self.done))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "RTLCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _reg(frame, r):
    value = frame.regs.get(r, VUndef)
    if value is VUndef:
        raise EvalAbort("use of undefined register r{}".format(r))
    return value


def _apply_op(op, values):
    if op == "move":
        return values[0]
    if len(values) == 1:
        result = UNOPS[op](values[0])
    else:
        result = BINOPS[op](values[0], values[1])
    if result is VUndef:
        raise EvalAbort("undefined result of {!r}".format(op))
    return result


class RTLLang(ModuleLanguage):
    """The RTL module language (deterministic)."""

    name = "RTL"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != len(func.params):
            return RTLCore(pending=("arity-abort",))
        return RTLCore(pending=("enter", entry, tuple(args), None))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return RTLCore(
            core.frames,
            core.nidx,
            ("assign-result", core.pending[1], retval),
        )

    def step(self, module, core, mem, flist):
        if core.done:
            return []
        try:
            return self._step(module, core, mem, flist)
        except EvalAbort as abort:
            return [StepAbort(reason=abort.reason)]

    def _step(self, module, core, mem, flist):
        pending = core.pending
        if pending is not None:
            kind = pending[0]
            if kind == "arity-abort":
                return [StepAbort(reason="arity mismatch")]
            if kind == "enter":
                return self._enter(module, core, mem, flist, *pending[1:])
            if kind == "assign-result":
                _, dst, value = pending
                frames = core.frames
                if dst is not None:
                    frame = frames[-1]
                    frames = frames[:-1] + (
                        frame.at(frame.pc, frame.regs.set(dst, value)),
                    )
                return [Step(TAU, EMP, RTLCore(frames, core.nidx), mem)]
            if kind == "ext-wait":
                return []
            raise SemanticsError("unknown pending {!r}".format(pending))
        frame = core.frames[-1]
        func = module.functions[frame.fname]
        instr = func.code.get(frame.pc)
        if instr is None:
            raise SemanticsError(
                "no instruction at {}:{}".format(frame.fname, frame.pc)
            )
        return self._instr_step(module, core, mem, frame, instr)

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        regs = ImmutableMap(dict(zip(func.params, args)))
        ws = set()
        nidx = core.nidx
        mem2 = mem
        sp = None
        if func.stacksize > 0:
            sp = flist.addr_at(nidx)
            for _ in range(func.stacksize):
                addr = flist.addr_at(nidx)
                nidx += 1
                mem2 = mem2.alloc(addr, VUndef)
                if mem2 is None:
                    raise SemanticsError("freelist slot already allocated")
                ws.add(addr)
        frame = RTLFrame(fname, func.entry, regs, sp, ret_dst)
        nxt = RTLCore(core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, mem2)]

    def _instr_step(self, module, core, mem, frame, instr):
        if isinstance(instr, Inop):
            return self._tau(core, frame.at(instr.next), EMP, mem)

        if isinstance(instr, Iconst):
            regs = frame.regs.set(instr.dst, VInt(instr.n))
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iaddrglobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs = frame.regs.set(instr.dst, value)
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iaddrstack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without stack")]
            regs = frame.regs.set(instr.dst, VPtr(frame.sp + instr.ofs))
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iop):
            values = [_reg(frame, r) for r in instr.args]
            result = _apply_op(instr.op, values)
            regs = frame.regs.set(instr.dst, result)
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iload):
            rs = set()
            ptr = _reg(frame, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs = frame.regs.set(instr.dst, value)
            return self._tau(
                core, frame.at(instr.next, regs), Footprint(rs), mem
            )

        if isinstance(instr, Istore):
            ptr = _reg(frame, instr.addr)
            value = _reg(frame, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core,
                frame.at(instr.next),
                Footprint((), {ptr.addr}),
                mem2,
            )

        if isinstance(instr, Icall):
            args = tuple(_reg(frame, r) for r in instr.args)
            frames = core.frames[:-1] + (frame.at(instr.next),)
            if instr.external:
                nxt = RTLCore(frames, core.nidx, ("ext-wait", instr.dst))
                return [Step(CallMsg(instr.fname, args), EMP, nxt, mem)]
            nxt = RTLCore(
                frames, core.nidx, ("enter", instr.fname, args, instr.dst)
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, Itailcall):
            args = tuple(_reg(frame, r) for r in instr.args)
            # The callee replaces this activation and inherits its
            # return destination.
            # When the tail-callee becomes the bottom activation its
            # eventual return is the module's RetMsg; otherwise the
            # inherited ret_dst routes the value to the original caller.
            nxt = RTLCore(
                core.frames[:-1],
                core.nidx,
                ("enter", instr.fname, args, frame.ret_dst),
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, Icond):
            values = [_reg(frame, r) for r in instr.args]
            result = _apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            target = instr.iftrue if taken else instr.iffalse
            return self._tau(core, frame.at(target), EMP, mem)

        if isinstance(instr, Ireturn):
            value = VInt(0)
            if instr.src is not None:
                value = _reg(frame, instr.src)
            return self._return(core, mem, frame, value)

        if isinstance(instr, Ispawn):
            nxt = RTLCore(
                core.frames[:-1] + (frame.at(instr.next),), core.nidx
            )
            return [Step(SpawnMsg(instr.fname), EMP, nxt, mem)]

        if isinstance(instr, Iprint):
            value = _reg(frame, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = RTLCore(
                core.frames[:-1] + (frame.at(instr.next),), core.nidx
            )
            return [Step(EventMsg("print", value.n), EMP, nxt, mem)]

        raise SemanticsError("unknown RTL instruction {!r}".format(instr))

    def _tau(self, core, frame, footprint, mem):
        nxt = RTLCore(core.frames[:-1] + (frame,), core.nidx)
        return [Step(TAU, footprint, nxt, mem)]

    def _return(self, core, mem, frame, value):
        if len(core.frames) > 1:
            nxt = RTLCore(
                core.frames[:-1],
                core.nidx,
                ("assign-result", frame.ret_dst, value),
            )
            return [Step(TAU, EMP, nxt, mem)]
        nxt = RTLCore(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), EMP, nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


RTL = RTLLang()
