"""LTL: RTL over machine *locations* (output of Allocation).

Virtual registers are replaced by locations: machine registers or
abstract stack slots ``("s", i)``. Slots still live in the core (the
"locset"), not in memory — materializing them as frame memory is the
Stacking pass's job. The Allocation pass maintains the CompCert
invariant that computing instructions use register operands only;
slots appear exclusively in ``move`` instructions.

Calling convention: arguments in ``ARG_REGS``, result in ``RET_REG``;
machine registers are shared across the activation stack (they are the
thread's physical registers), slots are per-activation.
"""

from repro.common.astbase import Node
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import EMPTY_MAP, ImmutableMap
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
from repro.langs.x86.regs import ARG_REGS, RET_REG, is_reg, is_slot


# ----- instructions -----------------------------------------------------------


class LInstr(Node):
    pass


class Lnop(LInstr):
    _fields = ("next",)


class Lconst(LInstr):
    _fields = ("n", "dst", "next")


class Laddrglobal(LInstr):
    _fields = ("name", "dst", "next")


class Laddrstack(LInstr):
    _fields = ("ofs", "dst", "next")


class Lop(LInstr):
    """``dst := op(args)``. For ``op != "move"`` all operands and the
    destination must be machine registers (Allocation invariant)."""

    _fields = ("op", "args", "dst", "next")


class Lload(LInstr):
    _fields = ("addr", "dst", "next")


class Lstore(LInstr):
    _fields = ("addr", "src", "next")


class Lcall(LInstr):
    """Arguments already placed in ``ARG_REGS[:arity]``; the result
    arrives in ``RET_REG``."""

    _fields = ("fname", "arity", "next", "external")


class Ltailcall(LInstr):
    _fields = ("fname", "arity")


class Lcond(LInstr):
    _fields = ("op", "args", "iftrue", "iffalse")


class Lreturn(LInstr):
    """Returns the value of ``RET_REG``."""

    _fields = ()


class Lprint(LInstr):
    _fields = ("src", "next")


class Lspawn(LInstr):
    _fields = ("fname", "next")


class LTLFunction:
    """An LTL function: CFG over locations.

    ``numslots`` is the number of spill slots this function uses
    (becomes the frame layout input of Stacking).
    """

    __slots__ = ("name", "nparams", "stacksize", "numslots", "entry",
                 "code")

    def __init__(self, name, nparams, stacksize, numslots, entry, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nparams", nparams)
        object.__setattr__(self, "stacksize", stacksize)
        object.__setattr__(self, "numslots", numslots)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "code", dict(code))

    def __setattr__(self, name, value):
        raise AttributeError("LTLFunction is immutable")

    def __repr__(self):
        return "LTLFunction({}, {} nodes)".format(
            self.name, len(self.code)
        )


# ----- semantics ---------------------------------------------------------------


class LTLFrame:
    __slots__ = ("fname", "pc", "slots", "sp", "_hash")

    def __init__(self, fname, pc, slots, sp):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "sp", sp)

    def __setattr__(self, name, value):
        raise AttributeError("LTLFrame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LTLFrame)
            and self.fname == other.fname
            and self.pc == other.pc
            and self.slots == other.slots
            and self.sp == other.sp
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.fname, self.pc, self.slots, self.sp))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "LTLFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc, slots=None):
        return LTLFrame(
            self.fname,
            pc,
            self.slots if slots is None else slots,
            self.sp,
        )


class LTLCore:
    __slots__ = ("regs", "frames", "nidx", "pending", "done", "_hash")

    def __init__(self, regs=EMPTY_MAP, frames=(), nidx=0, pending=None,
                 done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("LTLCore is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LTLCore)
            and self.regs == other.regs
            and self.frames == other.frames
            and self.nidx == other.nidx
            and self.pending == other.pending
            and self.done == other.done
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.regs, self.frames, self.nidx, self.pending, self.done))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "LTLCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _read(core, frame, loc):
    if is_reg(loc):
        value = core.regs.get(loc, VUndef)
    elif is_slot(loc):
        value = frame.slots.get(loc[1], VUndef)
    else:
        raise SemanticsError("bad location {!r}".format(loc))
    if value is VUndef:
        raise EvalAbort("use of undefined location {!r}".format(loc))
    return value


def _write(core, frame, loc, value):
    """Returns ``(regs, slots)`` after writing ``loc``."""
    if is_reg(loc):
        return core.regs.set(loc, value), frame.slots
    if is_slot(loc):
        return core.regs, frame.slots.set(loc[1], value)
    raise SemanticsError("bad location {!r}".format(loc))


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


class LTLLang(ModuleLanguage):
    """The LTL module language (deterministic)."""

    name = "LTL"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != func.nparams:
            return LTLCore(pending=("arity-abort",))
        regs = ImmutableMap(dict(zip(ARG_REGS, args)))
        return LTLCore(regs=regs, pending=("enter", entry))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return LTLCore(
            core.regs,
            core.frames,
            core.nidx,
            ("set-ret", retval),
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
                return self._enter(module, core, mem, flist, pending[1])
            if kind == "set-ret":
                regs = core.regs.set(RET_REG, pending[1])
                nxt = LTLCore(regs, core.frames, core.nidx)
                return [Step(TAU, EMP, nxt, mem)]
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

    def _enter(self, module, core, mem, flist, fname):
        func = module.functions[fname]
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
        frame = LTLFrame(fname, func.entry, EMPTY_MAP, sp)
        nxt = LTLCore(core.regs, core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, mem2)]

    def _instr_step(self, module, core, mem, frame, instr):
        if isinstance(instr, Lnop):
            return self._advance(core, frame.at(instr.next), mem, EMP)

        if isinstance(instr, Lconst):
            regs, slots = _write(core, frame, instr.dst, VInt(instr.n))
            return self._advance(
                core, frame.at(instr.next, slots), mem, EMP, regs
            )

        if isinstance(instr, Laddrglobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs, slots = _write(core, frame, instr.dst, value)
            return self._advance(
                core, frame.at(instr.next, slots), mem, EMP, regs
            )

        if isinstance(instr, Laddrstack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without stack")]
            regs, slots = _write(
                core, frame, instr.dst, VPtr(frame.sp + instr.ofs)
            )
            return self._advance(
                core, frame.at(instr.next, slots), mem, EMP, regs
            )

        if isinstance(instr, Lop):
            if instr.op != "move":
                bad = [
                    l
                    for l in tuple(instr.args) + (instr.dst,)
                    if not is_reg(l)
                ]
                if bad:
                    raise SemanticsError(
                        "non-register operand {!r} in Lop".format(bad[0])
                    )
            values = [_read(core, frame, l) for l in instr.args]
            result = _apply_op(instr.op, values)
            regs, slots = _write(core, frame, instr.dst, result)
            return self._advance(
                core, frame.at(instr.next, slots), mem, EMP, regs
            )

        if isinstance(instr, Lload):
            rs = set()
            ptr = _read(core, frame, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs, slots = _write(core, frame, instr.dst, value)
            return self._advance(
                core,
                frame.at(instr.next, slots),
                mem,
                Footprint(rs),
                regs,
            )

        if isinstance(instr, Lstore):
            ptr = _read(core, frame, instr.addr)
            value = _read(core, frame, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._advance(
                core,
                frame.at(instr.next),
                mem2,
                Footprint((), {ptr.addr}),
            )

        if isinstance(instr, Lcall):
            args = tuple(
                _read(core, frame, ARG_REGS[i])
                for i in range(instr.arity)
            )
            frames = core.frames[:-1] + (frame.at(instr.next),)
            if instr.external:
                nxt = LTLCore(
                    core.regs, frames, core.nidx, ("ext-wait",)
                )
                return [Step(CallMsg(instr.fname, args), EMP, nxt, mem)]
            nxt = LTLCore(
                core.regs, frames, core.nidx, ("enter", instr.fname)
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, Ltailcall):
            nxt = LTLCore(
                core.regs,
                core.frames[:-1],
                core.nidx,
                ("enter", instr.fname),
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, Lcond):
            values = [_read(core, frame, l) for l in instr.args]
            result = _apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            target = instr.iftrue if taken else instr.iffalse
            return self._advance(core, frame.at(target), mem, EMP)

        if isinstance(instr, Lreturn):
            value = core.regs.get(RET_REG, VUndef)
            if value is VUndef:
                return [StepAbort(reason="return with undefined eax")]
            return self._return(core, mem, value)

        if isinstance(instr, Lspawn):
            nxt = LTLCore(
                core.regs,
                core.frames[:-1] + (frame.at(instr.next),),
                core.nidx,
            )
            return [Step(SpawnMsg(instr.fname), EMP, nxt, mem)]

        if isinstance(instr, Lprint):
            value = _read(core, frame, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = LTLCore(
                core.regs,
                core.frames[:-1] + (frame.at(instr.next),),
                core.nidx,
            )
            return [Step(EventMsg("print", value.n), EMP, nxt, mem)]

        raise SemanticsError("unknown LTL instruction {!r}".format(instr))

    def _advance(self, core, frame, mem, footprint, regs=None):
        nxt = LTLCore(
            core.regs if regs is None else regs,
            core.frames[:-1] + (frame,),
            core.nidx,
        )
        return [Step(TAU, footprint, nxt, mem)]

    def _return(self, core, mem, value):
        if len(core.frames) > 1:
            nxt = LTLCore(core.regs, core.frames[:-1], core.nidx)
            return [Step(TAU, EMP, nxt, mem)]
        nxt = LTLCore(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), EMP, nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


LTL = LTLLang()
