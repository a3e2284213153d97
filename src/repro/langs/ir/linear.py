"""Linear: linearized LTL (output of the Linearize pass).

The CFG is replaced by an instruction *list* with labels, gotos and
conditional branches that fall through when false. Locations (machine
registers + abstract slots) and the calling convention are unchanged
from LTL; the CleanupLabels pass runs at this level.
"""

from repro.common.astbase import Node
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import EMPTY_MAP, ImmutableMap
from repro.common.values import VInt, VPtr, VUndef
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
from repro.langs.ir.ltl import _apply_op, _read, _write
from repro.langs.x86.regs import ARG_REGS, RET_REG


class LinInstr(Node):
    pass


class LinLabel(LinInstr):
    _fields = ("lbl",)


class LinOp(LinInstr):
    _fields = ("op", "args", "dst")


class LinConst(LinInstr):
    _fields = ("n", "dst")


class LinAddrGlobal(LinInstr):
    _fields = ("name", "dst")


class LinAddrStack(LinInstr):
    _fields = ("ofs", "dst")


class LinLoad(LinInstr):
    _fields = ("addr", "dst")


class LinStore(LinInstr):
    _fields = ("addr", "src")


class LinCall(LinInstr):
    _fields = ("fname", "arity", "external")


class LinTailcall(LinInstr):
    _fields = ("fname", "arity")


class LinGoto(LinInstr):
    _fields = ("lbl",)


class LinCond(LinInstr):
    """Branch to ``lbl`` when the condition holds; else fall through."""

    _fields = ("op", "args", "lbl")


class LinReturn(LinInstr):
    _fields = ()


class LinPrint(LinInstr):
    _fields = ("src",)


class LinSpawn(LinInstr):
    _fields = ("fname",)


class LinearFunction:
    """A Linear function: an instruction tuple plus its label map."""

    __slots__ = ("name", "nparams", "stacksize", "numslots", "code",
                 "labels")

    def __init__(self, name, nparams, stacksize, numslots, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nparams", nparams)
        object.__setattr__(self, "stacksize", stacksize)
        object.__setattr__(self, "numslots", numslots)
        object.__setattr__(self, "code", tuple(code))
        labels = {}
        for idx, instr in enumerate(self.code):
            if isinstance(instr, LinLabel):
                if instr.lbl in labels:
                    raise SemanticsError(
                        "duplicate label {!r} in {}".format(
                            instr.lbl, name
                        )
                    )
                labels[instr.lbl] = idx
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("LinearFunction is immutable")

    def __repr__(self):
        return "LinearFunction({}, {} instrs)".format(
            self.name, len(self.code)
        )

    def target(self, lbl):
        idx = self.labels.get(lbl)
        if idx is None:
            raise SemanticsError(
                "undefined label {!r} in {}".format(lbl, self.name)
            )
        return idx


class LinFrame:
    __slots__ = ("fname", "pc", "slots", "sp", "_hash")

    def __init__(self, fname, pc, slots, sp):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "sp", sp)

    def __setattr__(self, name, value):
        raise AttributeError("LinFrame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LinFrame)
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
        return "LinFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc, slots=None):
        return LinFrame(
            self.fname,
            pc,
            self.slots if slots is None else slots,
            self.sp,
        )


class LinCore:
    __slots__ = ("regs", "frames", "nidx", "pending", "done", "_hash")

    def __init__(self, regs=EMPTY_MAP, frames=(), nidx=0, pending=None,
                 done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("LinCore is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LinCore)
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
        return "LinCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


class LinearLang(ModuleLanguage):
    """The Linear module language (deterministic)."""

    name = "Linear"

    core_cls = LinCore
    frame_cls = LinFrame

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != func.nparams:
            return self.core_cls(pending=("arity-abort",))
        regs = ImmutableMap(dict(zip(ARG_REGS, args)))
        return self.core_cls(regs=regs, pending=("enter", entry))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return self.core_cls(
            core.regs, core.frames, core.nidx, ("set-ret", retval)
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
                nxt = self.core_cls(regs, core.frames, core.nidx)
                return [Step(TAU, EMP, nxt, mem)]
            if kind == "ext-wait":
                return []
            raise SemanticsError("unknown pending {!r}".format(pending))
        frame = core.frames[-1]
        func = module.functions[frame.fname]
        if frame.pc >= len(func.code):
            raise SemanticsError(
                "fell off the end of {}".format(frame.fname)
            )
        return self._instr_step(
            module, core, mem, frame, func, func.code[frame.pc]
        )

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
        frame = self.frame_cls(fname, 0, EMPTY_MAP, sp)
        nxt = self.core_cls(core.regs, core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, mem2)]

    def _instr_step(self, module, core, mem, frame, func, instr):
        if isinstance(instr, LinLabel):
            return self._adv(core, frame.at(frame.pc + 1), mem, EMP)

        if isinstance(instr, LinConst):
            regs, slots = _write(core, frame, instr.dst, VInt(instr.n))
            return self._adv(
                core, frame.at(frame.pc + 1, slots), mem, EMP, regs
            )

        if isinstance(instr, LinAddrGlobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs, slots = _write(core, frame, instr.dst, value)
            return self._adv(
                core, frame.at(frame.pc + 1, slots), mem, EMP, regs
            )

        if isinstance(instr, LinAddrStack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without stack")]
            regs, slots = _write(
                core, frame, instr.dst, VPtr(frame.sp + instr.ofs)
            )
            return self._adv(
                core, frame.at(frame.pc + 1, slots), mem, EMP, regs
            )

        if isinstance(instr, LinOp):
            values = [_read(core, frame, l) for l in instr.args]
            result = _apply_op(instr.op, values)
            regs, slots = _write(core, frame, instr.dst, result)
            return self._adv(
                core, frame.at(frame.pc + 1, slots), mem, EMP, regs
            )

        if isinstance(instr, LinLoad):
            rs = set()
            ptr = _read(core, frame, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs, slots = _write(core, frame, instr.dst, value)
            return self._adv(
                core,
                frame.at(frame.pc + 1, slots),
                mem,
                Footprint(rs),
                regs,
            )

        if isinstance(instr, LinStore):
            ptr = _read(core, frame, instr.addr)
            value = _read(core, frame, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._adv(
                core,
                frame.at(frame.pc + 1),
                mem2,
                Footprint((), {ptr.addr}),
            )

        if isinstance(instr, LinCall):
            args = tuple(
                _read(core, frame, ARG_REGS[i])
                for i in range(instr.arity)
            )
            frames = core.frames[:-1] + (frame.at(frame.pc + 1),)
            if instr.external:
                nxt = self.core_cls(
                    core.regs, frames, core.nidx, ("ext-wait",)
                )
                return [Step(CallMsg(instr.fname, args), EMP, nxt, mem)]
            nxt = self.core_cls(
                core.regs, frames, core.nidx, ("enter", instr.fname)
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, LinTailcall):
            nxt = self.core_cls(
                core.regs,
                core.frames[:-1],
                core.nidx,
                ("enter", instr.fname),
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, LinGoto):
            return self._adv(
                core, frame.at(func.target(instr.lbl)), mem, EMP
            )

        if isinstance(instr, LinCond):
            values = [_read(core, frame, l) for l in instr.args]
            result = _apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            pc = func.target(instr.lbl) if taken else frame.pc + 1
            return self._adv(core, frame.at(pc), mem, EMP)

        if isinstance(instr, LinReturn):
            value = core.regs.get(RET_REG, VUndef)
            if value is VUndef:
                return [StepAbort(reason="return with undefined eax")]
            return self._return(core, mem, value)

        if isinstance(instr, LinSpawn):
            nxt = self.core_cls(
                core.regs,
                core.frames[:-1] + (frame.at(frame.pc + 1),),
                core.nidx,
            )
            return [Step(SpawnMsg(instr.fname), EMP, nxt, mem)]

        if isinstance(instr, LinPrint):
            value = _read(core, frame, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = self.core_cls(
                core.regs,
                core.frames[:-1] + (frame.at(frame.pc + 1),),
                core.nidx,
            )
            return [Step(EventMsg("print", value.n), EMP, nxt, mem)]

        raise SemanticsError(
            "unknown Linear instruction {!r}".format(instr)
        )

    def _adv(self, core, frame, mem, footprint, regs=None):
        nxt = self.core_cls(
            core.regs if regs is None else regs,
            core.frames[:-1] + (frame,),
            core.nidx,
        )
        return [Step(TAU, footprint, nxt, mem)]

    def _return(self, core, mem, value):
        if len(core.frames) > 1:
            nxt = self.core_cls(core.regs, core.frames[:-1], core.nidx)
            return [Step(TAU, EMP, nxt, mem)]
        nxt = self.core_cls(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), EMP, nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


LINEAR = LinearLang()
