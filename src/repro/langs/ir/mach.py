"""Mach: Linear with concrete stack frames (output of Stacking).

The abstract slot locations of LTL/Linear become *memory*: each
activation allocates a frame of ``framesize`` words from the freelist;
slot ``i`` lives at ``sp + i`` and the Cminor stack data at
``sp + numslots + ...`` (the Stacking pass folds that offset in).
Consequently spill traffic now shows up in footprints — in the local
(freelist) region, which ``FPmatch`` permits.

All computing instructions use machine registers only; the spill moves
of Linear become explicit ``MGetstack``/``MSetstack`` memory accesses.
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
from repro.langs.ir.ltl import _apply_op
from repro.langs.x86.regs import ARG_REGS, RET_REG, is_reg


class MInstr(Node):
    pass


class MLabel(MInstr):
    _fields = ("lbl",)


class MOp(MInstr):
    """``dst := op(args)`` over machine registers."""

    _fields = ("op", "args", "dst")


class MConst(MInstr):
    _fields = ("n", "dst")


class MAddrGlobal(MInstr):
    _fields = ("name", "dst")


class MAddrStack(MInstr):
    """``dst := sp + ofs`` (ofs already includes the slot area)."""

    _fields = ("ofs", "dst")


class MGetstack(MInstr):
    """``dst := [sp + idx]`` — a spill reload."""

    _fields = ("idx", "dst")


class MSetstack(MInstr):
    """``[sp + idx] := src`` — a spill store."""

    _fields = ("src", "idx")


class MLoad(MInstr):
    _fields = ("addr", "dst")


class MStore(MInstr):
    _fields = ("addr", "src")


class MCall(MInstr):
    _fields = ("fname", "arity", "external")


class MTailcall(MInstr):
    _fields = ("fname", "arity")


class MGoto(MInstr):
    _fields = ("lbl",)


class MCond(MInstr):
    _fields = ("op", "args", "lbl")


class MReturn(MInstr):
    _fields = ()


class MPrint(MInstr):
    _fields = ("src",)


class MSpawn(MInstr):
    _fields = ("fname",)


class MachFunction:
    """A Mach function: instruction tuple, frame size, label map."""

    __slots__ = ("name", "nparams", "framesize", "code", "labels")

    def __init__(self, name, nparams, framesize, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nparams", nparams)
        object.__setattr__(self, "framesize", framesize)
        object.__setattr__(self, "code", tuple(code))
        labels = {}
        for idx, instr in enumerate(self.code):
            if isinstance(instr, MLabel):
                if instr.lbl in labels:
                    raise SemanticsError(
                        "duplicate label {!r} in {}".format(
                            instr.lbl, name
                        )
                    )
                labels[instr.lbl] = idx
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("MachFunction is immutable")

    def __repr__(self):
        return "MachFunction({}, {} instrs)".format(
            self.name, len(self.code)
        )

    def target(self, lbl):
        idx = self.labels.get(lbl)
        if idx is None:
            raise SemanticsError(
                "undefined label {!r} in {}".format(lbl, self.name)
            )
        return idx


class MachFrame:
    __slots__ = ("fname", "pc", "sp", "_hash")

    def __init__(self, fname, pc, sp):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "sp", sp)

    def __setattr__(self, name, value):
        raise AttributeError("MachFrame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, MachFrame)
            and self.fname == other.fname
            and self.pc == other.pc
            and self.sp == other.sp
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.fname, self.pc, self.sp))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "MachFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc):
        return MachFrame(self.fname, pc, self.sp)


class MachCore:
    __slots__ = ("regs", "frames", "nidx", "pending", "done", "_hash")

    def __init__(self, regs=EMPTY_MAP, frames=(), nidx=0, pending=None,
                 done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("MachCore is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, MachCore)
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
        return "MachCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _reg(core, r):
    if not is_reg(r):
        raise SemanticsError("bad machine register {!r}".format(r))
    value = core.regs.get(r, VUndef)
    if value is VUndef:
        raise EvalAbort("use of undefined register {!r}".format(r))
    return value


class MachLang(ModuleLanguage):
    """The Mach module language (deterministic)."""

    name = "Mach"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != func.nparams:
            return MachCore(pending=("arity-abort",))
        regs = ImmutableMap(dict(zip(ARG_REGS, args)))
        return MachCore(regs=regs, pending=("enter", entry))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return MachCore(
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
                return [
                    Step(
                        TAU, EMP, MachCore(regs, core.frames, core.nidx),
                        mem,
                    )
                ]
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
        if func.framesize > 0:
            sp = flist.addr_at(nidx)
            for _ in range(func.framesize):
                addr = flist.addr_at(nidx)
                nidx += 1
                mem2 = mem2.alloc(addr, VUndef)
                if mem2 is None:
                    raise SemanticsError("freelist slot already allocated")
                ws.add(addr)
        frame = MachFrame(fname, 0, sp)
        nxt = MachCore(core.regs, core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, mem2)]

    def _instr_step(self, module, core, mem, frame, func, instr):
        if isinstance(instr, MLabel):
            return self._adv(core, frame.at(frame.pc + 1), mem, EMP)

        if isinstance(instr, MConst):
            regs = core.regs.set(instr.dst, VInt(instr.n))
            return self._adv(
                core, frame.at(frame.pc + 1), mem, EMP, regs
            )

        if isinstance(instr, MAddrGlobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs = core.regs.set(instr.dst, value)
            return self._adv(
                core, frame.at(frame.pc + 1), mem, EMP, regs
            )

        if isinstance(instr, MAddrStack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without frame")]
            regs = core.regs.set(instr.dst, VPtr(frame.sp + instr.ofs))
            return self._adv(
                core, frame.at(frame.pc + 1), mem, EMP, regs
            )

        if isinstance(instr, MGetstack):
            if frame.sp is None:
                return [StepAbort(reason="getstack without frame")]
            rs = set()
            value = load_checked(
                module, mem, frame.sp + instr.idx, rs
            )
            regs = core.regs.set(instr.dst, value)
            return self._adv(
                core, frame.at(frame.pc + 1), mem, Footprint(rs), regs
            )

        if isinstance(instr, MSetstack):
            if frame.sp is None:
                return [StepAbort(reason="setstack without frame")]
            value = _reg(core, instr.src)
            addr = frame.sp + instr.idx
            mem2 = store_checked(module, mem, addr, value)
            return self._adv(
                core,
                frame.at(frame.pc + 1),
                mem2,
                Footprint((), {addr}),
            )

        if isinstance(instr, MOp):
            values = [_reg(core, r) for r in instr.args]
            result = _apply_op(instr.op, values)
            regs = core.regs.set(instr.dst, result)
            return self._adv(
                core, frame.at(frame.pc + 1), mem, EMP, regs
            )

        if isinstance(instr, MLoad):
            rs = set()
            ptr = _reg(core, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs = core.regs.set(instr.dst, value)
            return self._adv(
                core, frame.at(frame.pc + 1), mem, Footprint(rs), regs
            )

        if isinstance(instr, MStore):
            ptr = _reg(core, instr.addr)
            value = _reg(core, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._adv(
                core,
                frame.at(frame.pc + 1),
                mem2,
                Footprint((), {ptr.addr}),
            )

        if isinstance(instr, MCall):
            args = tuple(
                _reg(core, ARG_REGS[i]) for i in range(instr.arity)
            )
            frames = core.frames[:-1] + (frame.at(frame.pc + 1),)
            if instr.external:
                nxt = MachCore(
                    core.regs, frames, core.nidx, ("ext-wait",)
                )
                return [Step(CallMsg(instr.fname, args), EMP, nxt, mem)]
            nxt = MachCore(
                core.regs, frames, core.nidx, ("enter", instr.fname)
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, MTailcall):
            nxt = MachCore(
                core.regs,
                core.frames[:-1],
                core.nidx,
                ("enter", instr.fname),
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, MGoto):
            return self._adv(
                core, frame.at(func.target(instr.lbl)), mem, EMP
            )

        if isinstance(instr, MCond):
            values = [_reg(core, r) for r in instr.args]
            result = _apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            pc = func.target(instr.lbl) if taken else frame.pc + 1
            return self._adv(core, frame.at(pc), mem, EMP)

        if isinstance(instr, MReturn):
            value = core.regs.get(RET_REG, VUndef)
            if value is VUndef:
                return [StepAbort(reason="return with undefined eax")]
            return self._return(core, mem, value)

        if isinstance(instr, MSpawn):
            nxt = MachCore(
                core.regs,
                core.frames[:-1] + (frame.at(frame.pc + 1),),
                core.nidx,
            )
            return [Step(SpawnMsg(instr.fname), EMP, nxt, mem)]

        if isinstance(instr, MPrint):
            value = _reg(core, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = MachCore(
                core.regs,
                core.frames[:-1] + (frame.at(frame.pc + 1),),
                core.nidx,
            )
            return [Step(EventMsg("print", value.n), EMP, nxt, mem)]

        raise SemanticsError("unknown Mach instruction {!r}".format(instr))

    def _adv(self, core, frame, mem, footprint, regs=None):
        nxt = MachCore(
            core.regs if regs is None else regs,
            core.frames[:-1] + (frame,),
            core.nidx,
        )
        return [Step(TAU, footprint, nxt, mem)]

    def _return(self, core, mem, value):
        if len(core.frames) > 1:
            nxt = MachCore(core.regs, core.frames[:-1], core.nidx)
            return [Step(TAU, EMP, nxt, mem)]
        nxt = MachCore(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), EMP, nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


MACH = MachLang()
