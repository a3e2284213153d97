"""The x86-SC machine: sequentially consistent mini-x86 semantics.

Every instruction is one silent step; loads/stores act directly on the
global memory (the TSO machine in :mod:`repro.langs.x86.tso` overrides
exactly the memory-access hooks and adds buffer-flush nondeterminism).

Machine state (the core): register file (including ``esp``), condition
flags, current code position, the return-address stack (kept abstract,
as CompCert does), the freelist allocation index, and the store buffer
(always empty under SC).
"""

from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import BINOPS, VInt, VPtr, VUndef, divs, mods
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
    check_access,
    load_checked,
    store_checked,
    symbol_addr,
)
from repro.langs.x86 import ast
from repro.langs.x86.regs import ARG_REGS, RET_REG

#: Flags value for "undefined" (e.g. after an incomparable Pcmp).
FLAGS_UNDEF = None


class X86Core:
    """The x86 machine core (shared by SC and TSO; SC keeps ``buffer``
    empty)."""

    __slots__ = ("regs", "flags", "cur", "rstack", "buffer", "nidx",
                 "pending", "done", "_hash")

    def __init__(self, regs=None, flags=FLAGS_UNDEF, cur=None, rstack=(),
                 buffer=(), nidx=0, pending=None, done=False):
        object.__setattr__(
            self, "regs", regs if regs is not None else ImmutableMap()
        )
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "cur", cur)
        object.__setattr__(self, "rstack", tuple(rstack))
        object.__setattr__(self, "buffer", tuple(buffer))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("X86Core is immutable")

    def _key(self):
        return (
            self.regs,
            self.flags,
            self.cur,
            self.rstack,
            self.buffer,
            self.nidx,
            self.pending,
            self.done,
        )

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, X86Core) and self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "X86Core(cur={!r}, buffer={}, pending={!r})".format(
            self.cur, len(self.buffer), self.pending
        )

    def update(self, **kwargs):
        values = {
            "regs": self.regs,
            "flags": self.flags,
            "cur": self.cur,
            "rstack": self.rstack,
            "buffer": self.buffer,
            "nidx": self.nidx,
            "pending": self.pending,
            "done": self.done,
        }
        values.update(kwargs)
        return X86Core(**values)


def _reg(core, r):
    value = core.regs.get(r, VUndef)
    if value is VUndef:
        raise EvalAbort("use of undefined register {!r}".format(r))
    return value


def _flags_of(v1, v2):
    """Condition flags from comparing two values."""
    if isinstance(v1, VInt) and isinstance(v2, VInt):
        return (v1.n == v2.n, v1.n < v2.n)
    if isinstance(v1, VPtr) and isinstance(v2, VPtr):
        return (v1.addr == v2.addr, None)
    return FLAGS_UNDEF


def _cond_holds(flags, cond):
    if flags is FLAGS_UNDEF:
        raise EvalAbort("conditional on undefined flags")
    eq, lt = flags
    if cond == "e":
        return eq
    if cond == "ne":
        return not eq
    if lt is None:
        raise EvalAbort("signed condition on pointer comparison")
    if cond == "l":
        return lt
    if cond == "le":
        return lt or eq
    if cond == "g":
        return not (lt or eq)
    if cond == "ge":
        return not lt
    raise SemanticsError("unknown condition {!r}".format(cond))


class X86SCLang(ModuleLanguage):
    """The sequentially consistent mini-x86 machine (deterministic)."""

    name = "x86-SC"

    # ----- memory hooks (overridden by the TSO machine) -----------------

    def _mem_load(self, module, core, mem, addr):
        """Returns ``(value, footprint)``."""
        rs = set()
        value = load_checked(module, mem, addr, rs)
        return value, Footprint(rs)

    def _mem_store(self, module, core, mem, addr, value):
        """Returns ``(core, mem, footprint)``."""
        mem2 = store_checked(module, mem, addr, value)
        return core, mem2, Footprint((), {addr})

    def _extra_outcomes(self, module, core, mem, flist):
        """Additional nondeterministic outcomes (TSO buffer flushes)."""
        return []

    def _must_drain(self, core):
        """True when the next instruction must wait for the buffer."""
        return False

    # ----- language interface -------------------------------------------

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != func.nparams:
            return X86Core(pending=("arity-abort",))
        regs = ImmutableMap(dict(zip(ARG_REGS, args)))
        return X86Core(regs=regs, cur=(entry, 0))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return core.update(pending=("set-ret", retval))

    def step(self, module, core, mem, flist):
        if core.done:
            return []
        try:
            return self._step(module, core, mem, flist)
        except EvalAbort as abort:
            # Instruction-level undefined behaviour. Under TSO the
            # store buffer is an independent agent: pending flushes
            # remain available alongside the abort.
            return [
                StepAbort(reason=abort.reason)
            ] + self._extra_outcomes(module, core, mem, flist)

    def _step(self, module, core, mem, flist):
        pending = core.pending
        outcomes = []
        if pending is not None:
            kind = pending[0]
            if kind == "arity-abort":
                return [StepAbort(reason="arity mismatch")]
            if kind == "set-ret":
                nxt = core.update(
                    regs=core.regs.set(RET_REG, pending[1]),
                    pending=None,
                )
                return [Step(TAU, EMP, nxt, mem)]
            if kind == "ext-wait":
                return self._extra_outcomes(module, core, mem, flist)
            raise SemanticsError("unknown pending {!r}".format(pending))

        fname, pc = core.cur
        func = module.functions[fname]
        if pc >= len(func.code):
            raise SemanticsError("fell off the end of {}".format(fname))
        instr = func.code[pc]

        if self._must_drain(core) and self._blocking(instr):
            return self._extra_outcomes(module, core, mem, flist)

        outcomes.extend(
            self._instr_step(module, core, mem, flist, func, instr)
        )
        outcomes.extend(self._extra_outcomes(module, core, mem, flist))
        return outcomes

    @staticmethod
    def _blocking(instr):
        """Instructions that require an empty store buffer."""
        return isinstance(
            instr,
            (
                ast.Plock_cmpxchg,
                ast.Pmfence,
                ast.Pcall,
                ast.Pret,
                ast.Pprint,
                ast.Pspawn,
            ),
        )

    # ----- instruction execution ------------------------------------------

    def _mode_addr(self, module, core, mode):
        kind = mode[0]
        if kind == "global":
            return symbol_addr(module, mode[1])
        if kind == "base":
            base = _reg(core, mode[1])
            if not isinstance(base, VPtr):
                raise EvalAbort("base register holds non-pointer")
            return base.addr + mode[2]
        raise SemanticsError("unknown addressing mode {!r}".format(mode))

    def _instr_step(self, module, core, mem, flist, func, instr):
        fname, pc = core.cur
        nxt_cur = (fname, pc + 1)

        if isinstance(instr, ast.Plabel):
            return [Step(TAU, EMP, core.update(cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pmov_rr):
            regs = core.regs.set(instr.dst, _reg(core, instr.src))
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pmov_ri):
            regs = core.regs.set(instr.dst, VInt(instr.n))
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Plea):
            addr = self._mode_addr(module, core, instr.mode)
            regs = core.regs.set(instr.dst, VPtr(addr))
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pmov_rm):
            addr = self._mode_addr(module, core, instr.mode)
            value, fp = self._mem_load(module, core, mem, addr)
            regs = core.regs.set(instr.dst, value)
            return [Step(TAU, fp, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pmov_mr):
            addr = self._mode_addr(module, core, instr.mode)
            value = _reg(core, instr.src)
            core2, mem2, fp = self._mem_store(
                module, core, mem, addr, value
            )
            return [Step(TAU, fp, core2.update(cur=nxt_cur), mem2)]

        if isinstance(instr, ast.Parith_rr):
            result = BINOPS[instr.op](
                _reg(core, instr.dst), _reg(core, instr.src)
            )
            if result is VUndef:
                return [StepAbort(reason="undefined arithmetic result")]
            regs = core.regs.set(instr.dst, result)
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Parith_ri):
            result = BINOPS[instr.op](_reg(core, instr.dst), VInt(instr.n))
            if result is VUndef:
                return [StepAbort(reason="undefined arithmetic result")]
            regs = core.regs.set(instr.dst, result)
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pneg):
            value = _reg(core, instr.dst)
            if not isinstance(value, VInt):
                return [StepAbort(reason="neg of non-integer")]
            regs = core.regs.set(instr.dst, VInt(-value.n))
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pdivs):
            result = divs(_reg(core, instr.dst), _reg(core, instr.src))
            if result is VUndef:
                return [StepAbort(reason="undefined division")]
            regs = core.regs.set(instr.dst, result)
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pmods):
            result = mods(_reg(core, instr.dst), _reg(core, instr.src))
            if result is VUndef:
                return [StepAbort(reason="undefined modulo")]
            regs = core.regs.set(instr.dst, result)
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pcmp_rr):
            flags = _flags_of(_reg(core, instr.r1), _reg(core, instr.r2))
            return [
                Step(TAU, EMP, core.update(flags=flags, cur=nxt_cur), mem)
            ]

        if isinstance(instr, ast.Pcmp_ri):
            flags = _flags_of(_reg(core, instr.r1), VInt(instr.n))
            return [
                Step(TAU, EMP, core.update(flags=flags, cur=nxt_cur), mem)
            ]

        if isinstance(instr, ast.Pjcc):
            taken = _cond_holds(core.flags, instr.cond)
            cur = (fname, func.target(instr.lbl)) if taken else nxt_cur
            return [Step(TAU, EMP, core.update(cur=cur), mem)]

        if isinstance(instr, ast.Psetcc):
            taken = _cond_holds(core.flags, instr.cond)
            regs = core.regs.set(instr.dst, VInt(1 if taken else 0))
            return [Step(TAU, EMP, core.update(regs=regs, cur=nxt_cur), mem)]

        if isinstance(instr, ast.Pjmp):
            cur = (fname, func.target(instr.lbl))
            return [Step(TAU, EMP, core.update(cur=cur), mem)]

        if isinstance(instr, ast.Pcall):
            if instr.external:
                args = tuple(
                    _reg(core, ARG_REGS[i]) for i in range(instr.arity)
                )
                nxt = core.update(cur=nxt_cur, pending=("ext-wait",))
                return [Step(CallMsg(instr.fname, args), EMP, nxt, mem)]
            if instr.fname not in module.functions:
                return [
                    StepAbort(
                        reason="call to unknown {!r}".format(instr.fname)
                    )
                ]
            nxt = core.update(
                cur=(instr.fname, 0), rstack=core.rstack + (nxt_cur,)
            )
            return [Step(TAU, EMP, nxt, mem)]

        if isinstance(instr, ast.Pret):
            if core.rstack:
                nxt = core.update(
                    cur=core.rstack[-1], rstack=core.rstack[:-1]
                )
                return [Step(TAU, EMP, nxt, mem)]
            value = core.regs.get(RET_REG, VUndef)
            if value is VUndef:
                return [StepAbort(reason="return with undefined eax")]
            nxt = core.update(cur=None, done=True)
            return [Step(RetMsg(value), EMP, nxt, mem)]

        if isinstance(instr, ast.Pallocframe):
            if instr.size < 1:
                raise SemanticsError(
                    "Pallocframe needs at least the back-link word"
                )
            ws = set()
            nidx = core.nidx
            mem2 = mem
            base = flist.addr_at(nidx)
            for _ in range(instr.size):
                addr = flist.addr_at(nidx)
                nidx += 1
                mem2 = mem2.alloc(addr, VUndef)
                if mem2 is None:
                    raise SemanticsError("freelist slot already allocated")
                ws.add(addr)
            # Save the back link (the caller's esp, possibly VUndef for
            # the bottom frame).
            mem2 = mem2.store(base, core.regs.get("esp", VUndef))
            regs = core.regs.set("esp", VPtr(base))
            nxt = core.update(regs=regs, nidx=nidx, cur=nxt_cur)
            return [Step(TAU, Footprint((), ws), nxt, mem2)]

        if isinstance(instr, ast.Pfreeframe):
            sp = _reg(core, "esp")
            if not isinstance(sp, VPtr):
                return [StepAbort(reason="freeframe with non-pointer esp")]
            rs = set()
            check_access(module, sp.addr)
            rs.add(sp.addr)
            saved = mem.load(sp.addr)
            if saved is None:
                return [StepAbort(reason="freeframe on unallocated stack")]
            regs = core.regs.set("esp", saved)
            nxt = core.update(regs=regs, cur=nxt_cur)
            return [Step(TAU, Footprint(rs), nxt, mem)]

        if isinstance(instr, ast.Pprint):
            value = _reg(core, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = core.update(cur=nxt_cur)
            return [Step(EventMsg("print", value.n), EMP, nxt, mem)]

        if isinstance(instr, ast.Pspawn):
            nxt = core.update(cur=nxt_cur)
            return [Step(SpawnMsg(instr.fname), EMP, nxt, mem)]

        if isinstance(instr, ast.Plock_cmpxchg):
            addr = self._mode_addr(module, core, instr.mode)
            check_access(module, addr)
            current = mem.load(addr)
            if current is None:
                return [StepAbort(reason="cmpxchg on unallocated")]
            expected = _reg(core, "eax")
            newval = _reg(core, instr.src)
            equal = current == expected
            if equal:
                mem2 = mem.store(addr, newval)
                nxt = core.update(flags=(True, None), cur=nxt_cur)
                fp = Footprint({addr}, {addr})
                return [Step(TAU, fp, nxt, mem2)]
            regs = core.regs.set("eax", current)
            nxt = core.update(regs=regs, flags=(False, None), cur=nxt_cur)
            return [Step(TAU, Footprint({addr}), nxt, mem)]

        if isinstance(instr, ast.Pmfence):
            return [Step(TAU, EMP, core.update(cur=nxt_cur), mem)]

        raise SemanticsError("unknown x86 instruction {!r}".format(instr))

    def is_final(self, module, core):
        return core is not None and core.done


X86SC = X86SCLang()
