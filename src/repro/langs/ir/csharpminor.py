"""Csharpminor: the first IR, output of the Cshmgen pass.

Differences from MiniC (Clight): variable scoping is gone — locals are
either *temporaries* (live in the core, no memory footprint) or
explicit *stack locals* (memory-allocated at entry, for address-taken
variables); global accesses are explicit ``ELoad``/``SStore`` through
``EAddrGlobal``. This is where the first footprint shrinkage of the
pipeline happens: reads/writes of promoted locals disappear from
footprints entirely (allowed because ``FPmatch`` only constrains the
shared region).
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


# ----- expressions -----------------------------------------------------------


class Expr(Node):
    pass


class EConst(Expr):
    _fields = ("n",)


class ETemp(Expr):
    _fields = ("name",)


class EAddrLocal(Expr):
    """Address of a stack-allocated local."""

    _fields = ("name",)


class EAddrGlobal(Expr):
    _fields = ("name",)


class ELoad(Expr):
    _fields = ("addr",)


class EUnop(Expr):
    _fields = ("op", "arg")


class EBinop(Expr):
    _fields = ("op", "left", "right")


# ----- statements ------------------------------------------------------------


class Stmt(Node):
    pass


class SSkip(Stmt):
    _fields = ()


class SSet(Stmt):
    """``temp := e`` — no memory effect."""

    _fields = ("temp", "expr")


class SStore(Stmt):
    """``[addr_e] := e``."""

    _fields = ("addr", "expr")


class SCall(Stmt):
    """``temp? = f(args)``; ``external`` resolved by the pass."""

    _fields = ("dst", "fname", "args", "external")


class SPrint(Stmt):
    _fields = ("expr",)


class SSeq(Stmt):
    _fields = ("stmts",)


class SIf(Stmt):
    _fields = ("cond", "then", "els")


class SWhile(Stmt):
    _fields = ("cond", "body")


class SReturn(Stmt):
    _fields = ("expr",)


class SSpawn(Stmt):
    """``spawn f`` — thread creation."""

    _fields = ("fname",)


class CshmFunction(Node):
    """``params`` are temp names; ``stack_locals`` the memory-resident
    (address-taken) locals."""

    _fields = ("name", "params", "stack_locals", "body")


# ----- semantics -------------------------------------------------------------


class CshmFrame:
    __slots__ = ("fname", "temps", "env", "kont", "ret_dst", "_hash")

    def __init__(self, fname, temps, env, kont, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "temps", temps)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "kont", tuple(kont))
        object.__setattr__(self, "ret_dst", ret_dst)

    def __setattr__(self, name, value):
        raise AttributeError("CshmFrame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, CshmFrame)
            and self.fname == other.fname
            and self.temps == other.temps
            and self.env == other.env
            and self.kont == other.kont
            and self.ret_dst == other.ret_dst
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.fname, self.temps, self.env, self.kont, self.ret_dst))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "CshmFrame({}, kont_len={})".format(
            self.fname, len(self.kont)
        )

    def with_kont(self, kont):
        return CshmFrame(
            self.fname, self.temps, self.env, kont, self.ret_dst
        )

    def with_temps(self, temps, kont):
        return CshmFrame(
            self.fname, temps, self.env, kont, self.ret_dst
        )


class CshmCore:
    __slots__ = ("frames", "nidx", "pending", "done", "_hash")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("CshmCore is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, CshmCore)
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
        return "CshmCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _flatten(stmt, rest):
    if isinstance(stmt, SSeq):
        out = rest
        for s in reversed(stmt.stmts):
            out = _flatten(s, out)
        return out
    if isinstance(stmt, SSkip):
        return rest
    return (stmt,) + rest


def _eval(module, frame, mem, expr, rs):
    if isinstance(expr, EConst):
        return VInt(expr.n)
    if isinstance(expr, ETemp):
        value = frame.temps.get(expr.name, VUndef)
        if value is VUndef:
            raise EvalAbort(
                "use of undefined temp {!r}".format(expr.name)
            )
        return value
    if isinstance(expr, EAddrLocal):
        addr = frame.env.get(expr.name)
        if addr is None:
            raise EvalAbort("unknown stack local {!r}".format(expr.name))
        return VPtr(addr)
    if isinstance(expr, EAddrGlobal):
        return VPtr(symbol_addr(module, expr.name))
    if isinstance(expr, ELoad):
        ptr = _eval(module, frame, mem, expr.addr, rs)
        if not isinstance(ptr, VPtr):
            raise EvalAbort("load through non-pointer")
        return load_checked(module, mem, ptr.addr, rs)
    if isinstance(expr, EUnop):
        result = UNOPS[expr.op](
            _eval(module, frame, mem, expr.arg, rs)
        )
        if result is VUndef:
            raise EvalAbort("undefined unop result")
        return result
    if isinstance(expr, EBinop):
        left = _eval(module, frame, mem, expr.left, rs)
        right = _eval(module, frame, mem, expr.right, rs)
        result = BINOPS[expr.op](left, right)
        if result is VUndef:
            raise EvalAbort("undefined binop result")
        return result
    raise SemanticsError("unknown Csharpminor expression {!r}".format(expr))


class CshmLang(ModuleLanguage):
    """The Csharpminor module language (deterministic)."""

    name = "Csharpminor"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != len(func.params):
            return CshmCore(pending=("arity-abort",))
        return CshmCore(pending=("enter", entry, tuple(args), None))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return CshmCore(
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
                        frame.with_temps(
                            frame.temps.set(dst, value), frame.kont
                        ),
                    )
                return [Step(TAU, EMP, CshmCore(frames, core.nidx), mem)]
            if kind == "ext-wait":
                return []
            raise SemanticsError("unknown pending {!r}".format(pending))
        frame = core.frames[-1]
        if not frame.kont:
            return self._return(core, mem, frame, VInt(0), set())
        return self._stmt_step(module, core, mem, frame)

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        temps = ImmutableMap(dict(zip(func.params, args)))
        env = {}
        ws = set()
        nidx = core.nidx
        mem2 = mem
        for name in func.stack_locals:
            addr = flist.addr_at(nidx)
            nidx += 1
            mem2 = mem2.alloc(addr, VUndef)
            if mem2 is None:
                raise SemanticsError("freelist slot already allocated")
            env[name] = addr
            ws.add(addr)
        frame = CshmFrame(
            fname,
            temps,
            ImmutableMap(env),
            _flatten(func.body, ()),
            ret_dst,
        )
        nxt = CshmCore(core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, mem2)]

    def _stmt_step(self, module, core, mem, frame):
        stmt, rest = frame.kont[0], frame.kont[1:]

        if isinstance(stmt, SSkip):
            return self._tau(core, frame.with_kont(rest), EMP, mem)

        if isinstance(stmt, SSet):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            nxt = frame.with_temps(
                frame.temps.set(stmt.temp, value), rest
            )
            return self._tau(core, nxt, Footprint(rs), mem)

        if isinstance(stmt, SStore):
            rs = set()
            ptr = _eval(module, frame, mem, stmt.addr, rs)
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core,
                frame.with_kont(rest),
                Footprint(rs, {ptr.addr}),
                mem2,
            )

        if isinstance(stmt, SCall):
            rs = set()
            args = tuple(
                _eval(module, frame, mem, a, rs) for a in stmt.args
            )
            frames = core.frames[:-1] + (frame.with_kont(rest),)
            if stmt.external:
                nxt = CshmCore(
                    frames, core.nidx, ("ext-wait", stmt.dst)
                )
                return [
                    Step(
                        CallMsg(stmt.fname, args),
                        Footprint(rs),
                        nxt,
                        mem,
                    )
                ]
            nxt = CshmCore(
                frames, core.nidx, ("enter", stmt.fname, args, stmt.dst)
            )
            return [Step(TAU, Footprint(rs), nxt, mem)]

        if isinstance(stmt, SPrint):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = CshmCore(
                core.frames[:-1] + (frame.with_kont(rest),), core.nidx
            )
            return [
                Step(EventMsg("print", value.n), Footprint(rs), nxt, mem)
            ]

        if isinstance(stmt, SIf):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            branch = stmt.then if taken else stmt.els
            return self._tau(
                core,
                frame.with_kont(_flatten(branch, rest)),
                Footprint(rs),
                mem,
            )

        if isinstance(stmt, SWhile):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined loop condition")]
            kont = (
                _flatten(stmt.body, (stmt,) + rest) if taken else rest
            )
            return self._tau(
                core, frame.with_kont(kont), Footprint(rs), mem
            )

        if isinstance(stmt, SSpawn):
            nxt = CshmCore(
                core.frames[:-1] + (frame.with_kont(rest),), core.nidx
            )
            return [Step(SpawnMsg(stmt.fname), EMP, nxt, mem)]

        if isinstance(stmt, SReturn):
            rs = set()
            value = VInt(0)
            if stmt.expr is not None:
                value = _eval(module, frame, mem, stmt.expr, rs)
            popped = CshmCore(
                core.frames[:-1] + (frame.with_kont(rest),), core.nidx
            )
            return self._return(popped, mem, frame, value, rs)

        raise SemanticsError(
            "unknown Csharpminor statement {!r}".format(stmt)
        )

    def _tau(self, core, frame, footprint, mem):
        nxt = CshmCore(core.frames[:-1] + (frame,), core.nidx)
        return [Step(TAU, footprint, nxt, mem)]

    def _return(self, core, mem, frame, value, rs):
        if len(core.frames) > 1:
            nxt = CshmCore(
                core.frames[:-1],
                core.nidx,
                ("assign-result", frame.ret_dst, value),
            )
            return [Step(TAU, Footprint(rs), nxt, mem)]
        nxt = CshmCore(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), Footprint(rs), nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


CSHARPMINOR = CshmLang()
