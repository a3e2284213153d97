"""Footprint-instrumented small-step semantics of MiniC (Clight role).

Core states follow the paper's Clight instantiation (Sec. 7.1): a core
is control state plus the index ``N`` of the next freelist slot. As in
Clight, every local variable lives in memory: a function entry
allocates one slot per parameter/local from the activation's freelist
``F`` (so local footprints are visible, and shrinking them is the
compiler's job).

Execution granularity is one statement per step; the footprint of a
step collects every load/store its expressions perform. Cross-module
calls emit ``CallMsg`` and suspend the core; ``after_external`` injects
the result, which a subsequent silent step writes to its destination
(the write is a memory effect and needs its own footprint).

Permission discipline: a client module aborts when touching the
object-owned region (``module.forbidden``), realizing the paper's
"permission None" partition.
"""

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
from repro.langs.minic import ast


class MFrame:
    """One internal activation: function, local slot map, continuation,
    and the caller's destination lvalue for this activation's result."""

    __slots__ = ("fname", "env", "kont", "ret_dst", "_hash")

    def __init__(self, fname, env, kont, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "kont", tuple(kont))
        object.__setattr__(self, "ret_dst", ret_dst)

    def __setattr__(self, name, value):
        raise AttributeError("MFrame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, MFrame)
            and self.fname == other.fname
            and self.env == other.env
            and self.kont == other.kont
            and self.ret_dst == other.ret_dst
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.fname, self.env, self.kont, self.ret_dst))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "MFrame({}, kont_len={})".format(
            self.fname, len(self.kont)
        )

    def with_kont(self, kont):
        return MFrame(self.fname, self.env, kont, self.ret_dst)


class MiniCCore:
    """A MiniC core: activation stack, next slot index, pending action."""

    __slots__ = ("frames", "nidx", "pending", "done", "_hash")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __setattr__(self, name, value):
        raise AttributeError("MiniCCore is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, MiniCCore)
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
        return "MiniCCore(depth={}, nidx={}, pending={!r})".format(
            len(self.frames), self.nidx, self.pending
        )


class _EvalAbort(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _check_access(module, addr):
    if addr in module.forbidden:
        raise _EvalAbort(
            "client accessed object-owned address {}".format(addr)
        )


def _load(module, mem, addr, rs):
    _check_access(module, addr)
    rs.add(addr)
    value = mem.load(addr)
    if value is None:
        raise _EvalAbort("load from unallocated {}".format(addr))
    return value


def _eval(module, frame, mem, expr, rs):
    if isinstance(expr, ast.IntLit):
        return VInt(expr.n)
    if isinstance(expr, ast.VarExpr):
        addr = _var_addr(module, frame, expr.name, expr.scope)
        return _load(module, mem, addr, rs)
    if isinstance(expr, ast.AddrOf):
        return VPtr(_var_addr(module, frame, expr.name, expr.scope))
    if isinstance(expr, ast.Deref):
        ptr = _eval(module, frame, mem, expr.arg, rs)
        if not isinstance(ptr, VPtr):
            raise _EvalAbort("dereference of non-pointer")
        return _load(module, mem, ptr.addr, rs)
    if isinstance(expr, ast.Unop):
        arg = _eval(module, frame, mem, expr.arg, rs)
        result = UNOPS[expr.op](arg)
        if result is VUndef:
            raise _EvalAbort("undefined unop result")
        return result
    if isinstance(expr, ast.Binop):
        left = _eval(module, frame, mem, expr.left, rs)
        right = _eval(module, frame, mem, expr.right, rs)
        result = BINOPS[expr.op](left, right)
        if result is VUndef:
            raise _EvalAbort(
                "undefined result of {!r}".format(expr.op)
            )
        return result
    raise SemanticsError("unknown MiniC expression {!r}".format(expr))


def _var_addr(module, frame, name, scope):
    if scope == "local":
        return frame.env[name]
    addr = module.symbols.get(name)
    if addr is None:
        raise _EvalAbort("unresolved global {!r}".format(name))
    return addr


def _flatten(stmt, rest):
    if isinstance(stmt, ast.SBlock):
        out = rest
        for s in reversed(stmt.stmts):
            out = _flatten(s, out)
        return out
    if isinstance(stmt, ast.SSkip):
        return rest
    return (stmt,) + rest


class MiniCLang(ModuleLanguage):
    """The MiniC module language (deterministic)."""

    name = "Clight"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != len(func.params):
            return MiniCCore(pending=("arity-abort",))
        return MiniCCore(pending=("enter", entry, tuple(args), None))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError(
                "after_external on a core that is not waiting"
            )
        dst = core.pending[1]
        return MiniCCore(
            core.frames, core.nidx, ("assign-result", dst, retval)
        )

    def step(self, module, core, mem, flist):
        if core.done:
            return []
        try:
            return self._step(module, core, mem, flist)
        except _EvalAbort as abort:
            return [StepAbort(reason=abort.reason)]

    # ----- pending actions -------------------------------------------------

    def _step(self, module, core, mem, flist):
        pending = core.pending
        if pending is not None:
            kind = pending[0]
            if kind == "arity-abort":
                return [StepAbort(reason="arity mismatch at module call")]
            if kind == "enter":
                return self._enter(module, core, mem, flist, *pending[1:])
            if kind == "assign-result":
                return self._assign_result(
                    module, core, mem, pending[1], pending[2]
                )
            if kind == "ext-wait":
                # Waiting for the environment: no local steps.
                return []
            raise SemanticsError("unknown pending {!r}".format(pending))
        if not core.frames:
            raise SemanticsError("MiniC core without frames")
        frame = core.frames[-1]
        if not frame.kont:
            # Implicit return at the end of the body.
            return self._return(module, core, mem, frame, VInt(0), set())
        return self._stmt_step(module, core, mem, flist, frame)

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        env = {}
        ws = set()
        nidx = core.nidx
        data_mem = mem
        values = {name: VUndef for name, _ty in func.locals_}
        for (name, _ty), value in zip(func.params, args):
            values[name] = value
        for name, _ty in func.locals_:
            addr = flist.addr_at(nidx)
            nidx += 1
            data_mem = data_mem.alloc(addr, values[name])
            if data_mem is None:
                raise SemanticsError("freelist slot already allocated")
            env[name] = addr
            ws.add(addr)
        frame = MFrame(
            fname, ImmutableMap(env), _flatten(func.body, ()), ret_dst
        )
        nxt = MiniCCore(core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, data_mem)]

    def _assign_result(self, module, core, mem, dst, value):
        frame = core.frames[-1] if core.frames else None
        nxt = MiniCCore(core.frames, core.nidx)
        if dst is None:
            return [Step(TAU, EMP, nxt, mem)]
        rs = set()
        addr = self._lhs_addr(module, frame, mem, dst, rs)
        mem2 = mem.store(addr, value)
        if mem2 is None:
            return [StepAbort(reason="store to unallocated")]
        return [Step(TAU, Footprint(rs, {addr}), nxt, mem2)]

    # ----- statements -------------------------------------------------------

    def _stmt_step(self, module, core, mem, flist, frame):
        stmt, rest = frame.kont[0], frame.kont[1:]
        advance = frame.with_kont(rest)

        if isinstance(stmt, ast.SSkip):
            return self._tau(core, advance, EMP, mem)

        if isinstance(stmt, ast.SDecl):
            if stmt.init is None:
                return self._tau(core, advance, EMP, mem)
            rs = set()
            value = _eval(module, frame, mem, stmt.init, rs)
            addr = frame.env[stmt.name]
            mem2 = mem.store(addr, value)
            if mem2 is None:
                return [StepAbort(reason="store to unallocated")]
            return self._tau(
                core, advance, Footprint(rs, {addr}), mem2
            )

        if isinstance(stmt, ast.SAssign):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            addr = self._lhs_addr(module, frame, mem, stmt.lhs, rs)
            mem2 = mem.store(addr, value)
            if mem2 is None:
                return [StepAbort(reason="store to unallocated")]
            return self._tau(
                core, advance, Footprint(rs, {addr}), mem2
            )

        if isinstance(stmt, ast.SCallStmt):
            return self._call(
                module, core, mem, flist, frame, advance, stmt
            )

        if isinstance(stmt, ast.SPrint):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = MiniCCore(
                core.frames[:-1] + (advance,), core.nidx
            )
            return [
                Step(
                    EventMsg("print", value.n),
                    Footprint(rs),
                    nxt,
                    mem,
                )
            ]

        if isinstance(stmt, ast.SIf):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            branch = stmt.then if taken else stmt.els
            nxt_frame = frame.with_kont(_flatten(branch, rest))
            return self._tau(core, nxt_frame, Footprint(rs), mem)

        if isinstance(stmt, ast.SWhile):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined loop condition")]
            if taken:
                kont = _flatten(stmt.body, (stmt,) + rest)
            else:
                kont = rest
            return self._tau(
                core, frame.with_kont(kont), Footprint(rs), mem
            )

        if isinstance(stmt, ast.SBlock):
            return self._tau(
                core, frame.with_kont(_flatten(stmt, rest)), EMP, mem
            )

        if isinstance(stmt, ast.SSpawn):
            nxt = MiniCCore(
                core.frames[:-1] + (advance,), core.nidx
            )
            return [Step(SpawnMsg(stmt.fname), EMP, nxt, mem)]

        if isinstance(stmt, ast.SReturn):
            rs = set()
            value = VInt(0)
            if stmt.expr is not None:
                value = _eval(module, frame, mem, stmt.expr, rs)
            popped_frame = frame.with_kont(rest)
            return self._return(
                module,
                MiniCCore(
                    core.frames[:-1] + (popped_frame,), core.nidx
                ),
                mem,
                popped_frame,
                value,
                rs,
            )

        raise SemanticsError("unknown MiniC statement {!r}".format(stmt))

    def _tau(self, core, frame, fp, mem):
        nxt = MiniCCore(core.frames[:-1] + (frame,), core.nidx)
        return [Step(TAU, fp, nxt, mem)]

    def _lhs_addr(self, module, frame, mem, lhs, rs):
        if isinstance(lhs, ast.LhsVar):
            addr = _var_addr(module, frame, lhs.name, lhs.scope)
        else:
            ptr = _eval(module, frame, mem, lhs.arg, rs)
            if not isinstance(ptr, VPtr):
                raise _EvalAbort("store through non-pointer")
            addr = ptr.addr
        _check_access(module, addr)
        return addr

    def _call(self, module, core, mem, flist, frame, advance, stmt):
        rs = set()
        args = tuple(
            _eval(module, frame, mem, a, rs) for a in stmt.call.args
        )
        frames = core.frames[:-1] + (advance,)
        if stmt.call.external:
            nxt = MiniCCore(
                frames, core.nidx, ("ext-wait", stmt.dst)
            )
            return [
                Step(
                    CallMsg(stmt.call.fname, args),
                    Footprint(rs),
                    nxt,
                    mem,
                )
            ]
        # Internal call: push a new activation (allocating its slots is
        # the callee-entry step, kept pending so allocation carries its
        # own footprint).
        nxt = MiniCCore(
            frames,
            core.nidx,
            ("enter", stmt.call.fname, args, stmt.dst),
        )
        return [Step(TAU, Footprint(rs), nxt, mem)]

    def _return(self, module, core, mem, frame, value, rs):
        if len(core.frames) > 1:
            dst = frame.ret_dst
            nxt = MiniCCore(
                core.frames[:-1],
                core.nidx,
                ("assign-result", dst, value),
            )
            return [Step(TAU, Footprint(rs), nxt, mem)]
        nxt = MiniCCore(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), Footprint(rs), nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


#: Shared language instance.
MINIC = MiniCLang()
