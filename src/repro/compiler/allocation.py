"""Pass 7 — Allocation: RTL → LTL register allocation.

Three stages, mirroring the structure (not the sophistication) of
CompCert's allocator:

1. **Liveness** — backward dataflow worklist solver over the CFG.
2. **Assignment** — virtual registers live across a call are assigned
   stack slots (calls clobber every machine register under our
   convention); the rest are greedily colored with the ``POOL``
   registers against the interference graph, spilling the remainder.
3. **Spill-code emission** — each RTL instruction expands to a short
   LTL sequence that reloads slot operands into per-instruction
   ``SCRATCH`` registers and stores slot results back, maintaining the
   Stacking invariant: *computing* instructions touch machine registers
   only; slots appear only in ``move``s.

Calling convention: argument moves into ``ARG_REGS`` precede calls
(sources are never argument registers — the pool and the argument set
are disjoint — so the moves cannot clobber each other), results flow
from ``RET_REG``.
"""

from repro.common.errors import CompileError
from repro.langs.ir import ltl, rtl
from repro.langs.x86.regs import ARG_REGS, POOL, RET_REG, SCRATCH, slot


def _uses(instr):
    if isinstance(instr, rtl.Iop):
        return set(instr.args)
    if isinstance(instr, rtl.Iload):
        return {instr.addr}
    if isinstance(instr, rtl.Istore):
        return {instr.addr, instr.src}
    if isinstance(instr, (rtl.Icall, rtl.Itailcall)):
        return set(instr.args)
    if isinstance(instr, rtl.Icond):
        return set(instr.args)
    if isinstance(instr, rtl.Ireturn):
        return set() if instr.src is None else {instr.src}
    if isinstance(instr, rtl.Iprint):
        return {instr.src}
    return set()


def _defs(instr):
    if isinstance(
        instr, (rtl.Iconst, rtl.Iaddrglobal, rtl.Iaddrstack, rtl.Iop,
                rtl.Iload)
    ):
        return {instr.dst}
    if isinstance(instr, rtl.Icall) and instr.dst is not None:
        return {instr.dst}
    return set()


def _successors(instr):
    if isinstance(instr, rtl.Icond):
        return (instr.iftrue, instr.iffalse)
    if isinstance(instr, (rtl.Ireturn, rtl.Itailcall)):
        return ()
    return (instr.next,)


def liveness(func):
    """``(pc -> live_in, pc -> live_out)``: the least solution of the
    backward liveness equations.

    A worklist solver in the style of CompCert's backward Kildall:
    use/def sets and predecessor lists are computed once per pc, every
    pc starts on the worklist, and a pc's predecessors are re-queued
    only when its ``live_in`` grows. The worklist is a stack seeded in
    code order, so the last pc is solved first.
    """
    code = func.code
    uses = {}
    defs = {}
    succs = {}
    preds = {pc: [] for pc in code}
    for pc, instr in code.items():
        uses[pc] = _uses(instr)
        defs[pc] = _defs(instr)
        succs[pc] = targets = _successors(instr)
        for succ in targets:
            preds[succ].append(pc)
    live_in = {pc: set() for pc in code}
    live_out = dict.fromkeys(code)
    work = list(code)
    queued = set(work)
    while work:
        pc = work.pop()
        queued.discard(pc)
        out = set()
        for succ in succs[pc]:
            out |= live_in[succ]
        live_out[pc] = out
        inn = uses[pc] | (out - defs[pc])
        if inn != live_in[pc]:
            live_in[pc] = inn
            for pred in preds[pc]:
                if pred not in queued:
                    queued.add(pred)
                    work.append(pred)
    return live_in, live_out


def assign_locations(func):
    """Map each virtual register to a machine register or a slot."""
    live_in, live_out = liveness(func)

    vregs = set(func.params)
    for instr in func.code.values():
        vregs |= _uses(instr) | _defs(instr)

    # Values live across a call must survive total clobbering.
    must_spill = set()
    for pc, instr in func.code.items():
        if isinstance(instr, rtl.Icall):
            across = set(live_out[pc])
            across.discard(instr.dst)
            must_spill |= across

    # Interference: defs against simultaneously-live registers.
    interference = {v: set() for v in vregs}
    for pc, instr in func.code.items():
        for d in _defs(instr):
            for other in live_out[pc]:
                if other != d:
                    interference[d].add(other)
                    interference[other].add(d)
    # Parameters are all live simultaneously at entry.
    for p in func.params:
        for q in func.params:
            if p != q:
                interference[p].add(q)

    locs = {}
    next_slot = 0
    for v in sorted(vregs):
        if v in must_spill:
            locs[v] = slot(next_slot)
            next_slot += 1
    for v in sorted(vregs):
        if v in locs:
            continue
        taken = {
            locs[u] for u in interference[v] if u in locs
        }
        choice = None
        for reg in POOL:
            if reg not in taken:
                choice = reg
                break
        if choice is None:
            choice = slot(next_slot)
            next_slot += 1
        locs[v] = choice
    return locs, next_slot


class _Emitter:
    def __init__(self, func, locs, numslots):
        self.func = func
        self.locs = locs
        self.numslots = numslots
        self.code = {}
        self._next = (max(func.code) + 1) if func.code else 0

    def fresh(self):
        pc = self._next
        self._next += 1
        return pc

    def reload(self, vreg, scratch_index, steps):
        """Arrange for ``vreg``'s value to be in a machine register.

        Appends a reload move to ``steps`` when it lives in a slot;
        returns the register holding the value."""
        loc = self.locs[vreg]
        if isinstance(loc, str):
            return loc
        scratch = SCRATCH[scratch_index]
        steps.append(
            lambda succ, l=loc, s=scratch: ltl.Lop(
                "move", (l,), s, succ
            )
        )
        return scratch

    def result(self, vreg, steps, compute):
        """Emit ``compute(target_reg)`` plus a spill move if needed."""
        loc = self.locs[vreg]
        if isinstance(loc, str):
            steps.append(lambda succ, r=loc: compute(r, succ))
            return
        scratch = SCRATCH[0]
        steps.append(lambda succ, r=scratch: compute(r, succ))
        steps.append(
            lambda succ, l=loc, s=scratch: ltl.Lop(
                "move", (s,), l, succ
            )
        )

    def expand(self, pc, instr):
        steps = []
        final_next = None

        if isinstance(instr, rtl.Inop):
            steps.append(lambda succ: ltl.Lnop(succ))
            final_next = instr.next

        elif isinstance(instr, rtl.Iconst):
            self.result(
                instr.dst,
                steps,
                lambda r, succ, n=instr.n: ltl.Lconst(n, r, succ),
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Iaddrglobal):
            self.result(
                instr.dst,
                steps,
                lambda r, succ, n=instr.name: ltl.Laddrglobal(n, r, succ),
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Iaddrstack):
            self.result(
                instr.dst,
                steps,
                lambda r, succ, o=instr.ofs: ltl.Laddrstack(o, r, succ),
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Iop) and instr.op == "move":
            src_loc = self.locs[instr.args[0]]
            dst_loc = self.locs[instr.dst]
            if isinstance(src_loc, str) or isinstance(dst_loc, str):
                steps.append(
                    lambda succ: ltl.Lop("move", (src_loc,), dst_loc, succ)
                )
            else:
                scratch = SCRATCH[0]
                steps.append(
                    lambda succ: ltl.Lop("move", (src_loc,), scratch, succ)
                )
                steps.append(
                    lambda succ: ltl.Lop("move", (scratch,), dst_loc, succ)
                )
            final_next = instr.next

        elif isinstance(instr, rtl.Iop):
            regs = [
                self.reload(arg, i, steps)
                for i, arg in enumerate(instr.args)
            ]
            self.result(
                instr.dst,
                steps,
                lambda r, succ, op=instr.op, a=tuple(regs): ltl.Lop(
                    op, a, r, succ
                ),
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Iload):
            addr = self.reload(instr.addr, 1, steps)
            self.result(
                instr.dst,
                steps,
                lambda r, succ, a=addr: ltl.Lload(a, r, succ),
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Istore):
            addr = self.reload(instr.addr, 1, steps)
            src = self.reload(instr.src, 2, steps)
            steps.append(
                lambda succ: ltl.Lstore(addr, src, succ)
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Icall):
            for i, arg in enumerate(instr.args):
                loc = self.locs[arg]
                steps.append(
                    lambda succ, l=loc, d=ARG_REGS[i]: ltl.Lop(
                        "move", (l,), d, succ
                    )
                )
            steps.append(
                lambda succ, f=instr.fname, n=len(instr.args),
                ext=instr.external: ltl.Lcall(f, n, succ, ext)
            )
            if instr.dst is not None:
                dst_loc = self.locs[instr.dst]
                steps.append(
                    lambda succ, l=dst_loc: ltl.Lop(
                        "move", (RET_REG,), l, succ
                    )
                )
            final_next = instr.next

        elif isinstance(instr, rtl.Itailcall):
            for i, arg in enumerate(instr.args):
                loc = self.locs[arg]
                steps.append(
                    lambda succ, l=loc, d=ARG_REGS[i]: ltl.Lop(
                        "move", (l,), d, succ
                    )
                )
            steps.append(
                lambda succ, f=instr.fname, n=len(instr.args):
                ltl.Ltailcall(f, n)
            )
            final_next = None

        elif isinstance(instr, rtl.Icond):
            regs = [
                self.reload(arg, i, steps)
                for i, arg in enumerate(instr.args)
            ]
            steps.append(
                lambda succ, op=instr.op, a=tuple(regs): ltl.Lcond(
                    op, a, instr.iftrue, instr.iffalse
                )
            )
            final_next = None

        elif isinstance(instr, rtl.Ireturn):
            if instr.src is None:
                steps.append(
                    lambda succ: ltl.Lconst(0, RET_REG, succ)
                )
            else:
                loc = self.locs[instr.src]
                steps.append(
                    lambda succ, l=loc: ltl.Lop(
                        "move", (l,), RET_REG, succ
                    )
                )
            steps.append(lambda succ: ltl.Lreturn())
            final_next = None

        elif isinstance(instr, rtl.Ispawn):
            steps.append(
                lambda succ, f=instr.fname: ltl.Lspawn(f, succ)
            )
            final_next = instr.next

        elif isinstance(instr, rtl.Iprint):
            src = self.reload(instr.src, 0, steps)
            steps.append(lambda succ, s=src: ltl.Lprint(s, succ))
            final_next = instr.next

        else:
            raise CompileError(
                "cannot allocate instruction {!r}".format(instr)
            )

        # Chain the steps; the last one's successor is final_next (or
        # irrelevant for terminators).
        pcs = [pc] + [self.fresh() for _ in steps[1:]]
        for i, build in enumerate(steps):
            succ = pcs[i + 1] if i + 1 < len(pcs) else final_next
            self.code[pcs[i]] = build(succ)

    def translate(self):
        for pc, instr in self.func.code.items():
            self.expand(pc, instr)
        # Entry moves: incoming arguments into their assigned locations.
        entry = self.func.entry
        for i, param in enumerate(self.func.params):
            loc = self.locs[param]
            move_pc = self.fresh()
            self.code[move_pc] = ltl.Lop(
                "move", (ARG_REGS[i],), loc, entry
            )
            entry = move_pc
        return ltl.LTLFunction(
            self.func.name,
            len(self.func.params),
            self.func.stacksize,
            self.numslots,
            entry,
            self.code,
        )


def allocation(module):
    """Translate an RTL module to LTL."""
    functions = {}
    for name, func in module.functions.items():
        if len(func.params) > len(ARG_REGS):
            raise CompileError(
                "{} has more than {} parameters".format(
                    name, len(ARG_REGS)
                )
            )
        locs, numslots = assign_locations(func)
        functions[name] = _Emitter(func, locs, numslots).translate()
    return module.with_functions(functions)
