"""The module-local footprint-preserving downward simulation (Defs. 2, 3),
as an executable checker.

In Coq the simulation is *proved* once per compiler pass; here it is
*checked* per compiled module — translation validation. The checker
co-executes the source and target modules from related initial states
and discharges, at every non-silent message (the switch points of
Def. 3 case 2):

* message match — same event / same return value / same external call,
  modulo the address mapping ``µ.f``;
* scope — accumulated footprints lie inside ``F ∪ S`` on both sides
  (the ``HG`` side of case 2 and the in-scope conditions of case 1);
* ``FPmatch(µ, Δ, δ)`` on the *accumulated* segment footprints (the
  accumulation is what admits reorderings such as the ``y=2; x=1``
  swap of example (2.2));
* ``LG`` — target shared memory closed and ``Inv``-related to the
  source's;
* continuation under ``Rely`` — environment moves rewriting shared
  memory (consistently on both sides) between segments, and a small
  set of candidate return values for external calls.

Between messages both sides must be deterministic (the paper's
``det(tl)`` premise for flipping the simulation); the checker reports a
violation otherwise. Termination preservation is approximated by a
τ-step budget per segment (the well-founded index of Def. 3).

The ``lockstep`` flag implements the ABL-FP ablation: instead of the
accumulated FPmatch, it requires the per-step sequences of shared
footprints to match exactly — the stricter CompCertTSO-style criterion
that rejects legal reorderings.
"""

from repro import obs
from repro.common.footprint import EMP
from repro.common.values import VInt
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    CallMsg,
    EventMsg,
    RetMsg,
    SpawnMsg,
    is_silent,
)
from repro.lang.steps import Step, StepAbort
from repro.lang.wd import FLIST_EXTENT
from repro.simulation import rg


class SimulationStats:
    """Counted obligations — the raw material of the Fig. 13 table."""

    def __init__(self):
        self.segments = 0
        self.messages_matched = 0
        self.fpmatch_checks = 0
        self.scope_checks = 0
        self.lg_checks = 0
        self.rely_moves = 0
        self.ext_calls = 0
        self.src_steps = 0
        self.tgt_steps = 0
        self.vacuous_aborts = 0

    def merged(self, other):
        for field in vars(self):
            setattr(
                self, field, getattr(self, field) + getattr(other, field)
            )
        return self

    def as_dict(self):
        return dict(vars(self))


class SimulationReport:
    """Result of validating one module against its compilation."""

    def __init__(self):
        self.failures = []
        self.stats = SimulationStats()
        #: Segments served by the checker's memo rather than co-executed
        #: (not an obligation count: it depends on what ran before).
        self.memo_hits = 0

    @property
    def ok(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)

    def __repr__(self):
        return "SimulationReport(ok={}, failures={})".format(
            self.ok, len(self.failures)
        )


class _Segment:
    """Result of running one side to its next non-silent message."""

    __slots__ = ("kind", "msg", "core", "mem", "acc", "step_fps",
                 "steps", "reason")

    def __init__(self, kind, msg=None, core=None, mem=None, acc=EMP,
                 step_fps=(), steps=0, reason=""):
        self.kind = kind  # "msg" | "abort" | "stuck" | "nondet" | "budget"
        self.msg = msg
        self.core = core
        self.mem = mem
        self.acc = acc
        self.step_fps = tuple(step_fps)
        self.steps = steps
        self.reason = reason

    def carrying(self, carry):
        """This segment with ``carry`` folded into its accumulated
        footprint. Segments are memoized and shared, so a non-empty
        carry builds a new segment instead of mutating this one."""
        acc = self.acc.union(carry)
        if acc is self.acc:
            return self
        return _Segment(self.kind, self.msg, self.core, self.mem, acc,
                        self.step_fps, self.steps, self.reason)


def _run_to_message(lang, module, core, mem, flist, shared, max_tau):
    """Deterministically run to the next non-silent message.

    Pure — ``lang.step`` is (the :class:`ModuleLanguage` contract) — so
    the checker memoizes the returned segment; callers must not mutate
    it.
    """
    acc = EMP
    step_fps = []
    steps = 0
    while True:
        outs = lang.step(module, core, mem, flist)
        if not outs:
            return _Segment("stuck", core=core, mem=mem, acc=acc,
                            step_fps=step_fps, steps=steps)
        if len(outs) != 1:
            return _Segment(
                "nondet",
                reason="{} outcomes in {}".format(len(outs), lang.name),
            )
        out = outs[0]
        if isinstance(out, StepAbort):
            return _Segment("abort", reason=out.reason, acc=acc,
                            steps=steps)
        assert isinstance(out, Step)
        steps += 1
        acc = acc.union(out.fp)
        shared_part = out.fp.restricted(shared)
        if not shared_part.is_empty():
            step_fps.append(shared_part)
        if is_silent(out.msg):
            core, mem = out.core, out.mem
            if steps > max_tau:
                return _Segment(
                    "budget",
                    reason="{} exceeded {} silent steps".format(
                        lang.name, max_tau
                    ),
                )
            continue
        return _Segment(
            "msg",
            msg=out.msg,
            core=out.core,
            mem=out.mem,
            acc=acc,
            step_fps=step_fps,
            steps=steps,
        )


def _related_msg(mu, src_msg, tgt_msg):
    """Message match modulo the address mapping."""
    if isinstance(src_msg, EventMsg):
        return src_msg == tgt_msg
    if isinstance(src_msg, RetMsg):
        if not isinstance(tgt_msg, RetMsg):
            return False
        return mu.map_value(src_msg.value) == tgt_msg.value
    if isinstance(src_msg, CallMsg):
        if not isinstance(tgt_msg, CallMsg):
            return False
        if src_msg.fname != tgt_msg.fname:
            return False
        if len(src_msg.args) != len(tgt_msg.args):
            return False
        return all(
            mu.map_value(a) == b
            for a, b in zip(src_msg.args, tgt_msg.args)
        )
    if isinstance(src_msg, SpawnMsg):
        return src_msg == tgt_msg
    if src_msg in (ENT_ATOM, EXT_ATOM):
        return src_msg == tgt_msg
    return False


def _rely_variants(mu, src_mem, tgt_mem, limit):
    """Environment moves: rewrite shared cells consistently on both
    sides (always including the identity move)."""
    variants = [(src_mem, tgt_mem)]
    count = 0
    for addr in sorted(mu.src_shared):
        if count >= limit:
            break
        value = src_mem.load(addr)
        if not isinstance(value, VInt):
            continue
        mapped = mu.mapping[addr]
        new = VInt(value.n + 3)
        src2 = src_mem.store(addr, new)
        tgt2 = tgt_mem.store(mapped, new)
        if src2 is None or tgt2 is None:
            continue
        variants.append((src2, tgt2))
        count += 1
    return variants


class LocalSimulationChecker:
    """Checks ``(sl, ge, γ) ≼_φ (tl, ge', π)`` on concrete executions."""

    def __init__(self, src_lang, src_module, tgt_lang, tgt_module, mu,
                 max_tau=5000, max_segments=500, rely_limit=1,
                 rely_budget=64, ext_returns=(VInt(0), VInt(7)),
                 lockstep=False, roach_motel=False, memo=None):
        self.src_lang = src_lang
        self.src_module = src_module
        self.tgt_lang = tgt_lang
        self.tgt_module = tgt_module
        self.mu = mu
        self.max_tau = max_tau
        self.max_segments = max_segments
        self.rely_limit = rely_limit
        #: Total rely/return branchings per entry. Branching is
        #: exponential in the number of switch points along a path, so
        #: coverage is budgeted: once exhausted, co-execution continues
        #: along the identity environment only.
        self.rely_budget = rely_budget
        self.ext_returns = tuple(ext_returns)
        self.lockstep = lockstep
        #: Roach-motel mode (the paper's future-work reordering): keep
        #: the accumulated footprints alive across atomic boundaries,
        #: so accesses the target moves *into* an atomic block still
        #: match footprints the source produced before entering it.
        #: Footprints are still cleared at events, calls and returns —
        #: the points where effects become visible to the environment.
        self.roach_motel = roach_motel
        #: Segment memo: ``(id(lang), id(module), core, mem, flist,
        #: shared, max_tau)`` → the :class:`_Segment` that
        #: :func:`_run_to_message` returns for it. Checkers of one
        #: validation may share one dict (stage *k* is the target of
        #: pass *k* and the source of pass *k+1*); keys hold module ids,
        #: so a memo must not outlive the modules it was filled from.
        self.memo = {} if memo is None else memo

    def check_entry(self, entry, args, src_mem, tgt_mem, src_flist,
                    tgt_flist, report=None):
        """Validate one entry point from one pair of initial memories."""
        report = report or SimulationReport()
        if not obs.enabled:
            return self._check_entry(
                entry, args, src_mem, tgt_mem, src_flist, tgt_flist,
                report,
            )
        seg0 = report.stats.segments
        fail0 = len(report.failures)
        with obs.span(
            "simulate.entry",
            entry=entry,
            src=self.src_lang.name,
            tgt=self.tgt_lang.name,
        ) as sp:
            self._check_entry(
                entry, args, src_mem, tgt_mem, src_flist, tgt_flist,
                report,
            )
            sp.set(
                segments=report.stats.segments - seg0,
                failures=len(report.failures) - fail0,
            )
        return report

    def _check_entry(self, entry, args, src_mem, tgt_mem, src_flist,
                     tgt_flist, report):
        mu = self.mu
        if not mu.well_formed():
            report.fail("µ is not well-formed")
            return report
        if not rg.inv(mu, src_mem, tgt_mem):
            report.fail("initial memories not Inv-related")
            return report

        src_core = self.src_lang.init_core(
            self.src_module, entry, args
        )
        mapped_args = tuple(mu.map_value(a) for a in args)
        tgt_core = self.tgt_lang.init_core(
            self.tgt_module, entry, mapped_args
        )
        if src_core is None or tgt_core is None:
            report.fail(
                "entry {!r} missing on one side".format(entry)
            )
            return report

        src_fl = src_flist.addresses(FLIST_EXTENT)
        tgt_fl = tgt_flist.addresses(FLIST_EXTENT)

        self._branch_budget = self.rely_budget
        stack = [(src_core, src_mem, tgt_core, tgt_mem, EMP, EMP, 0)]
        while stack:
            (s_core, s_mem, t_core, t_mem, s_carry, t_carry,
             depth) = stack.pop()
            if depth > self.max_segments:
                report.fail("segment budget exceeded")
                continue
            report.stats.segments += 1
            src_seg = self._segment(
                report, self.src_lang, self.src_module, s_core, s_mem,
                src_flist, mu.src_shared,
            )
            if src_seg.kind == "abort":
                # Source undefined behaviour: obligation vacuous.
                report.stats.vacuous_aborts += 1
                continue
            if src_seg.kind != "msg":
                report.fail(
                    "source segment {}: {}".format(
                        src_seg.kind, src_seg.reason
                    )
                )
                continue
            tgt_seg = self._segment(
                report, self.tgt_lang, self.tgt_module, t_core, t_mem,
                tgt_flist, mu.tgt_shared,
            )
            if tgt_seg.kind != "msg":
                report.fail(
                    "target segment {} (source had {!r}): {}".format(
                        tgt_seg.kind, src_seg.msg, tgt_seg.reason
                    )
                )
                continue
            report.stats.src_steps += src_seg.steps
            report.stats.tgt_steps += tgt_seg.steps
            src_seg = src_seg.carrying(s_carry)
            tgt_seg = tgt_seg.carrying(t_carry)

            if not self._check_obligations(report, src_seg, tgt_seg,
                                           src_fl, tgt_fl):
                continue
            self._continue(report, stack, src_seg, tgt_seg, depth)
        return report

    def _segment(self, report, lang, module, core, mem, flist, shared):
        """:func:`_run_to_message`, through the segment memo."""
        key = (id(lang), id(module), core, mem, flist, shared,
               self.max_tau)
        seg = self.memo.get(key)
        if seg is None:
            seg = _run_to_message(lang, module, core, mem, flist, shared,
                                  self.max_tau)
            self.memo[key] = seg
            if obs.enabled:
                obs.inc("validate.segment_memo.misses")
        else:
            report.memo_hits += 1
            if obs.enabled:
                obs.inc("validate.segment_memo.hits")
        return seg

    # ----- obligations ----------------------------------------------------

    def _check_obligations(self, report, src_seg, tgt_seg, src_fl,
                           tgt_fl):
        mu = self.mu
        ok = True
        if not _related_msg(mu, src_seg.msg, tgt_seg.msg):
            report.fail(
                "message mismatch: {!r} vs {!r}".format(
                    src_seg.msg, tgt_seg.msg
                )
            )
            ok = False
        report.stats.messages_matched += 1

        report.stats.scope_checks += 1
        if not rg.hg(src_seg.acc, src_seg.mem, src_fl, mu.src_shared):
            report.fail(
                "HG violated at {!r} (Δ={!r})".format(
                    src_seg.msg, src_seg.acc
                )
            )
            ok = False

        if self.lockstep:
            report.stats.fpmatch_checks += 1
            if src_seg.step_fps != tgt_seg.step_fps:
                report.fail(
                    "lockstep footprint sequences differ at {!r}".format(
                        src_seg.msg
                    )
                )
                ok = False
        else:
            report.stats.fpmatch_checks += 1
            if not rg.fp_match(mu, src_seg.acc, tgt_seg.acc):
                report.fail(
                    "FPmatch violated at {!r}: Δ={!r} δ={!r}".format(
                        src_seg.msg, src_seg.acc, tgt_seg.acc
                    )
                )
                ok = False

        if self.roach_motel and src_seg.msg is ENT_ATOM:
            # Roach-motel mode (acquire side): accesses may be moved
            # forward *into* an atomic block, so the memories need not
            # match at its entry — the deferred LG is enforced at the
            # block's exit, where the moved effects must have landed.
            # (Release-side motion, out of the block, stays rejected:
            # full LG applies at ExtAtom.)
            return ok
        report.stats.lg_checks += 1
        if not rg.lg(mu, tgt_seg.acc, tgt_seg.mem, tgt_fl,
                     src_seg.acc, src_seg.mem):
            report.fail(
                "LG violated at {!r}".format(src_seg.msg)
            )
            ok = False
        return ok

    # ----- continuations ----------------------------------------------------

    def _continue(self, report, stack, src_seg, tgt_seg, depth):
        msg = src_seg.msg
        if isinstance(msg, RetMsg):
            return
        if isinstance(msg, CallMsg):
            report.stats.ext_calls += 1
            returns = self.ext_returns
            if self._branch_budget <= 0:
                returns = returns[:1]
            else:
                self._branch_budget -= 1
            for retval in returns:
                mapped = self.mu.map_value(retval)
                s_core = self.src_lang.after_external(
                    src_seg.core, retval
                )
                t_core = self.tgt_lang.after_external(
                    tgt_seg.core, mapped
                )
                for s_mem, t_mem in self._relys(src_seg.mem,
                                                tgt_seg.mem, report):
                    stack.append(
                        (s_core, s_mem, t_core, t_mem, EMP, EMP,
                         depth + 1)
                    )
            return
        # Events and atomic boundaries: switch points — continue under
        # environment interference. In roach-motel mode the footprints
        # stay accumulated across atomic boundaries (and no rely move
        # intervenes there: the reordering is only sound because the
        # block boundary is not an interference point for the moved
        # accesses).
        carry_here = self.roach_motel and msg is ENT_ATOM
        if carry_here:
            stack.append(
                (src_seg.core, src_seg.mem, tgt_seg.core,
                 tgt_seg.mem, src_seg.acc, tgt_seg.acc, depth + 1)
            )
            return
        for s_mem, t_mem in self._relys(src_seg.mem, tgt_seg.mem,
                                        report):
            stack.append(
                (src_seg.core, s_mem, tgt_seg.core, t_mem, EMP, EMP,
                 depth + 1)
            )

    def _relys(self, src_mem, tgt_mem, report):
        if self._branch_budget <= 0:
            return [(src_mem, tgt_mem)]
        variants = _rely_variants(
            self.mu, src_mem, tgt_mem, self.rely_limit
        )
        self._branch_budget -= len(variants) - 1
        report.stats.rely_moves += len(variants) - 1
        return variants
