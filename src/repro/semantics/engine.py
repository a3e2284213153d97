"""Shared machinery of the two global semantics.

Both the preemptive and the non-preemptive semantics execute the current
thread's top activation and process the resulting message the same way
(Fig. 7's ``τ``-step / EntAt / ExtAt rules, plus the call/return
protocol of the interaction semantics). They differ only in *where
context switches may occur*, which each semantics module adds on top.

A global step outcome is a :class:`GStep` (label + successor world) or
:class:`GAbort`. Labels:

* ``None`` — silent (τ, internal call/return, thread termination);
* an :class:`~repro.lang.messages.EventMsg` — observable event;
* ``"sw"`` — a context switch (visible in ``=⇒*`` but not in traces).
"""

from repro import obs
from repro.common.errors import SemanticsError
from repro.lang import closure as _closure
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    CallMsg,
    EventMsg,
    RetMsg,
    SpawnMsg,
    is_silent,
)
from repro.lang.steps import StepAbort
from repro.semantics.world import Frame

#: Context-switch label.
SW = "sw"


def label_kind(label):
    """The schedule-artifact classification of a global-step label.

    The witness subsystem records and replays edges by this kind tag:
    ``"tau"`` (silent, including internal call/return and atomic
    boundaries), ``"sw"`` (a pure context switch), ``"event"`` (an
    observable event — non-preemptively this may also carry a bundled
    switch, visible as a changed current thread), or the stringified
    label otherwise (the explorer's ``"abort"`` pseudo-label).
    """
    if label is None:
        return "tau"
    if label == SW:
        return "sw"
    if isinstance(label, EventMsg):
        return "event"
    return str(label)


class GStep:
    """A successful global step: label, footprint, successor world.

    Ephemeral (consumed by the explorer, never stored in graphs or
    hashed), so unlike worlds it skips immutability enforcement — it is
    constructed once per candidate edge on the hottest path.
    """

    __slots__ = ("label", "fp", "world")

    def __init__(self, label, fp, world):
        self.label = label
        self.fp = fp
        self.world = world

    def __repr__(self):
        return "GStep(label={!r})".format(self.label)


class GAbort:
    """The global abort outcome."""

    __slots__ = ("reason",)

    def __init__(self, reason=""):
        object.__setattr__(self, "reason", reason)

    def __setattr__(self, name, value):
        raise AttributeError("GAbort is immutable")

    def __repr__(self):
        return "GAbort({!r})".format(self.reason)


class SyncPoint:
    """A successor that the calling semantics may add switches to.

    ``kind`` records which message produced it (``"ent"``, ``"ext"``,
    ``"event"``, ``"term"``) so the non-preemptive semantics can decide
    which of its switch rules applies.
    """

    __slots__ = ("kind", "label", "fp", "world")

    def __init__(self, kind, label, fp, world):
        self.kind = kind
        self.label = label
        self.fp = fp
        self.world = world


#: Successor-template entry kinds (see ``_build_template``). Small
#: ints, matched with ``==`` in the assembly loop.
_T_TAU = 0
_T_ENT = 1
_T_EXT = 2
_T_EVENT = 3
_T_RET = 4
_T_CALL = 5
_T_SPAWN = 6
_T_ABORT = 7

#: Bound on each context's (frame, mem) → template table and its
#: (caller, retval) → resumed-frame table; each is cleared and rebuilt
#: on overflow, like the intern tables.
TEMPLATE_MAX = 1 << 19


def thread_successors(ctx, world):
    """Execute one step of the current thread; no scheduling decisions.

    Returns a list of :class:`GStep` / :class:`GAbort` /
    :class:`SyncPoint`. SyncPoints are steps at which the non-preemptive
    semantics switches; the preemptive semantics converts them to plain
    GSteps (it has its own free Switch rule instead).
    """
    return thread_expansion(ctx, world)[1] or []


def thread_expansion(ctx, world):
    """Step the current thread: ``(raw outcomes, global results)``.

    The one-call expansion both exploration drivers use. Returns
    ``(None, None)`` when the current thread has terminated.

    The local step goes through the step-outcome memo
    (:mod:`repro.lang.closure`) and the message processing through a
    **successor template** cached per ``(frame, mem)`` on the context:
    everything world-independent — the stepped frame, the successor
    memory, footprints, ent/ext purity validation — is computed once,
    and per-world assembly only splices in what actually depends on
    the world (atomic-bit checks, freelists, stack pops, thread
    creation). Both caches key on immutable interned values, so equal
    states hit regardless of the path that produced them.
    """
    frame = world.top_frame()
    if frame is None:
        return None, None
    cache = ctx.succ_templates
    key = (frame, world.mem)
    entry = cache.get(key)
    if entry is None:
        decl = ctx.module(frame.mod_idx)
        outcomes = _closure.step_outcomes(
            decl, frame.core, world.mem, frame.flist
        )
        entry = (outcomes, _build_template(frame, world.mem, outcomes))
        if len(cache) >= TEMPLATE_MAX:
            cache.clear()
        cache[key] = entry
    outcomes, template = entry
    # Fast path: the overwhelmingly common deterministic silent step
    # (one τ entry) skips the assembly loop.
    if len(template) == 1 and template[0][0] == _T_TAU:
        e = template[0]
        results = [GStep(None, e[1], world.replace_top(e[2], mem=e[3]))]
    else:
        results = _assemble(ctx, world, template)
    if obs.enabled:
        obs.inc("engine.expansions")
        obs.inc("engine.outcomes", len(results))
        for r in results:
            if isinstance(r, GAbort):
                obs.inc("engine.aborts")
    return outcomes, results


def _build_template(frame, mem, outcomes):
    """Precompile one step's outcomes into world-independent entries.

    Each entry is a small tuple headed by a ``_T_*`` kind; the
    world-dependent residue (bit checks, freelist allocation, caller
    resumption) is left to :func:`_assemble`. Purity violations of the
    atomic boundary messages (Fig. 7 EntAt/ExtAt) are world-independent,
    so they surface here, at the first expansion that reaches the step.
    """
    entries = []
    for step in outcomes:
        if isinstance(step, StepAbort):
            entries.append((_T_ABORT, step.reason))
            continue
        msg = step.msg
        nframe = frame.with_core(step.core)
        if is_silent(msg):
            entries.append((_T_TAU, step.fp, nframe, step.mem))
        elif msg is ENT_ATOM:
            if not step.fp.is_empty() or step.mem != mem:
                raise SemanticsError("EntAtom must be pure (Fig. 7 EntAt)")
            entries.append((_T_ENT, step.fp, nframe))
        elif msg is EXT_ATOM:
            if not step.fp.is_empty() or step.mem != mem:
                raise SemanticsError("ExtAtom must be pure (Fig. 7 ExtAt)")
            entries.append((_T_EXT, step.fp, nframe))
        elif isinstance(msg, EventMsg):
            entries.append((_T_EVENT, msg, step.fp, nframe, step.mem))
        elif isinstance(msg, RetMsg):
            entries.append((_T_RET, step.fp, nframe, step.mem, msg.value))
        elif isinstance(msg, CallMsg):
            entries.append(
                (_T_CALL, step.fp, nframe, step.mem, msg.fname, msg.args)
            )
        elif isinstance(msg, SpawnMsg):
            entries.append((_T_SPAWN, step.fp, nframe, step.mem, msg.fname))
        else:
            raise SemanticsError("unknown message {!r}".format(msg))
    return entries


def _assemble(ctx, world, template):
    """Instantiate a successor template at one world."""
    results = []
    append = results.append
    cur = world.cur
    for entry in template:
        kind = entry[0]
        if kind == _T_TAU:
            append(GStep(
                None, entry[1], world.replace_top(entry[2], mem=entry[3])
            ))
        elif kind == _T_RET:
            _, fp, nframe, nmem, value = entry
            popped = world.replace_top(nframe, mem=nmem).pop_frame()
            if popped.threads[cur]:
                caller = popped.top_frame()
                rcache = ctx.resume_cache
                rkey = (caller, value)
                resumed = rcache.get(rkey)
                if resumed is None:
                    caller_decl = ctx.module(caller.mod_idx)
                    resumed = caller.with_core(
                        caller_decl.lang.after_external(caller.core, value)
                    )
                    if len(rcache) >= TEMPLATE_MAX:
                        rcache.clear()
                    rcache[rkey] = resumed
                append(GStep(None, fp, popped.replace_top(resumed)))
            else:
                append(SyncPoint("term", None, fp, popped))
        elif kind == _T_CALL:
            _, fp, nframe, nmem, fname, args = entry
            resolved = ctx.resolve(fname, args)
            if resolved is None:
                append(GAbort("unresolved external {!r}".format(fname)))
            else:
                mod_idx, core = resolved
                callee = Frame.make(mod_idx, ctx.next_flist(world), core)
                append(GStep(
                    None, fp,
                    world.replace_top(nframe, mem=nmem).push_frame(callee),
                ))
        elif kind == _T_EVENT:
            _, msg, fp, nframe, nmem = entry
            append(SyncPoint(
                "event", msg, fp, world.replace_top(nframe, mem=nmem)
            ))
        elif kind == _T_ENT:
            if world.bits[cur] != 0:
                raise SemanticsError("nested atomic block")
            append(SyncPoint(
                "ent", None, entry[1],
                world.replace_top(entry[2], bit=1),
            ))
        elif kind == _T_EXT:
            if world.bits[cur] != 1:
                raise SemanticsError("ExtAtom outside an atomic block")
            append(SyncPoint(
                "ext", None, entry[1],
                world.replace_top(entry[2], bit=0),
            ))
        elif kind == _T_SPAWN:
            _, fp, nframe, nmem, fname = entry
            resolved = ctx.resolve(fname, ())
            if resolved is None:
                append(GAbort("spawn of unresolved {!r}".format(fname)))
            else:
                mod_idx, core = resolved
                # The new thread gets a fresh, disjoint freelist — the
                # paper's requirement for the spawn step.
                child = Frame.make(mod_idx, ctx.spawn_flist(world), core)
                append(SyncPoint(
                    "spawn", None, fp,
                    world.replace_top(nframe, mem=nmem).add_thread(child),
                ))
        else:  # _T_ABORT
            append(GAbort(entry[1]))
    return results


def switch_targets(world, include_self):
    """Live threads the scheduler may switch to."""
    live = world.live_threads()
    if include_self:
        return live
    return [t for t in live if t != world.cur]
