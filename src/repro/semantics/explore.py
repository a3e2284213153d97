"""Bounded exploration of global state spaces, and event-trace behaviours.

The paper's whole-program properties (refinement ``⊑``, equivalence
``≈``, DRF) quantify over all executions. For the finite-state programs
of our suite we *compute* the execution space:

1. :func:`explore` builds the reachable world graph under a given global
   semantics (preemptive or non-preemptive), with edges labelled by
   events / silent / switch;
2. :func:`behaviours` extracts the set of observable behaviours: event
   traces ending in ``done`` (all threads terminated), ``abort``
   (undefined behaviour reached), ``silent_div`` (an infinite silent
   execution that keeps making thread steps exists), or ``cut`` (the
   exploration or trace-length bound was hit — comparisons treat any
   ``cut`` as inconclusive rather than silently passing).

With ``reduce=True``, preemptive exploration applies the
footprint-directed partial-order reduction of
:mod:`repro.semantics.por`: worlds whose current thread's next steps
are private silent steps expand only that thread, with the DFS cycle
proviso forcing full expansions on cycles so divergence detection and
behaviour extraction stay exact. ``explore`` keeps ``reduce=False`` as
its default so existing graph consumers always see the full graph; the
whole-program property entry points (:func:`program_behaviours`,
``drf``/``npdrf``) default to the ``REPRO_POR`` environment setting.

Pure scheduler livelock (a cycle of switch edges with no thread
progress) exists in every multi-threaded world under both semantics; it
is not reported as divergence, so that ``silent_div`` marks *program*
divergence (e.g. a spin loop that can spin forever).

Both :func:`explore` and :func:`behaviours` run with Python's cyclic
garbage collector paused (:func:`gc_paused`). Building a graph
allocates hundreds of thousands of long-lived containers, and every
allocation threshold crossed would otherwise rescan the growing heap,
yet the graph contains no reference cycles: worlds, frames, cores and
memories are immutable and refer only to older objects, and edge lists
hold state ids and labels, so reference counting alone frees them.
``tests/semantics/test_gc_pause.py`` pins that argument: after
exploring and enumerating, ``gc.collect()`` finds nothing to free.
"""

import gc
from collections import deque
from contextlib import contextmanager
from itertools import compress

from repro import obs
from repro.common import intern
from repro.common.memory import STATS as MEM_STATS
from repro.lang.messages import EventMsg
from repro.obs import heap as _heap
from repro.obs import status as _status
from repro.semantics.engine import SW, GAbort
from repro.semantics.por import AmpleReducer, default_reduce

#: States expanded between heartbeat clock checks. The heartbeat's own
#: time gate decides whether to write; the stride just keeps the
#: monotonic-clock read off the per-state path (one int decrement and
#: compare per state when a writer is active, nothing when not).
_HB_STRIDE = 64


class ExplorationLimit(Exception):
    """Raised when a state-space bound is exceeded and strict=True."""


class Behaviour:
    """One observable behaviour: an event trace plus how it ends."""

    __slots__ = ("events", "end")

    DONE = "done"
    ABORT = "abort"
    SILENT_DIV = "silent_div"
    CUT = "cut"

    def __init__(self, events, end):
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "end", end)

    def __setattr__(self, name, value):
        raise AttributeError("Behaviour is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Behaviour)
            and self.events == other.events
            and self.end == other.end
        )

    def __hash__(self):
        return hash((self.events, self.end))

    def __repr__(self):
        evs = ",".join(
            "{}:{!r}".format(e.kind, e.value) for e in self.events
        )
        return "Behaviour([{}], {})".format(evs, self.end)


class StateGraph:
    """The explored world graph.

    ``states``: world list (ids are indices); ``edges[sid]``: list of
    ``(label, dst)`` with ``dst = -1`` for abort; ``done``: ids of
    fully-terminated worlds; ``stuck``: ids of non-terminated worlds
    with no successors (a semantics bug surfaced loudly);
    ``truncated``: ids whose successors were cut off by the state bound;
    ``halted``: an observer stopped the exploration early (the graph is
    a prefix, not the full reachable set), with ``halted_sid`` the id of
    the world the observer halted at — the witness-capture machinery's
    entry point into the graph (:mod:`repro.semantics.witness`).
    """

    def __init__(self):
        self.states = []
        self.ids = {}
        self.edges = {}
        self.initial = []
        self.done = set()
        self.stuck = set()
        self.truncated = set()
        self.halted = False
        self.halted_sid = None

    def state_count(self):
        return len(self.states)

    def add(self, world):
        """Intern a world known to be absent; the single append path.

        Both exploration loops go through this method (bound to a local
        in the hot loops), so the id table and state list can never
        drift apart between expansion sites.
        """
        sid = len(self.states)
        self.states.append(world)
        self.ids[world] = sid
        return sid

    def intern(self, world):
        sid = self.ids.get(world)
        if sid is None:
            sid = self.add(world)
        return sid


ABORT_DST = -1


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the body, then restore it.

    Nesting-safe: only the outermost pause re-enables the collector, and
    a caller that had already disabled it finds it still disabled.
    Reference counting keeps freeing acyclic garbage meanwhile.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def explore(ctx, semantics, max_states=50000, strict=False, reduce=False,
            observer=None, jobs=None):
    """Build the reachable :class:`StateGraph` under ``semantics``.

    ``reduce=True`` enables partial-order reduction when the semantics
    supports it (currently the preemptive one); otherwise the full
    graph is built. ``observer``, if given, is called as
    ``observer(world, outcomes)`` for every expanded non-terminated
    world — ``outcomes`` is the current thread's raw local outcome list
    when the expansion already computed it (the reduced path), else
    ``None``. A truthy return halts the exploration (``graph.halted``,
    with the halting world's id in ``graph.halted_sid``) — the hook the
    on-the-fly race detector uses to stop at the first witness without
    retaining the rest of the state space.

    Both loops append each expanded world's edges in successor-list
    order, which is what makes the halted graph *replayable*: a path of
    edge indices through ``graph.edges`` is a schedule the plain
    semantics re-executes deterministically (under reduction, ample
    edges are a prefix of the full successor list — see
    :meth:`repro.semantics.por.AmpleReducer.decide`), so witness
    capture (:mod:`repro.semantics.witness`) needs no per-step hook on
    this hot path.

    ``jobs > 1`` dispatches to the process-parallel explorer
    (:mod:`repro.semantics.parallel`), which produces an identical
    graph; local ``observer`` closures cannot cross the process
    boundary, so the combination is rejected — fused race detection
    has its own parallel entry point
    (:func:`repro.semantics.race.find_race` with ``jobs``).

    The whole call runs under :func:`gc_paused`; forked workers inherit
    the pause and exit with the exploration.
    """
    with gc_paused():
        return _explore(
            ctx, semantics, max_states, strict, reduce, observer, jobs
        )


def _explore(ctx, semantics, max_states, strict, reduce, observer, jobs):
    if jobs is not None and jobs > 1:
        from repro.semantics import parallel

        if parallel.available():
            if observer is not None:
                raise ValueError(
                    "parallel exploration cannot run a local observer "
                    "closure; use find_race(jobs=...) for fused race "
                    "detection"
                )
            return parallel.parallel_explore(
                ctx, semantics, max_states=max_states, strict=strict,
                reduce=reduce, jobs=jobs,
            )
    use_por = bool(reduce) and getattr(semantics, "supports_por", False)
    # Hoisted observability flag: the loops below are the system's
    # hottest path, so the disabled cost is one truthiness test per
    # expanded state.
    track = obs.enabled
    hb = _status.writer
    if hb is not None:
        hb.update(
            phase="explore",
            semantics=type(semantics).__name__,
            por=use_por,
            budget=max_states,
        )
    with obs.span(
        "explore",
        semantics=type(semantics).__name__,
        max_states=max_states,
        por=use_por,
    ) as sp:
        if track:
            tot0 = intern.totals()
            stats0 = intern.stats()
            reused0 = MEM_STATS.nodes_reused
        if use_por:
            graph, hwm, reducer = _explore_reduced(
                ctx, semantics, max_states, strict, observer
            )
        else:
            reducer = None
            graph, hwm = _explore_full(
                ctx, semantics, max_states, strict, observer
            )

        if graph.truncated:
            # strict=True raises before getting here, so this is the
            # silent-truncation case: make it diagnosable.
            obs.inc("explore.truncated_states", len(graph.truncated))
            obs.warn(
                "exploration truncated at {} states ({} frontier "
                "state(s) cut); behaviours may include 'cut'".format(
                    max_states, len(graph.truncated)
                ),
                max_states=max_states,
                truncated=len(graph.truncated),
            )
        if track:
            # Per-run deltas of the hot-path machinery's plain counters
            # (the counters themselves never touch the obs layer).
            tot1 = intern.totals()
            obs.inc("intern.hits", tot1.hits - tot0.hits)
            obs.inc("intern.misses", tot1.misses - tot0.misses)
            obs.inc("intern.clears", tot1.clears - tot0.clears)
            _record_intern_table_metrics(stats0, intern.stats())
            obs.inc(
                "memory.nodes_reused", MEM_STATS.nodes_reused - reused0
            )
            _record_explore_metrics(graph, hwm, sp)
            if reducer is not None:
                obs.inc("por.ample_worlds", reducer.ample_worlds)
                obs.inc("por.full_expansions", reducer.full_expansions)
                obs.inc(
                    "por.proviso_expansions", reducer.proviso_expansions
                )
                obs.inc("por.sleep_hits", reducer.sleep_hits)
                obs.inc("por.steps_avoided", reducer.steps_avoided)
                sp.set(
                    ample_worlds=reducer.ample_worlds,
                    full_expansions=reducer.full_expansions,
                    steps_avoided=reducer.steps_avoided,
                )
    if hb is not None:
        # Forced final beat: even sub-second runs leave a status file
        # whose state count matches the finished graph.
        if reducer is not None:
            hb.update(por_counters=reducer.snapshot())
        hb.force(states=graph.state_count(), frontier=0)
    if _heap.enabled():
        # Post-run heap census (own span, outside "explore" so the
        # states/s denominator never includes census time).
        _heap.collect(graph)
    return graph


def _explore_full(ctx, semantics, max_states, strict, observer):
    """The classical BFS over every interleaving (no reduction)."""
    graph = StateGraph()
    queue = deque()
    for world in semantics.initial_worlds(ctx):
        sid = graph.intern(world)
        graph.initial.append(sid)
        queue.append(sid)
    frontier_hwm = len(queue)

    # Locals hoisted out of the loop: every line below runs once per
    # dequeued state or per candidate edge.
    states = graph.states
    ids = graph.ids
    add = graph.add
    all_edges = graph.edges
    successors = semantics.successors
    track = obs.enabled
    hb = _status.writer
    # -1 sentinel decrements forever without hitting 0 when no writer
    # is configured: the disabled cost is one int op per state.
    hb_left = _HB_STRIDE if hb is not None else -1
    while queue:
        if track and len(queue) > frontier_hwm:
            frontier_hwm = len(queue)
        hb_left -= 1
        if hb_left == 0:
            hb_left = _HB_STRIDE
            hb.beat(states=len(states), frontier=len(queue))
        sid = queue.popleft()
        world = states[sid]
        if world.is_done():
            graph.done.add(sid)
            all_edges[sid] = []
            continue
        if observer is not None and observer(world, None):
            graph.halted = True
            graph.halted_sid = sid
            break
        outs = successors(ctx, world)
        if not outs:
            graph.stuck.add(sid)
            all_edges[sid] = []
            continue
        edges = []
        for out in outs:
            if isinstance(out, GAbort):
                edges.append((Behaviour.ABORT, ABORT_DST))
                continue
            dst = ids.get(out.world)
            if dst is None:
                if len(states) >= max_states:
                    if strict:
                        raise ExplorationLimit(
                            "state bound {} exceeded".format(max_states)
                        )
                    graph.truncated.add(sid)
                    continue
                dst = add(out.world)
                queue.append(dst)
            edges.append((out.label, dst))
        all_edges[sid] = edges
    return graph, frontier_hwm


_NO_SLEEP = frozenset()


def _explore_reduced(ctx, semantics, max_states, strict, observer):
    """DFS with footprint-directed ample sets and the cycle proviso.

    DFS (not BFS) because the standard proviso implementation needs the
    current search stack: a reduced expansion whose successor closes a
    cycle back into the stack is redone fully, which breaks the
    "ignoring problem" (a thread spinning through private states would
    otherwise never yield to the others) and keeps ``silent_div``
    detection and behaviour extraction exact on the reduced graph.
    """
    graph = StateGraph()
    reducer = AmpleReducer()
    for world in semantics.initial_worlds(ctx):
        graph.initial.append(graph.intern(world))

    states = graph.states
    ids = graph.ids
    add = graph.add
    all_edges = graph.edges
    successors = semantics.successors
    decide = reducer.decide

    on_stack = set()
    # Stack entries: [sid, successor-iterator | None, sleep set the
    # expansion inherits from its DFS parent].
    stack = []
    stack_hwm = 0
    halted = False
    hb = _status.writer
    hb_left = _HB_STRIDE if hb is not None else -1

    for root in graph.initial:
        if halted:
            break
        if root in all_edges:
            continue
        stack.append([root, None, _NO_SLEEP])
        while stack:
            hb_left -= 1
            if hb_left == 0:
                hb_left = _HB_STRIDE
                if hb.due():
                    # The POR counter dict is only built when a write
                    # is actually due.
                    hb.update(por_counters=reducer.snapshot())
                    hb.beat(states=len(states), frontier=len(stack))
            entry = stack[-1]
            sid = entry[0]
            it = entry[1]
            if it is not None:
                dst = next(it, None)
                if dst is None:
                    on_stack.discard(sid)
                    stack.pop()
                elif dst not in all_edges:
                    stack.append([dst, None, entry[2]])
                    if len(stack) > stack_hwm:
                        stack_hwm = len(stack)
                continue
            if sid in all_edges:
                # Reached again through a sibling before being visited.
                stack.pop()
                continue
            world = states[sid]
            if world.is_done():
                graph.done.add(sid)
                all_edges[sid] = []
                stack.pop()
                continue
            on_stack.add(sid)
            outs, results, ample = decide(ctx, world)
            if observer is not None and observer(world, outs):
                graph.halted = True
                graph.halted_sid = sid
                halted = True
                break
            edges = []
            children = []
            child_sleep = _NO_SLEEP
            if ample:
                for res in results:
                    dst = ids.get(res.world)
                    if dst is None:
                        if len(states) >= max_states:
                            if strict:
                                raise ExplorationLimit(
                                    "state bound {} exceeded".format(
                                        max_states
                                    )
                                )
                            graph.truncated.add(sid)
                            continue
                        dst = add(res.world)
                    elif dst in on_stack:
                        # Cycle proviso (C3): this reduction would close
                        # a cycle of reduced states — expand fully.
                        ample = False
                        reducer.proviso_expansions += 1
                        break
                    edges.append((None, dst))
                    children.append(dst)
                if ample:
                    live = world.live_threads()
                    pruned = len(live) - 1
                    if pruned > 0:
                        reducer.ample_worlds += 1
                        reducer.steps_avoided += pruned
                        cur = world.cur
                        child_sleep = frozenset(
                            t for t in live if t != cur
                        )
                        # Threads whose switch was already pruned at the
                        # DFS parent stay asleep through this expansion.
                        reducer.sleep_hits += len(
                            child_sleep & entry[2]
                        )
                    else:
                        reducer.full_expansions += 1
            if not ample:
                reducer.full_expansions += 1
                edges = []
                children = []
                outs_full = successors(
                    ctx, world, thread_results=results
                )
                if not outs_full:
                    graph.stuck.add(sid)
                    all_edges[sid] = []
                    on_stack.discard(sid)
                    stack.pop()
                    continue
                for out in outs_full:
                    if isinstance(out, GAbort):
                        edges.append((Behaviour.ABORT, ABORT_DST))
                        continue
                    dst = ids.get(out.world)
                    if dst is None:
                        if len(states) >= max_states:
                            if strict:
                                raise ExplorationLimit(
                                    "state bound {} exceeded".format(
                                        max_states
                                    )
                                )
                            graph.truncated.add(sid)
                            continue
                        dst = add(out.world)
                    edges.append((out.label, dst))
                    children.append(dst)
            all_edges[sid] = edges
            entry[1] = iter(children)
            entry[2] = child_sleep
    return graph, stack_hwm, reducer


def _record_intern_table_metrics(stats0, stats1):
    """Per-table intern counters as per-run deltas, plus occupancy
    gauges — the honest inputs the heap census needs (tables created
    mid-run simply have a zero baseline)."""
    for name, s1 in stats1.items():
        s0 = stats0.get(
            name, {"hits": 0, "misses": 0, "clears": 0}
        )
        prefix = "intern.table.{}.".format(name)
        obs.inc(prefix + "hits", s1["hits"] - s0["hits"])
        obs.inc(prefix + "misses", s1["misses"] - s0["misses"])
        obs.inc(prefix + "clears", s1["clears"] - s0["clears"])
        obs.set_gauge(prefix + "size", s1["size"])
        obs.gauge_max(prefix + "peak_size", s1["peak_size"])


def _record_explore_metrics(graph, frontier_hwm, sp):
    """Post-hoc accounting over the finished graph (enabled path only).

    Edge-kind counts and dedup hits are derived from the graph instead
    of being counted inside the loop, keeping the hot path untouched.
    """
    n_states = graph.state_count()
    n_event = n_silent = n_switch = n_abort = 0
    n_edges = 0
    for edges in graph.edges.values():
        for label, dst in edges:
            if dst == ABORT_DST:
                n_abort += 1
                continue
            n_edges += 1
            if label == SW:
                n_switch += 1
            elif isinstance(label, EventMsg):
                n_event += 1
            else:
                n_silent += 1
    # Every non-abort edge targets an interned world; all but the
    # newly-discovered ones hit the dedup table.
    dedup_hits = n_edges - (n_states - len(graph.initial))
    obs.inc("explore.states_visited", n_states)
    obs.inc("explore.edges.event", n_event)
    obs.inc("explore.edges.silent", n_silent)
    obs.inc("explore.edges.switch", n_switch)
    obs.inc("explore.edges.abort", n_abort)
    obs.inc("explore.dedup_hits", max(dedup_hits, 0))
    obs.inc("explore.done_states", len(graph.done))
    obs.inc("explore.stuck_states", len(graph.stuck))
    obs.gauge_max("explore.frontier_hwm", frontier_hwm)
    obs.observe("explore.states_per_run", n_states)
    sp.set(
        states=n_states,
        edges=n_edges,
        frontier_hwm=frontier_hwm,
        truncated=len(graph.truncated),
    )


#: How a behaviour ends, by the code the enumeration records it under:
#: a found behaviour is the int ``trace_id * 4 + code``.
_ENDS = (Behaviour.DONE, Behaviour.ABORT, Behaviour.SILENT_DIV, Behaviour.CUT)
_DONE, _ABORT, _DIV, _CUT = range(4)

_NO_EDGES = ()


def _index_edges(graph):
    """Integer adjacency of ``graph``, built in one pass over its edges.

    Returns ``(steps, silent, aborting, labels)``; the first two are
    lists indexed by state id:

    * ``silent[sid]``: destinations of silent and switch edges, the
      subgraph divergence lives in;
    * ``steps[sid]``: every non-abort edge, in edge-list order, as
      ``dst`` when the edge leaves the trace alone and as
      ``~(lid * n + dst)`` for an event edge labelled ``labels[lid]``
      (``n`` the state count). A state whose edges are all silent,
      switch or abort edges shares its ``silent`` list;
    * ``aborting``: ids of states with an abort edge.
    """
    n = len(graph.states)
    steps = [_NO_EDGES] * n
    silent = [_NO_EDGES] * n
    aborting = []
    label_ids = {}
    labels = []
    for sid, edges in graph.edges.items():
        si = []
        st = None
        aborts = False
        for label, dst in edges:
            if dst == ABORT_DST:
                aborts = True
            elif label is None or label == SW:
                si.append(dst)
                if st is not None:
                    st.append(dst)
            else:
                if st is None:
                    st = si[:]
                if isinstance(label, EventMsg):
                    lid = label_ids.get(label)
                    if lid is None:
                        lid = label_ids[label] = len(labels)
                        labels.append(label)
                    st.append(~(lid * n + dst))
                else:
                    st.append(dst)
        if si:
            silent[sid] = si
        if st is not None:
            steps[sid] = st
        elif si:
            steps[sid] = si
        if aborts:
            aborting.append(sid)
    return steps, silent, aborting, labels


def _progress_divergent_states(graph):
    """States lying on a silent cycle that contains a thread step, or
    silently reaching one (see :func:`_divergent`)."""
    div = _divergent(graph, _index_edges(graph)[1])
    return set(compress(range(len(div)), div))


def _divergent(graph, silent):
    """Flags, by state id, of the states that can diverge silently
    while making thread progress.

    Tarjan's SCC over the silent-edge subgraph ``silent``, on list and
    bytearray arrays indexed by state id. An SCC diverges when one of
    its silent thread steps stays inside it (a cycle with progress), or
    when a silent edge leaves it for a diverging SCC. Tarjan emits an
    SCC only after every SCC it reaches, so those flags are final by
    then, and the backward closure needs no reverse graph.
    """
    n = len(silent)
    edges_of = graph.edges
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    div = bytearray(n)
    stack = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # Iterative, to survive deep graphs.
        work = [(root, iter(silent[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(silent[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if lv != index[v]:
                    if lv < low[work[-1][0]]:
                        low[work[-1][0]] = lv
                    continue
                if stack[-1] == v:
                    comp = (stack.pop(),)
                else:
                    i = len(stack) - 1
                    while stack[i] != v:
                        i -= 1
                    comp = stack[i:]
                    del stack[i:]
                # A root's SCC has no silent edge to any other node
                # still on the stack, so for its members' edges "on
                # the stack" is "in this SCC".
                diverges = False
                for w in comp:
                    for label, d in edges_of.get(w, _NO_EDGES):
                        if d == ABORT_DST:
                            continue
                        if label is None:
                            if on_stack[d] or div[d]:
                                diverges = True
                                break
                        elif label == SW and div[d]:
                            diverges = True
                            break
                    if diverges:
                        break
                for w in comp:
                    on_stack[w] = 0
                    div[w] = diverges
    return div


def behaviours(graph, max_events=10, max_nodes=200000, strict=False):
    """The behaviour set of an explored graph.

    Enumerates event traces by BFS over ``(state, trace)`` pairs with
    deduplication; finite because the graph is finite and traces are
    capped at ``max_events`` (longer traces surface as ``cut``).

    When the ``max_nodes`` enumeration bound is hit, the default
    (``strict=False``) degrades gracefully — every still-pending trace
    is reported as ``Behaviour.CUT``, which comparisons already treat
    as inconclusive — matching :func:`explore`'s truncation policy
    instead of crashing report pipelines mid-run. ``strict=True``
    raises :class:`ExplorationLimit`.

    Runs under :func:`gc_paused`, like :func:`explore`.
    """
    with gc_paused(), obs.span("behaviours", max_events=max_events) as sp:
        result, pairs, traces, divergent = _behaviours(
            graph, max_events, max_nodes, strict
        )
        if obs.enabled:
            obs.inc("behaviours.traces", len(result))
            obs.inc("behaviours.pairs", pairs)
            obs.inc("behaviours.interned_traces", traces)
            obs.inc("behaviours.divergent_states", divergent)
            sp.set(
                traces=len(result),
                pairs=pairs,
                interned_traces=traces,
                divergent_states=divergent,
            )
    return result


def _behaviours(graph, max_events, max_nodes, strict):
    """The enumeration behind :func:`behaviours`.

    Traces are interned in a trie: trace id 0 is the empty trace, and
    ``trie[tid * n_labels + lid]`` is the id of trace ``tid`` extended
    by ``labels[lid]``. A ``(state, trace)`` pair is then the single int
    ``tid * n + sid``, so the BFS never hashes a trace tuple, and each
    found behaviour is the int ``tid * 4 + end code``, turned into a
    :class:`Behaviour` once at the end. The FIFO order, and with it the
    set a ``max_nodes`` cut reports, is the plain pair BFS's.

    Returns ``(behaviour frozenset, visited pairs, interned traces,
    divergent states)``.
    """
    with obs.span("behaviours.divergence"):
        steps, silent, aborting, labels = _index_edges(graph)
        div = list(compress(range(len(steps)), _divergent(graph, silent)))
    n = len(steps)
    n_labels = len(labels)

    # The end codes a visit to each state records; done and stuck
    # states end the trace, so their edges are never followed.
    ends_at = [_NO_EDGES] * n
    for sids, code in (
        (graph.truncated, (_CUT,)), (div, (_DIV,)), (aborting, (_ABORT,))
    ):
        for sid in sids:
            ends_at[sid] += code
    for sids, code in ((graph.stuck, (_ABORT,)), (graph.done, (_DONE,))):
        for sid in sids:
            ends_at[sid] = code
            steps[sid] = _NO_EDGES

    traces = [()]
    lengths = [0]
    trie = {}
    found = set()
    visited = set()
    queue = deque()
    for sid in graph.initial:
        queue.append(sid)
        visited.add(sid)
    record = found.add
    visit = visited.add
    push = queue.append
    pop = queue.popleft
    while queue:
        if len(visited) > max_nodes:
            if strict:
                raise ExplorationLimit(
                    "behaviour enumeration bound exceeded"
                )
            # Graceful degradation: pending traces are inconclusive.
            obs.warn(
                "behaviour enumeration truncated at {} nodes; {} "
                "pending trace(s) reported as 'cut'".format(
                    max_nodes, len(queue)
                ),
                max_nodes=max_nodes,
                pending=len(queue),
            )
            if obs.enabled:
                obs.inc("behaviours.truncated_nodes", len(queue))
            for key in queue:
                record(key // n * 4 + _CUT)
            break
        key = pop()
        sid = key % n
        base = key - sid
        tid = base // n
        codes = ends_at[sid]
        if codes:
            for code in codes:
                record(tid * 4 + code)
        for e in steps[sid]:
            if e >= 0:
                k = base + e
            else:
                if lengths[tid] >= max_events:
                    record(tid * 4 + _CUT)
                    continue
                lid, dst = divmod(~e, n)
                tk = tid * n_labels + lid
                child = trie.get(tk)
                if child is None:
                    child = trie[tk] = len(traces)
                    traces.append(traces[tid] + (labels[lid],))
                    lengths.append(lengths[tid] + 1)
                k = child * n + dst
            if k not in visited:
                visit(k)
                push(k)
    result = frozenset(
        Behaviour(traces[c >> 2], _ENDS[c & 3]) for c in found
    )
    return result, len(visited), len(traces), len(div)


def program_behaviours(ctx, semantics, max_states=50000, max_events=10,
                       reduce=None, jobs=None):
    """Explore and extract behaviours in one call.

    ``reduce=None`` defers to the ``REPRO_POR`` environment default
    (on unless disabled) — sound because the cross-validation suite
    pins POR-on and POR-off to identical behaviour sets; pass
    ``reduce=False`` to force the full graph. ``jobs`` shards the
    exploration across worker processes (the behaviour set is
    unchanged — see :mod:`repro.semantics.parallel`).
    """
    if reduce is None:
        reduce = default_reduce()
    graph = explore(ctx, semantics, max_states, reduce=reduce, jobs=jobs)
    return behaviours(graph, max_events)
