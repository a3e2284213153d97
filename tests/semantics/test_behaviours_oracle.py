"""Differential test: the integer behaviour enumeration against the
plain ``(state, trace)``-tuple enumeration it replaced.

``_is_silent_label``, ``_progress_divergent_states`` and ``_behaviours``
below are the reference implementations, kept verbatim: dict/set
Tarjan with a reverse-graph closure, and a BFS that hashes trace
tuples. Every behaviour set — including what a ``max_nodes`` cut
reports — and every divergent-state set must agree with them.
"""

import random
from collections import deque

import pytest

from repro import obs
from repro.fuzz.campaign import _build_minic, _cimp_program, _minic_program
from repro.fuzz.generators import derive_seed, generate
from repro.framework.build import lock_counter_system
from repro.lang.messages import EventMsg
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    explore,
)
from repro.semantics.engine import SW
from repro.semantics.explore import (
    ABORT_DST,
    Behaviour,
    ExplorationLimit,
    StateGraph,
    behaviours,
)
from repro.semantics.explore import (
    _progress_divergent_states as new_divergent_states,
)

from tests.helpers import cimp_program

# ----- reference (verbatim) --------------------------------------------------


def _is_silent_label(label):
    return label is None or label == SW


def _progress_divergent_states(graph):
    """States lying on a silent cycle that contains a thread step.

    Uses Tarjan's SCC on the silent-edge subgraph; an SCC diverges when
    it contains an internal non-switch silent edge (real thread
    progress) on some cycle. Then every state that silently reaches a
    divergent SCC can diverge.
    """
    n = graph.state_count()
    silent = {
        sid: [
            d
            for (lbl, d) in graph.edges.get(sid, [])
            if d != ABORT_DST and _is_silent_label(lbl)
        ]
        for sid in range(n)
    }
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    sccs = []

    def strongconnect(v):
        # Iterative Tarjan to survive deep graphs.
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = counter[0]
                lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(pi, len(silent[node])):
                w = silent[node][i]
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for v in range(n):
        if v not in index:
            strongconnect(v)

    div_core = set()
    for comp in sccs:
        comp_set = set(comp)
        internal_cycle = len(comp) > 1 or any(
            d == comp[0] for d in silent[comp[0]]
        )
        if not internal_cycle:
            continue
        has_progress = any(
            lbl is None and d in comp_set
            for sid in comp
            for (lbl, d) in graph.edges.get(sid, [])
            if d != ABORT_DST and _is_silent_label(lbl)
        )
        if has_progress:
            div_core |= comp_set

    # Backward closure over silent edges.
    rev = {sid: [] for sid in range(n)}
    for sid in range(n):
        for d in silent[sid]:
            rev[d].append(sid)
    div = set(div_core)
    queue = deque(div_core)
    while queue:
        node = queue.popleft()
        for pred in rev[node]:
            if pred not in div:
                div.add(pred)
                queue.append(pred)
    return div


def _behaviours(graph, max_events, max_nodes, strict):
    div_states = _progress_divergent_states(graph)
    result = set()
    visited = set()
    queue = deque()
    for sid in graph.initial:
        queue.append((sid, ()))
        visited.add((sid, ()))

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
            for sid, trace in queue:
                result.add(Behaviour(trace, Behaviour.CUT))
            break
        sid, trace = queue.popleft()
        if sid in graph.done:
            result.add(Behaviour(trace, Behaviour.DONE))
            continue
        if sid in graph.stuck:
            result.add(Behaviour(trace, Behaviour.ABORT))
            continue
        if sid in graph.truncated:
            result.add(Behaviour(trace, Behaviour.CUT))
        if sid in div_states:
            result.add(Behaviour(trace, Behaviour.SILENT_DIV))
        for label, dst in graph.edges.get(sid, []):
            if dst == ABORT_DST:
                result.add(Behaviour(trace, Behaviour.ABORT))
                continue
            if isinstance(label, EventMsg):
                if len(trace) >= max_events:
                    result.add(Behaviour(trace, Behaviour.CUT))
                    continue
                nxt = (dst, trace + (label,))
            else:
                nxt = (dst, trace)
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return frozenset(result)


# ----- harness ---------------------------------------------------------------


def assert_agrees(graph, max_events=10, max_nodes=200000):
    """Same divergent states, and the same behaviour set (or the same
    strict-mode failure) as the reference."""
    assert new_divergent_states(graph) == _progress_divergent_states(graph)
    got = behaviours(graph, max_events, max_nodes=max_nodes)
    assert isinstance(got, frozenset)
    assert got == _behaviours(graph, max_events, max_nodes, False)
    strict_ref = strict_new = None
    try:
        _behaviours(graph, max_events, max_nodes, True)
    except ExplorationLimit as exc:
        strict_ref = str(exc)
    try:
        behaviours(
            graph, max_events, max_nodes=max_nodes, strict=True
        )
    except ExplorationLimit as exc:
        strict_new = str(exc)
    assert strict_new == strict_ref
    return got


def _graph(prog, semantics=None, max_states=200000, reduce=False):
    return explore(
        GlobalContext(prog), semantics or PreemptiveSemantics(),
        max_states, reduce=reduce,
    )


# ----- real programs ---------------------------------------------------------


@pytest.fixture(scope="module")
def lock_graphs():
    graphs = {}
    for n in (2, 3):
        prog = lock_counter_system(n).source_program()
        for reduce in (False, True):
            graphs[(n, reduce)] = _graph(prog, reduce=reduce)
    return graphs


class TestLockCounter:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_full_and_por(self, lock_graphs, n, reduce):
        behs = assert_agrees(lock_graphs[(n, reduce)], max_events=12)
        assert behs and all(b.end != Behaviour.CUT for b in behs)

    @pytest.mark.parametrize("max_events", [0, 1])
    def test_max_events_cuts(self, lock_graphs, max_events):
        behs = assert_agrees(lock_graphs[(2, False)], max_events)
        assert any(b.end == Behaviour.CUT for b in behs)

    @pytest.mark.parametrize(
        "max_nodes", [0, 1, 2, 3, 7, 50, 400, 800]
    )
    @pytest.mark.parametrize("key", [(2, False), (3, True)])
    def test_max_nodes_truncation(self, lock_graphs, max_nodes, key):
        # Non-strict: the same 'cut' set; strict: both raise.
        graph = lock_graphs[key]
        behs = assert_agrees(graph, 12, max_nodes)
        assert any(b.end == Behaviour.CUT for b in behs)
        with pytest.raises(ExplorationLimit):
            behaviours(
                graph, 12, max_nodes=max_nodes, strict=True
            )


class TestCImp:
    def test_spin_loop_silent_div(self):
        prog = cimp_program(
            "main(){ while(1 == 1){ [C] := 0; } }", ["main"]
        )
        behs = assert_agrees(_graph(prog))
        assert {b.end for b in behs} == {Behaviour.SILENT_DIV}

    def test_divergent_choice_then_event(self):
        prog = cimp_program(
            "t1(){ x := [C]; while(x == 0){ x := [C]; } print(1); }"
            "t2(){ [C] := 1; }",
            ["t1", "t2"],
        )
        for reduce in (False, True):
            assert_agrees(_graph(prog, reduce=reduce))

    def test_abort_edges(self):
        prog = cimp_program(
            "t1(){ x := [C]; if (x == 1) { assert(0); } print(x); }"
            "t2(){ [C] := 1; }",
            ["t1", "t2"],
        )
        behs = assert_agrees(_graph(prog))
        assert any(b.end == Behaviour.ABORT for b in behs)

    def test_graph_truncated_by_max_states(self):
        prog = cimp_program(
            "main(){ i := 0; while(i < 50){ i := i + 1; } print(i); }",
            ["main"],
        )
        for bound in (1, 2, 5, 20):
            graph = _graph(prog, max_states=bound)
            assert graph.truncated
            behs = assert_agrees(graph)
            assert any(b.end == Behaviour.CUT for b in behs)

    def test_event_loop_max_events(self):
        prog = cimp_program(
            "main(){ while(1 == 1){ print(1); } }", ["main"]
        )
        graph = _graph(prog)
        for max_events in (0, 1, 4):
            assert_agrees(graph, max_events)


# ----- hand-made and random graphs -------------------------------------------


def _make_graph(n, edges, initial=(0,), done=(), stuck=(), truncated=()):
    graph = StateGraph()
    graph.states = list(range(n))
    graph.edges = {sid: list(es) for sid, es in edges.items()}
    graph.initial = list(initial)
    graph.done = set(done)
    graph.stuck = set(stuck)
    graph.truncated = set(truncated)
    return graph


PRINT = [EventMsg("print", v) for v in range(3)]


class TestHandMade:
    def test_stuck_and_abort(self):
        graph = _make_graph(
            4,
            {
                0: [(None, 1), (PRINT[0], 2), ("abort", ABORT_DST)],
                1: [],
                2: [(SW, 3)],
                3: [],
            },
            done=[3],
            stuck=[1],
        )
        behs = assert_agrees(graph)
        assert Behaviour((), Behaviour.ABORT) in behs
        assert Behaviour((PRINT[0],), Behaviour.DONE) in behs

    def test_switch_only_cycle_is_not_divergence(self):
        graph = _make_graph(
            3, {0: [(SW, 1)], 1: [(SW, 0), (None, 2)], 2: []}, done=[2]
        )
        assert assert_agrees(graph) == {Behaviour((), Behaviour.DONE)}

    def test_progress_cycle_through_switch(self):
        # 0 -sw-> 1 -tau-> 0: a cycle with progress; 2 reaches it.
        graph = _make_graph(
            4,
            {0: [(SW, 1)], 1: [(None, 0), (PRINT[1], 3)], 2: [(None, 0)],
             3: []},
            initial=[2],
            done=[3],
        )
        assert new_divergent_states(graph) == {0, 1, 2}
        assert_agrees(graph)

    def test_duplicate_initial_and_unexpanded(self):
        graph = _make_graph(
            3, {0: [(None, 1), (None, 2)]}, initial=[0, 0], truncated=[0]
        )
        for max_nodes in (0, 1, 2, 3):
            assert_agrees(graph, max_nodes=max_nodes)

    def test_empty_graph(self):
        assert assert_agrees(_make_graph(0, {}, initial=())) == frozenset()


def _random_graph(rng):
    n = rng.randint(1, 40)
    labels = [None, None, None, SW, SW] + PRINT + ["other"]
    edges = {}
    done, stuck, truncated = set(), set(), set()
    for sid in range(n):
        roll = rng.random()
        if roll < 0.1:
            continue  # unexpanded (a halted or cut-off prefix)
        if roll < 0.2:
            done.add(sid)
            edges[sid] = []
            continue
        if roll < 0.25:
            stuck.add(sid)
            edges[sid] = []
            continue
        out = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.08:
                out.append(("abort", ABORT_DST))
            else:
                out.append((rng.choice(labels), rng.randrange(n)))
        edges[sid] = out
        if rng.random() < 0.1:
            truncated.add(sid)
    initial = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
    return _make_graph(n, edges, initial, done, stuck, truncated)


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs(seed):
    rng = random.Random(seed)
    for _ in range(40):
        graph = _random_graph(rng)
        assert_agrees(
            graph,
            max_events=rng.choice([0, 1, 2, 5, 10]),
            max_nodes=rng.choice([0, 1, 3, 10, 40, 200000]),
        )


# ----- seeded fuzz draws -----------------------------------------------------


@pytest.mark.parametrize("index", range(6))
def test_cimp_pair_draws(index):
    inp = generate("cimp-pair", derive_seed(7, index), index=index)
    prog = _cimp_program(inp)
    for semantics in (PreemptiveSemantics(), NonPreemptiveSemantics()):
        for reduce in (False, True):
            graph = _graph(prog, semantics, 20000, reduce)
            assert_agrees(graph, 24)
            assert_agrees(graph, 1, max_nodes=15)


@pytest.mark.parametrize("index", range(3))
def test_minic_lock_draws(index):
    inp = generate("minic-lock", derive_seed(7, index), index=index)
    result, genv = _build_minic(inp)
    prog = _minic_program(result.source, genv, inp.entries, True)
    for reduce in (False, True):
        graph = _graph(prog, max_states=60000, reduce=reduce)
        assert_agrees(graph, 24)
        assert_agrees(graph, 2, max_nodes=100)
