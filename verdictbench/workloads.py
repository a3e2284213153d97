"""The benchmark's workloads: each request is one verdict.

Every request makes the same layer calls as the matching per-family
check in :mod:`repro.fuzz.campaign` (or, for ``scale``, as a fresh
``repro run`` of the SCALE lock counter), with the campaign's default
bounds, and wraps each call in a span of the tracer it is given.
Verdicts are judged against known answers that do not come from the
code under test: the generator's ``expect_drf`` flag, the committed
SCALE fingerprints and state counts, the Fig. 13 row shape, and the
sequential graph for the sharded explorer.

A request raises :class:`WrongVerdict` when its verdict is wrong (the
run fails) and :class:`BoundHit` when a state, event or minimiser
bound stopped it (the request counts as failed).
"""

import gc
import hashlib
import random
import resource
import time
from collections import Counter, namedtuple

from repro import obs
from repro.common import intern
from repro.compiler import compile_minic
from repro.framework import lock_counter_system, per_pass_table
from repro.fuzz.campaign import (
    CampaignConfig,
    _cimp_program,
    _minic_program,
)
from repro.fuzz.generators import derive_seed, generate
from repro.lang import closure
from repro.langs.minic import compile_unit, link_units
from repro.obs.nodecount import count_nodes  # noqa: F401 (for the harness)
from repro.semantics import (
    ExplorationLimit,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    behaviours,
    default_reduce,
    equivalent,
    explore,
    find_race,
    minimize_witness,
    record_race,
    replay_witness,
)
from repro.semantics.explore import Behaviour
from repro.semantics.replay import ReplayDivergence
from repro.simulation.validate import validate_compilation
from repro.tso import DEFAULT_LOCK_ADDR

from tracing import Tracer

#: The campaign's default bounds (states, events, atomic steps, ddmin
#: rounds). Minimisation is bounded by rounds only: a wall-clock budget
#: would make the work per request depend on machine speed and load.
CAMPAIGN = CampaignConfig()

#: The ``validate`` corpus: the first ``CORPUS_SIZE`` ``minic-seq``
#: draws of campaign seed ``CORPUS_SEED``. Every run validates this same
#: corpus: its cost is concentrated in a few heavy draws, so runs over
#: different draws disagree by more than any useful bound.
CORPUS_SEED = 0
CORPUS_SIZE = 64

#: Fig. 13: the pipeline's passes, in order, without ``-O``.
FIG13_PASSES = (
    "Cshmgen", "Cminorgen", "Selection", "RTLgen", "Tailcall",
    "Renumber", "Allocation", "Tunneling", "Linearize", "CleanupLabels",
    "Stacking", "Asmgen",
)

#: Every pass a ``minic-seq`` draw validates (``-O`` inserts three RTL
#: passes after Renumber), plus the direct source-to-x86 check.
VALIDATED_PASSES = (
    FIG13_PASSES[:6] + ("ConstProp", "CSE", "Deadcode")
    + FIG13_PASSES[6:] + ("end-to-end",)
)

#: SCALE lock-counter requests: threads, POR, states, fingerprint.
#: The fingerprints are the behaviour-set hashes committed since PR 3.
SCALE = {
    "full3": (3, False, 20868, "50e1ab6d869c3910"),
    "por3": (3, True, 5028, "50e1ab6d869c3910"),
    "por4": (4, True, 77886, "4e906154a79c7890"),
}
SCALE_MAX_STATES = 3000000
SCALE_MAX_EVENTS = 12
SCALE_MAX_NODES = 8000000

#: Worker processes of the sharded explorer.
SHARD_JOBS = 2

DRF_KINDS = ("minic-lock", "minic-lock-broken", "cimp-pair")

#: Seeded draws of the ``drf`` workload, round robin over ``DRF_KINDS``.
DRF_DRAWS = 288


class WrongVerdict(Exception):
    """A verdict disagrees with its known answer."""


class BoundHit(Exception):
    """A state, event or minimiser bound stopped the request."""


#: Exceptions that mean a bound stopped the request (``strict``
#: exploration raises :class:`ExplorationLimit` itself).
BOUND_ERRORS = (BoundHit, ExplorationLimit)


#: One verdict to produce; ``key`` names its input content.
Request = namedtuple("Request", "kind key payload", defaults=(None,))


def fingerprint(behs):
    digest = hashlib.sha256()
    for line in sorted(repr(b) for b in behs):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def cold(collect):
    """Start a request cold, as a fresh command would: no step memo, no
    interned worlds, frames or footprints from earlier requests."""
    closure.clear_cache()
    intern.clear_all()
    if collect:
        gc.collect()


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ----- shared layer calls ----------------------------------------------------


def _build_minic(tr, inp):
    """``campaign._build_minic``, with parse and compile in spans."""
    extra = {"L": DEFAULT_LOCK_ADDR} if inp.lock else None
    with tr.span("langs.minic.parse"):
        modules, genvs, _ = link_units([compile_unit(inp.source)], extra)
    module, genv = modules[0], genvs[0]
    if inp.lock:
        module = module.with_forbidden({DEFAULT_LOCK_ADDR})
    with tr.span("compiler.compile"):
        result = compile_minic(module, optimize=inp.optimize)
    return result, genv


def _behaviours(tr, acc, prog, semantics, max_states, max_events,
                reduce, strict=False, max_nodes=200000):
    """``explore`` then ``behaviours``; a truncated graph or a cut
    trace is a bound hit, not a verdict."""
    with tr.span("semantics.explore"):
        graph = explore(
            GlobalContext(prog), semantics, max_states, strict=strict,
            reduce=reduce,
        )
    with tr.span("semantics.behaviours"):
        behs = behaviours(graph, max_events, max_nodes=max_nodes)
    acc["states"] += graph.state_count()
    if graph.truncated or any(b.end == Behaviour.CUT for b in behs):
        acc["truncated"] += 1
        raise BoundHit("state or event bound hit")
    return graph, behs


def _minimize(ctx, record):
    """``minimize_witness`` under the round bound, and whether the bound
    stopped it. The bound hit is published only as an obs counter, so
    the metrics registry is on for this one call."""
    obs.configure(metrics=True)
    try:
        small = minimize_witness(
            ctx, record, max_rounds=CAMPAIGN.minimize_rounds
        )
        hit = obs.counter_value("witness.minimize.budget_hits") > 0
    finally:
        obs.reset()
    return small, hit


# ----- validate --------------------------------------------------------------


def run_fig13(tr, acc, _payload):
    """Fig. 13: the per-pass table of the 2-thread lock counter; every
    pass accepted, 12 rows, FP obligations 3 x the baseline's."""
    with tr.span("framework.build"):
        system = lock_counter_system(2)
    with tr.span("framework.per_pass_table"):
        try:
            rows = per_pass_table(system)
        except AssertionError as exc:  # raised for a rejected pass
            raise WrongVerdict("Fig. 13: {}".format(exc))
    for row in rows:
        acc["pass_s." + row.pass_name] += row.seconds
        acc["rely_moves"] += row.rely_moves
        acc["obligations"] += row.baseline_obligations + row.fp_obligations
        acc["co_exec_steps"] += row.src_steps + row.tgt_steps
    names = tuple(row.pass_name for row in rows)
    if names != FIG13_PASSES:
        raise WrongVerdict("Fig. 13 rows {} != {}".format(
            names, FIG13_PASSES
        ))
    skewed = [
        row.pass_name for row in rows
        if row.fp_obligations != 3 * row.baseline_obligations
    ]
    if skewed:
        raise WrongVerdict(
            "Fig. 13 FP obligations != 3 x baseline in {}".format(skewed)
        )
    return None


def run_minic_seq(tr, acc, inp):
    """``campaign._check_minic_seq``: per-pass validation, then source
    and x86 behaviour sets compared."""
    result, genv = _build_minic(tr, inp)
    mem = genv.memory()
    with tr.span("simulation.validate"):
        validations = validate_compilation(result, mem, mem.domain())
    failed = []
    for val in validations:
        st = val.report.stats
        acc["pass_s." + val.pass_name] += val.seconds
        acc["segments"] += st.segments
        acc["co_exec_steps"] += st.src_steps + st.tgt_steps
        acc["rely_moves"] += st.rely_moves
        acc["obligations"] += (
            st.messages_matched + st.fpmatch_checks + st.scope_checks
            + st.lg_checks
        )
        if not val.ok:
            failed.append(val.pass_name)
    acc["failed_passes"] += len(failed)
    if failed:
        raise WrongVerdict("{}: pass(es) rejected: {}".format(
            inp.content_hash[:12], ", ".join(failed)
        ))
    sets = []
    for stage in (result.source, result.target):
        prog = _minic_program(stage, genv, inp.entries, inp.lock)
        sets.append(_behaviours(
            tr, acc, prog, PreemptiveSemantics(), CAMPAIGN.max_states,
            CAMPAIGN.max_events, default_reduce(),
        )[1])
    with tr.span("semantics.equivalent"):
        same = equivalent(*sets)
    if not same:
        raise WrongVerdict("{}: source and x86 behaviours differ".format(
            inp.content_hash[:12]
        ))
    return result.target.module


class Validate:
    """Fig. 13 per-pass table, then the fixed ``minic-seq`` corpus."""

    name = "validate"
    collect = False

    def setup(self, seed):
        corpus = [
            generate("minic-seq", derive_seed(CORPUS_SEED, i), index=i)
            for i in range(CORPUS_SIZE)
        ]
        run_fig13(Tracer(False), Counter(), None)  # warm-up
        return {"seed": seed, "corpus": corpus}

    def requests(self, state, p):
        draws = [
            Request("minic-seq", inp.content_hash, inp)
            for inp in state["corpus"]
        ]
        random.Random("validate:{}:{}".format(state["seed"], p)).shuffle(
            draws
        )
        return [Request("fig13", "fig13")] + draws


# ----- scale -----------------------------------------------------------------


def run_scale(tr, acc, payload):
    name, prog = payload
    _threads, reduce, _states, _fp = SCALE[name]
    return _behaviours(
        tr, acc, prog, PreemptiveSemantics(), SCALE_MAX_STATES,
        SCALE_MAX_EVENTS, reduce, strict=True, max_nodes=SCALE_MAX_NODES,
    )


def check_scale(payload, out):
    name = payload[0]
    graph, behs = out
    _threads, _reduce, states, fp = SCALE[name]
    if graph.state_count() != states:
        raise WrongVerdict("{}: {} states, expected {}".format(
            name, graph.state_count(), states
        ))
    got = fingerprint(behs)
    if got != fp:
        raise WrongVerdict("{}: fingerprint {}, expected {}".format(
            name, got, fp
        ))


class Scale:
    """SCALE lock counter: 3-thread full, 3-thread POR, 4-thread POR."""

    name = "scale"
    collect = True

    def setup(self, seed):
        programs = {
            n: lock_counter_system(n).source_program() for n in (3, 4)
        }
        _behaviours(  # warm-up
            Tracer(False), Counter(), lock_counter_system(2).source_program(),
            PreemptiveSemantics(), SCALE_MAX_STATES, SCALE_MAX_EVENTS,
            False, strict=True,
        )
        return {"seed": seed, "programs": programs}

    def requests(self, state, p):
        reqs = [
            Request(
                "scale", name, (name, state["programs"][SCALE[name][0]])
            )
            for name in sorted(SCALE)
        ]
        random.Random("scale:{}:{}".format(state["seed"], p)).shuffle(reqs)
        return reqs


# ----- scale-sharded ---------------------------------------------------------


def run_sharded(tr, acc, payload):
    prog, _reference = payload
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    kids0 = children_cpu()
    with tr.span("semantics.explore"):
        graph = explore(
            GlobalContext(prog), PreemptiveSemantics(), SCALE_MAX_STATES,
            strict=True, reduce=False, jobs=SHARD_JOBS,
        )
    kids = children_cpu() - kids0
    acc["par.wall_s"] += time.perf_counter() - wall0
    acc["par.cpu_s"] += time.process_time() - cpu0 + kids
    acc["par.child_cpu_s"] += kids
    acc["par.worlds"] += graph.state_count()
    acc["states"] += graph.state_count()
    with tr.span("semantics.behaviours"):
        behs = behaviours(graph, SCALE_MAX_EVENTS, max_nodes=SCALE_MAX_NODES)
    return graph, behs


def same_graph(graph, reference):
    """Graph identity, worlds compared by hash in state order: a full
    structural comparison of 20,868 worlds costs seconds per request."""
    return (
        [hash(w) for w in graph.states]
        == [hash(w) for w in reference.states]
        and graph.edges == reference.edges
        and graph.initial == reference.initial
        and graph.done == reference.done
        and graph.stuck == reference.stuck
        and graph.truncated == reference.truncated
    )


def check_sharded(payload, out):
    reference = payload[1]
    graph, behs = out
    if not same_graph(graph, reference):
        raise WrongVerdict(
            "sharded graph differs from the sequential graph"
        )
    check_scale(("full3", None), (graph, behs))


class ScaleSharded:
    """3-thread full SCALE explored by ``SHARD_JOBS`` forked workers."""

    name = "scale-sharded"
    collect = True

    def setup(self, seed):
        prog = lock_counter_system(3).source_program()
        reference, behs = _behaviours(  # context building and warm-up
            Tracer(False), Counter(), prog, PreemptiveSemantics(),
            SCALE_MAX_STATES, SCALE_MAX_EVENTS, False, strict=True,
            max_nodes=SCALE_MAX_NODES,
        )
        check_scale(("full3", None), (reference, behs))
        return {"seed": seed, "prog": prog, "reference": reference}

    def requests(self, state, p):
        return [Request(
            "scale-sharded", "full3",
            (state["prog"], state["reference"]),
        )]


# ----- drf -------------------------------------------------------------------


def run_minic_lock(tr, acc, inp):
    """``campaign._check_minic_lock``: race check; a race is recorded,
    minimised and replayed."""
    result, genv = _build_minic(tr, inp)
    prog = _minic_program(result.source, genv, inp.entries, True)
    ctx = GlobalContext(prog)
    semantics = PreemptiveSemantics(
        max_atomic_steps=CAMPAIGN.max_atomic_steps
    )
    with tr.span("race.find_race"):
        witness = find_race(ctx, semantics, max_states=CAMPAIGN.max_states)
    drf = witness is None
    acc["drf_verdicts" if drf else "race_verdicts"] += 1
    if drf != inp.expect_drf:
        raise WrongVerdict("{}: DRF={}, generator expects {}".format(
            inp.content_hash[:12], drf, inp.expect_drf
        ))
    if drf:
        return result.target.module
    with tr.span("witness.record"):
        record = record_race(
            witness,
            program={
                "file": inp.content_hash + inp.extension,
                "threads": ",".join(inp.entries),
                "lock": True,
                "optimize": inp.optimize,
            },
            meta={"max_atomic_steps": semantics.max_atomic_steps},
        )
    with tr.span("witness.minimize"):
        small, hit = _minimize(ctx, record)
    acc["original_steps"] += len(record.schedule)
    acc["minimized_steps"] += len(small.schedule)
    acc["replays"] += 1
    with tr.span("witness.replay"):
        try:
            replay_witness(ctx, small)
        except ReplayDivergence as exc:
            raise WrongVerdict("{}: minimised witness does not replay: "
                               "{}".format(inp.content_hash[:12], exc))
    acc["replay_ok"] += 1
    if hit:
        raise BoundHit("minimiser round bound hit")
    return result.target.module


def run_cimp_pair(tr, acc, inp):
    """``campaign._check_cimp_pair``: DRF and NPDRF agree; on a DRF
    program the two semantics have equal behaviours (Lem. 9)."""
    with tr.span("langs.cimp.parse"):
        prog = _cimp_program(inp)
    verdicts = []
    for semantics in (
        PreemptiveSemantics(CAMPAIGN.max_atomic_steps),
        NonPreemptiveSemantics(CAMPAIGN.max_atomic_steps),
    ):
        with tr.span("race.find_race"):
            witness = find_race(
                GlobalContext(prog), semantics,
                max_states=CAMPAIGN.max_states,
                max_atomic_steps=CAMPAIGN.max_atomic_steps,
            )
        verdicts.append(witness is None)
        acc["drf_verdicts" if witness is None else "race_verdicts"] += 1
    drf, npdrf = verdicts
    if drf != npdrf:
        raise WrongVerdict("{}: DRF={} but NPDRF={}".format(
            inp.content_hash[:12], drf, npdrf
        ))
    if not drf:
        return None
    sets = [
        _behaviours(
            tr, acc, prog, semantics, CAMPAIGN.max_states,
            CAMPAIGN.max_events, default_reduce(),
        )[1]
        for semantics in (PreemptiveSemantics(), NonPreemptiveSemantics())
    ]
    with tr.span("semantics.equivalent"):
        same = equivalent(*sets)
    if not same:
        raise WrongVerdict(
            "{}: preemptive and non-preemptive behaviours differ on a "
            "DRF program".format(inp.content_hash[:12])
        )
    return None


class Drf:
    """Round robin over lock clients, broken lock clients and CImp
    pairs: ``DRF_DRAWS`` draws of the run's seed."""

    name = "drf"
    collect = False

    def setup(self, seed):
        draws = []
        for index in range(DRF_DRAWS):
            kind = DRF_KINDS[index % len(DRF_KINDS)]
            inp = generate(kind, derive_seed(seed, index), index=index)
            draws.append(Request(kind, inp.content_hash, inp))
        for req in draws[:len(DRF_KINDS)]:  # warm-up
            RUN[req.kind](Tracer(False), Counter(), req.payload)
        return {"seed": seed, "draws": draws}

    def requests(self, state, p):
        return state["draws"]


RUN = {
    "fig13": run_fig13,
    "minic-seq": run_minic_seq,
    "scale": run_scale,
    "scale-sharded": run_sharded,
    "minic-lock": run_minic_lock,
    "minic-lock-broken": run_minic_lock,
    "cimp-pair": run_cimp_pair,
}

#: Kinds whose request compiles a MiniC unit and returns its x86 module.
COMPILES = ("minic-seq", "minic-lock", "minic-lock-broken")

#: Checks too costly to make inside the timed request.
CHECK = {
    "scale": check_scale,
    "scale-sharded": check_sharded,
}

WORKLOADS = {
    w.name: w for w in (Validate(), Scale(), Drf(), ScaleSharded())
}
