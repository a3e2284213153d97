"""Differential test: ddmin with resumed walks against the ddmin that
re-walked every candidate from the initial world.

``_ReferenceMinimizer`` and ``_reference_rebuild`` below are the
implementations the trail of surviving worlds replaced, kept verbatim
(only the class and function names changed). On every input, and under
every round or deadline budget, the minimised ``WitnessRecord`` must be
identical, and so must ddmin's ``attempts`` and ``rounds``. The steps a
resumed walk skips must be exactly the steps the reference re-stepped:
``walked_steps + resumed_steps`` equals the reference's successor calls
during its walks.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from repro import obs
from repro.compiler.pipeline import compile_minic
from repro.fuzz.campaign import CampaignConfig, _build_minic, _minic_program
from repro.fuzz.generators import derive_seed, generate
from repro.langs.minic import compile_unit, link_units
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    find_race,
)
from repro.semantics import replay
from repro.semantics.engine import label_kind
from repro.semantics.race import _RaceChecker
from repro.semantics.replay import (
    ReplayDivergence,
    _match_move,
    _move_of,
    minimize_witness,
    replay_schedule,
    replay_witness,
)
from repro.semantics.witness import (
    Schedule,
    WitnessRecord,
    _make_step,
    record_race,
)

RACY_C = Path(__file__).resolve().parents[2] / "examples" / "racy.c"
CAMPAIGN = CampaignConfig()


# ----- reference (verbatim) --------------------------------------------------


class _ReferenceMinimizer:
    """ddmin over a racy schedule's moves, with attempt accounting.

    ``max_rounds``/``deadline`` bound the deletion loop: ddmin on an
    unshrinkable schedule is quadratic in walk attempts, and one
    pathological fuzz finding must not stall a whole campaign. A hit
    bound stops shrinking and keeps the best (still racy, still
    replayable) schedule found so far — bounded minimization degrades
    to *less minimal*, never to *invalid*.
    """

    def __init__(self, ctx, semantics, quantum, max_atomic, init,
                 max_rounds=None, deadline=None, clock=time.monotonic):
        self.ctx = ctx
        self.semantics = semantics
        self.init = init
        self.checker = _RaceChecker(ctx, quantum, max_atomic)
        self.attempts = 0
        self.max_rounds = max_rounds
        self.deadline = deadline
        self.clock = clock
        self.budget_hit = False

    def _exhausted(self, rounds):
        if self.max_rounds is not None and rounds >= self.max_rounds:
            self.budget_hit = True
            return True
        if self.deadline is not None and self.clock() >= self.deadline:
            self.budget_hit = True
            return True
        return False

    def walk(self, moves):
        """Re-walk ``moves``; return the surviving move list or ``None``.

        A walk survives when every move finds a matching successor and
        the Race rule fires at some visited world — the walk is then
        truncated there, which is how suffix shrinking falls out for
        free.
        """
        self.attempts += 1
        world = self.semantics.initial_worlds(self.ctx)[self.init]
        for k, move in enumerate(moves):
            if self.checker(world):
                return list(moves[:k])
            if world.is_done():
                return None
            outs = self.semantics.successors(self.ctx, world)
            i = _match_move(world, outs, move)
            if i is None:
                return None
            world = outs[i].world
        return list(moves) if self.checker(world) else None

    def ddmin(self, moves):
        """Delta-debugging deletion loop: locally 1-minimal result
        (or the best schedule found when a round/deadline budget ran
        out first)."""
        rounds = 0
        granularity = 2
        while len(moves) >= 1 and granularity <= max(len(moves), 1):
            if self._exhausted(rounds):
                break
            rounds += 1
            chunk = max(1, len(moves) // granularity)
            shrunk = False
            start = 0
            while start < len(moves):
                if self.deadline is not None and \
                        self.clock() >= self.deadline:
                    # Mid-round deadline check: one round over a long
                    # schedule is itself O(len/chunk) full re-walks.
                    self.budget_hit = True
                    return moves, rounds
                candidate = moves[:start] + moves[start + chunk:]
                survived = self.walk(candidate)
                if survived is not None:
                    moves = survived
                    granularity = max(granularity - 1, 2)
                    shrunk = True
                    break
                start += chunk
            if not shrunk:
                if chunk == 1:
                    break
                granularity = min(granularity * 2, len(moves))
        return moves, rounds


def _reference_rebuild(ctx, semantics, minimizer, record, moves):
    """Re-capture the minimized walk as an exact index schedule."""
    world = semantics.initial_worlds(ctx)[minimizer.init]
    steps = []
    for move in moves:
        outs = semantics.successors(ctx, world)
        i = _match_move(world, outs, move)
        if i is None:  # pragma: no cover - walk() already validated
            raise ReplayDivergence(
                len(steps), "minimized move no longer enabled",
                expected=move,
            )
        steps.append(_make_step(i, world, outs[i]))
        world = outs[i].world
    checker = _RaceChecker(
        ctx, minimizer.checker.quantum, minimizer.checker.max_atomic_steps
    )
    if not checker(world):  # pragma: no cover - walk() already validated
        raise ReplayDivergence(
            len(steps), "minimized schedule lost the race"
        )
    witness = checker.witness
    race = {
        "tid1": witness.tid1,
        "rs1": sorted(witness.fp1.rs),
        "ws1": sorted(witness.fp1.ws),
        "bit1": witness.bit1,
        "tid2": witness.tid2,
        "rs2": sorted(witness.fp2.rs),
        "ws2": sorted(witness.fp2.ws),
        "bit2": witness.bit2,
    }
    return WitnessRecord(
        "race",
        Schedule(minimizer.init, steps, semantics.name, False),
        race,
        record.program,
        minimized=True,
        meta=record.meta,
    )


# ----- driving both minimizers ----------------------------------------------


class _Counting:
    """A semantics proxy counting ``successors`` calls."""

    def __init__(self, semantics):
        self.inner = semantics
        self.name = semantics.name
        self.calls = 0

    def initial_worlds(self, ctx):
        return self.inner.initial_worlds(ctx)

    def successors(self, ctx, world):
        self.calls += 1
        return self.inner.successors(ctx, world)


class _Clock:
    """A fake monotonic clock: one tick per reading."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def _shrink(cls, rebuild, ctx, record, max_rounds, deadline):
    """``minimize_witness``'s sequence with ``cls``/``rebuild``, a fake
    clock, and the successor calls made by the walks counted."""
    semantics = _Counting(replay.semantics_for(record.schedule.semantics))
    quantum = isinstance(semantics.inner, NonPreemptiveSemantics)
    max_atomic = record.meta.get("max_atomic_steps", 64)
    minimizer = cls(
        ctx, semantics, quantum, max_atomic, record.schedule.init,
        max_rounds=max_rounds, deadline=deadline, clock=_Clock(),
    )
    baseline = minimizer.walk([_move_of(st) for st in record.schedule.steps])
    assert baseline is not None
    moves, rounds = minimizer.ddmin(baseline)
    walked = semantics.calls
    result = rebuild(ctx, semantics.inner, minimizer, record, moves)
    return result, minimizer, rounds, walked


def _assert_same(ctx, record, max_rounds=None, deadline=None):
    ref, ref_min, ref_rounds, ref_walked = _shrink(
        _ReferenceMinimizer, _reference_rebuild, ctx, record,
        max_rounds, deadline,
    )
    new, new_min, new_rounds, new_walked = _shrink(
        replay._Minimizer, replay._rebuild, ctx, record,
        max_rounds, deadline,
    )
    assert new.as_dict() == ref.as_dict()
    assert new_min.attempts == ref_min.attempts
    assert new_rounds == ref_rounds
    assert new_min.budget_hit == ref_min.budget_hit
    assert new_min.walked_steps == new_walked
    assert new_min.walked_steps + new_min.resumed_steps == ref_walked
    replay_witness(ctx, new)
    return ref, ref_min, ref_rounds


def _assert_public_same(ctx, record, max_rounds=None):
    """``minimize_witness`` itself: same record, same counters."""
    ref, ref_min, ref_rounds = _assert_same(ctx, record, max_rounds)
    obs.reset()
    obs.configure(metrics=True)
    try:
        got = minimize_witness(ctx, record, max_rounds=max_rounds)
        counters = obs.snapshot()["counters"]
    finally:
        obs.reset()
    assert got.as_dict() == ref.as_dict()
    assert counters["witness.minimize.attempts"] == ref_min.attempts
    assert counters.get("witness.minimize.rounds", 0) == ref_rounds


# ----- inputs ----------------------------------------------------------------


def _lock_broken(index, semantics_cls):
    inp = generate(
        "minic-lock-broken", derive_seed(11, index), index=index
    )
    result, genv = _build_minic(inp)
    ctx = GlobalContext(
        _minic_program(result.source, genv, inp.entries, True)
    )
    semantics = semantics_cls(max_atomic_steps=CAMPAIGN.max_atomic_steps)
    witness = find_race(ctx, semantics, max_states=CAMPAIGN.max_states)
    assert witness is not None, "a broken lock client must race"
    record = record_race(
        witness, meta={"max_atomic_steps": semantics.max_atomic_steps}
    )
    return ctx, record


def _racy_c():
    modules, genvs, _ = link_units([compile_unit(RACY_C.read_text())])
    result = compile_minic(modules[0])
    ctx = GlobalContext(
        _minic_program(result.source, genvs[0], ["t1", "t2"], False)
    )
    witness = find_race(ctx, PreemptiveSemantics())
    return ctx, record_race(witness, meta={"max_atomic_steps": 64})


def _pad(ctx, record, rng, count):
    """Insert ``count`` context-switch round trips (``a -> b -> a``,
    which lands back on the identical interned world) at random points
    of a preemptive racy schedule: a still-valid, longer witness."""
    semantics = PreemptiveSemantics()
    worlds = replay_schedule(ctx, record.schedule, semantics).worlds
    steps = list(record.schedule.steps)
    points = sorted(rng.sample(range(len(steps)), min(count, len(steps))))
    for k in reversed(points):
        world = worlds[k]
        outs = semantics.successors(ctx, world)
        for away, out in enumerate(outs):
            if label_kind(out.label) != "sw" or out.world.cur == world.cur:
                continue
            back_outs = semantics.successors(ctx, out.world)
            back = next(
                (i for i, o in enumerate(back_outs)
                 if label_kind(o.label) == "sw" and o.world == world),
                None,
            )
            if back is not None:
                steps[k:k] = [
                    _make_step(away, world, out),
                    _make_step(back, out.world, back_outs[back]),
                ]
                break
    padded = WitnessRecord(
        "race",
        Schedule(record.schedule.init, steps, record.schedule.semantics),
        record.race,
        meta=record.meta,
    )
    replay_witness(ctx, padded)
    assert len(padded.schedule) > len(record.schedule)
    return padded


# ----- the oracle ------------------------------------------------------------


@pytest.mark.parametrize(
    "index,semantics_cls",
    list(itertools.product(
        range(6), [PreemptiveSemantics, NonPreemptiveSemantics]
    )),
)
def test_lock_broken_draws(index, semantics_cls):
    ctx, record = _lock_broken(index, semantics_cls)
    _assert_public_same(ctx, record)


@pytest.mark.parametrize("max_rounds", [0, 1, 2, 16])
def test_round_budgets(max_rounds):
    for index in range(3):
        ctx, record = _lock_broken(index, PreemptiveSemantics)
        _assert_public_same(ctx, record, max_rounds=max_rounds)


def test_racy_c():
    ctx, record = _racy_c()
    _assert_public_same(ctx, record)


@pytest.mark.parametrize("seed", range(4))
def test_racy_c_padded(seed):
    ctx, record = _racy_c()
    padded = _pad(ctx, record, random.Random(seed), 2 + seed)
    _, ref_min, _ = _assert_same(ctx, padded)
    assert ref_min.attempts > 1
    for max_rounds in (0, 1, 2, 16):
        _assert_public_same(ctx, padded, max_rounds=max_rounds)


def test_padded_lock_broken_draw():
    ctx, record = _lock_broken(0, PreemptiveSemantics)
    _assert_same(ctx, _pad(ctx, record, random.Random(7), 5))


@pytest.mark.parametrize("deadline", [1, 2, 3, 5, 8, 13, 21])
def test_deadline_mid_round(deadline):
    # The fake clock ticks once per reading, and ddmin reads it once
    # per round and once per candidate, so each deadline expires at a
    # different candidate, mostly inside a round.
    ctx, record = _lock_broken(1, PreemptiveSemantics)
    padded = _pad(ctx, record, random.Random(deadline), 4)
    _, ref_min, _ = _assert_same(ctx, padded, deadline=deadline)
    assert ref_min.budget_hit


def test_deadline_mid_round_is_reached():
    """The deadline cases above do stop inside a round: with a deadline
    of 3 the first round is cut after its first candidate."""
    ctx, record = _lock_broken(1, PreemptiveSemantics)
    padded = _pad(ctx, record, random.Random(3), 4)
    _, ref_min, rounds = _assert_same(ctx, padded, deadline=3)
    assert rounds == 1
    assert ref_min.attempts == 2  # the baseline walk and one candidate
