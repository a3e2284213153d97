"""The preemptive (interleaving) global semantics (Fig. 7).

The scheduler may switch to any live thread at any point where the
current thread is outside an atomic block (the Switch rule); atomic
blocks are the only scheduling constraint. ``S1 ∥ … ∥ Sn`` in the paper.
"""

from repro.semantics.engine import (
    SW,
    GStep,
    SyncPoint,
    thread_successors,
)


class PreemptiveSemantics:
    """Successor function for preemptive execution."""

    name = "preemptive"

    #: The ample-set reducer in :mod:`repro.semantics.por` is sound for
    #: this semantics (free Switch rule, per-step preemption).
    supports_por = True

    def __init__(self, max_atomic_steps=64):
        #: Bound on atomic-block prediction runs (Predict-1, Fig. 9).
        #: Carried on the semantics so race detection and witness
        #: metadata can never disagree on the configured horizon.
        self.max_atomic_steps = max_atomic_steps

    def successors(self, ctx, world, thread_results=None):
        """All global steps from ``world``: thread steps plus Switch.

        A terminated current thread yields only switch edges; a fully
        terminated world yields no successors (the ``done`` outcome).
        ``thread_results`` optionally carries the already-processed
        global outcomes of the current thread (the POR ample decision
        computes them, so a refused reduction adds only the Switch
        edges).
        """
        if thread_results is None:
            thread_results = thread_successors(ctx, world)
        results = []
        for outcome in thread_results:
            if isinstance(outcome, SyncPoint):
                # The preemptive semantics has no special switch points:
                # the step itself is an ordinary global step, and the
                # free Switch rule below covers rescheduling.
                results.append(
                    GStep(outcome.label, outcome.fp, outcome.world)
                )
            else:
                results.append(outcome)

        # Switch rule: any live thread may be scheduled when the current
        # thread is not inside an atomic block. Self-switches are
        # identities and omitted to keep state graphs small.
        cur = world.cur
        if world.bits[cur] == 0:
            for target, frames in enumerate(world.threads):
                if frames and target != cur:
                    results.append(
                        GStep(SW, None, world.with_current(target))
                    )
        return results

    def initial_worlds(self, ctx):
        return ctx.load()


def successors(ctx, world):
    """Module-level convenience wrapper."""
    return PreemptiveSemantics().successors(ctx, world)
