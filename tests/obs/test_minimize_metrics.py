"""Witness minimisation's observability: the ``witness.minimize`` span
and counters report the steps walks stepped and the shared-prefix steps
they skipped by resuming, and ``repro profile`` renders them."""

import json

from repro import obs
from repro.obs import profile as prof
from repro.semantics import GlobalContext, PreemptiveSemantics, find_race
from repro.semantics.replay import minimize_witness
from repro.semantics.witness import record_race

from tests.helpers import cimp_program

GUARDED = (
    "t1(){ x := 0; while(x < 2){ x := x + 1; } [C] := 1; }"
    " t2(){ [C] := 2; }"
)


def _ctx():
    return GlobalContext(cimp_program(GUARDED, ["t1", "t2"]))


def _record():
    witness = find_race(_ctx(), PreemptiveSemantics())
    return record_race(witness, meta={"max_atomic_steps": 64})


def _minimize_counted():
    obs.configure(metrics=True)
    record = _record()
    mini = minimize_witness(_ctx(), record)
    counters = {
        name: obs.counter_value("witness.minimize." + name)
        for name in ("attempts", "walked_steps", "resumed_steps",
                     "removed_steps")
    }
    return record, mini, counters


class TestCounters:
    def test_resumed_walks_are_counted(self):
        record, mini, counters = _minimize_counted()
        assert counters["attempts"] > 1
        # Every candidate after the baseline walk resumes somewhere in
        # the shared prefix; the baseline walk itself starts at 0.
        assert counters["resumed_steps"] > 0
        # The baseline walk steps the whole schedule (a race witness
        # fires only at its final world).
        assert counters["walked_steps"] >= len(record.schedule)
        assert counters["removed_steps"] == (
            len(record.schedule) - len(mini.schedule)
        )

    def test_counters_off_when_metrics_off(self):
        minimize_witness(_ctx(), _record())
        assert obs.counter_value("witness.minimize.walked_steps") == 0

    def test_span_attrs(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(metrics=True, trace=str(trace))
        minimize_witness(_ctx(), _record())
        walked = obs.counter_value("witness.minimize.walked_steps")
        resumed = obs.counter_value("witness.minimize.resumed_steps")
        obs.shutdown()
        spans = [
            rec for rec in map(json.loads, trace.read_text().splitlines())
            if rec["type"] == "span" and rec["name"] == "witness.minimize"
        ]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["walked_steps"] == walked
        assert attrs["resumed_steps"] == resumed


class TestProfile:
    def test_minimisation_line(self):
        metrics = {
            "counters": {
                "witness.minimize.attempts": 4795,
                "witness.minimize.walked_steps": 10188,
                "witness.minimize.resumed_steps": 61234,
                "witness.minimize.removed_steps": 108,
                "witness.minimize.rounds": 400,
            },
            "histograms": {
                "span.witness.minimize.seconds": {
                    "count": 96, "mean": 0.0025,
                },
            },
        }
        summary = prof.minimization_summary(metrics)
        assert summary == {
            "calls": 96,
            "seconds": 0.24,
            "attempts": 4795,
            "walked_steps": 10188,
            "resumed_steps": 61234,
            "removed_steps": 108,
            "budget_hits": 0,
        }
        text = prof.render_profile(
            {"trace_path": "t.jsonl", "main": [], "workers": {},
             "metrics": metrics}
        )
        assert (
            "witness minimisation: 4,795 walk(s) stepped 10,188 step(s) "
            "and resumed past 61,234 shared-prefix step(s); 108 step(s) "
            "removed, 0 budget hit(s); 96 call(s), 0.2400 s"
        ) in text

    def test_no_minimisation_no_line(self):
        assert prof.minimization_summary({"counters": {}}) is None
        assert prof.minimization_summary(None) is None
        text = prof.render_profile(
            {"trace_path": "t.jsonl", "main": [], "workers": {},
             "metrics": {"counters": {}}}
        )
        assert "witness minimisation" not in text

    def test_real_run(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(metrics=True, trace=str(trace))
        minimize_witness(_ctx(), _record())
        obs.shutdown()
        text = prof.profile_path(str(trace))
        assert "witness minimisation: " in text
