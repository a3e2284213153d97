"""Behaviour enumeration's observability: the ``behaviours`` span and
counters report visited ``(state, trace)`` pairs, interned traces and
divergent states, and ``repro profile`` renders them."""

import io
import json

from repro import obs
from repro.obs import profile as prof
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    behaviours,
    explore,
)

from tests.helpers import cimp_program

SPIN = "main(){ while(1 == 1){ [C] := 0; } }"
PRINTS = "main(){ print(1); print(2); }"


def _graph(source):
    return explore(
        GlobalContext(cimp_program(source, ["main"])),
        PreemptiveSemantics(),
    )


def _counters():
    return {
        name: obs.counter_value("behaviours." + name)
        for name in ("traces", "pairs", "interned_traces",
                     "divergent_states")
    }


class TestCounters:
    def test_spin_loop(self):
        graph = _graph(SPIN)
        obs.configure(metrics=True)
        behaviours(graph)
        # One trace (the empty one); every state is visited with it
        # and can diverge.
        assert _counters() == {
            "traces": 1,
            "pairs": graph.state_count(),
            "interned_traces": 1,
            "divergent_states": graph.state_count(),
        }

    def test_event_trace(self):
        graph = _graph(PRINTS)
        obs.configure(metrics=True)
        behaviours(graph)
        got = _counters()
        # (), (1,) and (1, 2): three interned traces, one behaviour.
        assert got["traces"] == 1
        assert got["interned_traces"] == 3
        assert got["divergent_states"] == 0
        assert got["pairs"] == graph.state_count()

    def test_counters_accumulate_over_calls(self):
        graph = _graph(SPIN)
        obs.configure(metrics=True)
        behaviours(graph)
        behaviours(graph)
        assert obs.counter_value("behaviours.pairs") == (
            2 * graph.state_count()
        )


class TestSpan:
    def test_span_attrs(self):
        graph = _graph(PRINTS)
        buf = io.StringIO()
        obs.configure(trace=buf)
        behaviours(graph)
        spans = {
            rec["name"]: rec.get("attrs", {})
            for rec in map(json.loads, buf.getvalue().splitlines())
            if rec["type"] == "span"
        }
        attrs = spans["behaviours"]
        assert attrs["traces"] == 1
        assert attrs["interned_traces"] == 3
        assert attrs["divergent_states"] == 0
        assert attrs["pairs"] == graph.state_count()
        assert "behaviours.divergence" in spans


class TestProfile:
    def test_enumeration_line(self):
        metrics = {
            "counters": {
                "behaviours.traces": 29,
                "behaviours.pairs": 192318,
                "behaviours.interned_traces": 65,
                "behaviours.divergent_states": 40302,
            },
            "histograms": {
                "span.behaviours.seconds": {"count": 2, "mean": 0.25},
            },
        }
        summary = prof.enumeration_summary(metrics)
        assert summary == {
            "calls": 2,
            "seconds": 0.5,
            "pairs": 192318,
            "interned_traces": 65,
            "divergent_states": 40302,
            "behaviours": 29,
        }
        text = prof.render_profile(
            {"trace_path": "t.jsonl", "main": [], "workers": {},
             "metrics": metrics}
        )
        assert (
            "behaviour enumeration: 192,318 (state, trace) pair(s) over "
            "65 interned trace(s), 40,302 divergent state(s) -> 29 "
            "behaviour(s); 2 call(s), 0.5000 s, 384,636 pairs/s"
        ) in text

    def test_no_enumeration_no_line(self):
        assert prof.enumeration_summary({"counters": {}}) is None
        assert prof.enumeration_summary(None) is None

    def test_real_run(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(metrics=True, trace=str(trace))
        behaviours(_graph(SPIN))
        obs.shutdown()
        text = prof.profile_path(str(trace))
        assert "behaviour enumeration: " in text
        assert "behaviours.divergence" in text
