"""The interleaving inspector: witness timelines and trace summaries."""

import io
import json

from repro import obs
from repro.obs.explain import (
    inspect_path,
    racy_addrs,
    render_trace_summary,
    render_witness,
    sniff_artifact,
)
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    explore,
    find_race,
)
from repro.semantics.witness import (
    capture_abort_schedule,
    record_abort,
    record_race,
    save_witness,
)

from tests.helpers import cimp_program

GUARDED = (
    "t1(){ x := 0; while(x < 2){ x := x + 1; } [C] := 1; }"
    " t2(){ [C] := 2; }"
)


def _race_record():
    ctx = GlobalContext(cimp_program(GUARDED, ["t1", "t2"]))
    witness = find_race(ctx, PreemptiveSemantics())
    return record_race(
        witness, program={"threads": "t1,t2"},
        meta={"max_atomic_steps": 64},
    )


class TestRacyAddrs:
    def test_conflicting_write_starred(self):
        race = {"rs1": [], "ws1": [100], "rs2": [], "ws2": [100]}
        assert racy_addrs(race) == {100}

    def test_read_write_conflict(self):
        race = {"rs1": [100], "ws1": [], "rs2": [], "ws2": [100]}
        assert racy_addrs(race) == {100}

    def test_disjoint_footprints_empty(self):
        race = {"rs1": [1], "ws1": [2], "rs2": [3], "ws2": [4]}
        assert racy_addrs(race) == frozenset()

    def test_no_race_dict(self):
        assert racy_addrs(None) == frozenset()


class TestRenderWitness:
    def test_timeline_has_thread_columns(self):
        text = render_witness(_race_record())
        assert "t0" in text and "t1" in text
        assert "Step" in text and "Footprint" in text
        assert "verdict=race" in text
        assert "semantics=preemptive" in text

    def test_conflict_addresses_starred(self):
        record = _race_record()
        text = render_witness(record)
        hot = racy_addrs(record.race)
        assert hot  # the guarded program really races
        addr = next(iter(hot))
        assert "{}*".format(addr) in text
        assert "conflicting address(es):" in text

    def test_program_info_shown(self):
        text = render_witness(_race_record())
        assert "threads=t1,t2" in text

    def test_empty_schedule_notice(self):
        ctx = GlobalContext(
            cimp_program(
                "t1(){ [C] := 1; } t2(){ [C] := 2; }", ["t1", "t2"]
            )
        )
        record = record_race(find_race(ctx, PreemptiveSemantics()))
        text = render_witness(record)
        assert "empty schedule" in text

    def test_abort_witness_rendered(self):
        ctx = GlobalContext(
            cimp_program(
                "t1(){ [D] := 1; } t2(){ skip; }", ["t1", "t2"],
                symbols={"D": 999}, init={},
            )
        )
        sem = PreemptiveSemantics()
        graph = explore(ctx, sem, 10000)
        record = record_abort(capture_abort_schedule(ctx, sem, graph))
        text = render_witness(record)
        assert "verdict=abort" in text
        assert "ABORT" in text


class TestRenderTraceSummary:
    def _trace_records(self):
        buf = io.StringIO()
        obs.configure(metrics=True, trace=buf)
        with obs.span("explore"):
            obs.inc("explore.states_visited", 5)
        with obs.span("explore"):
            pass
        obs.event("witness.captured", steps=3)
        obs.warn("something odd")
        obs.shutdown()
        return obs.read_trace(io.StringIO(buf.getvalue()))

    def test_span_aggregates(self):
        text = render_trace_summary(self._trace_records())
        assert "explore" in text
        assert "Span" in text and "Count" in text
        assert "schema v1" in text

    def test_events_and_warnings_tallied(self):
        text = render_trace_summary(self._trace_records())
        assert "witness.captured" in text
        assert "something odd" in text

    def test_final_metrics_shown(self):
        text = render_trace_summary(self._trace_records())
        assert "final metrics:" in text
        assert "explore.states_visited" in text

    def test_empty_trace(self):
        assert "0 record(s)" in render_trace_summary([])


class TestSniffAndInspect:
    def test_sniff_witness(self, tmp_path):
        path = tmp_path / "w.json"
        save_witness(str(path), _race_record())
        assert sniff_artifact(str(path)) == "witness"
        assert "verdict=race" in inspect_path(str(path))

    def test_sniff_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [
            {"type": "meta", "version": 1, "clock": "monotonic"},
            {"type": "span", "name": "explore", "sid": 1,
             "parent": None, "ts": 0.0, "dur": 0.25},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert sniff_artifact(str(path)) == "trace"
        assert "explore" in inspect_path(str(path))

    def test_sniff_and_render_run_manifest(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "type": "run-manifest", "version": 1, "command": "drf",
            "argv": ["drf", "p.c"], "started_at": "t0",
            "finished_at": "t1", "wall_seconds": 1.5,
            "exit_status": 0, "verdict": "drf",
            "content_hash": "abc123", "fingerprint": "feedbeef",
            "states": 5028, "states_per_second": 1778.9,
            "config": {"por": True, "jobs": 2},
            "phases": {"explore": 1.2, "behaviours": 0.1},
        }))
        assert sniff_artifact(str(path)) == "run-manifest"
        text = inspect_path(str(path))
        assert "command=drf" in text and "verdict=drf" in text
        assert "content hash: abc123" in text
        assert "behaviour fingerprint: feedbeef" in text
        assert "5,028" in text and "1,778.9 states/s" in text
        assert "por" in text and "explore" in text

    def test_sniff_and_render_heartbeat(self, tmp_path):
        path = tmp_path / "st.json"
        path.write_text(json.dumps({
            "type": "heartbeat", "version": 1, "pid": 7,
            "time": 0.0, "uptime_seconds": 2.0,
            "interval_seconds": 1.0, "beats": 3, "states": 99,
            "frontier": 4, "rolling_states_per_second": 50.0,
            "overall_states_per_second": 49.5, "phase": "done",
        }))
        assert sniff_artifact(str(path)) == "heartbeat"
        text = inspect_path(str(path))
        assert "phase=done" in text
        assert "99 state(s)" in text

    def test_sniff_and_render_fuzz_findings(self, tmp_path):
        path = tmp_path / "findings.json"
        path.write_text(json.dumps({
            "type": "fuzz-findings", "version": 1,
            "campaign": {"seed": 3, "count": 10},
            "findings": [
                {
                    "kind": "race", "expected": True,
                    "detail": "injected race detected",
                    "input": {"kind": "minic-lock-broken",
                              "index": 2, "seed": 99,
                              "hash": "ab" * 32},
                    "schedule_steps": 17,
                    "witness": "corpus/witnesses/abab.json",
                },
                {
                    "kind": "crash", "expected": False,
                    "detail": "Traceback...\nBoomError: bad",
                    "input": {"kind": "minic-seq", "index": 5,
                              "seed": 7, "hash": "cd" * 32},
                },
            ],
        }))
        assert sniff_artifact(str(path)) == "fuzz-findings"
        text = inspect_path(str(path))
        assert "fuzz findings: 2 total, 1 unexpected" in text
        assert "minic-lock-broken" in text
        assert "NO" in text  # the unexpected row stands out
        assert "BoomError: bad" in text  # last detail line surfaces

    def test_render_empty_findings_log(self, tmp_path):
        path = tmp_path / "findings.json"
        path.write_text(json.dumps({
            "type": "fuzz-findings", "version": 1,
            "campaign": {"seed": 1}, "findings": [],
        }))
        text = inspect_path(str(path))
        assert "fuzz findings: 0 total, 0 unexpected" in text
        assert "seed=1" in text

    def test_sniff_and_render_fuzz_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({
            "type": "fuzz-checkpoint", "version": 1,
            "payload": {
                "generator_version": 1, "seed": 4, "count": 5,
                "kinds": ["minic-seq", "cimp-pair"],
                "done": {"0": "aa", "2": "bb"},
            },
        }))
        assert sniff_artifact(str(path)) == "fuzz-checkpoint"
        text = inspect_path(str(path))
        assert "fuzz checkpoint: 2/5 input(s) finished" in text
        assert "seed=4" in text
        assert "pending index(es): 1, 3, 4" in text

    def test_complete_checkpoint_says_so(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({
            "type": "fuzz-checkpoint", "version": 1,
            "payload": {
                "generator_version": 1, "seed": 0, "count": 1,
                "kinds": ["minic-seq"], "done": {"0": "aa"},
            },
        }))
        assert "campaign complete" in inspect_path(str(path))
