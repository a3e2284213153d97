"""Instrumentation of the hot layers: explorer counters, validator
obligations, compiler pass spans, per-pass timing."""

import io
import json

from repro import obs
from repro.compiler import compile_minic
from repro.lang.module import ModuleDecl, Program
from repro.langs.minic import compile_unit, link_units
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    drf,
    explore,
    program_behaviours,
)
from repro.simulation.validate import validate_compilation

SEQ = """
int g = 5;
void main() { g = g * 2; print(g); }
"""

RACY = """
int x = 0;
void t1() { x = 1; }
void t2() { x = 2; }
"""


def _build(source):
    modules, genvs, _ = link_units([compile_unit(source)])
    return modules[0], genvs[0]


def _source_program(source, entries=("main",)):
    module, genv = _build(source)
    result = compile_minic(module)
    decls = [ModuleDecl(result.source.lang, genv, result.source.module)]
    return Program(decls, list(entries))


class TestExploreMetrics:
    def test_state_and_edge_counters(self):
        obs.configure(metrics=True)
        prog = _source_program(SEQ)
        program_behaviours(
            GlobalContext(prog), PreemptiveSemantics(), max_states=1000
        )
        assert obs.counter_value("explore.states_visited") > 0
        assert obs.counter_value("explore.edges.event") >= 1
        assert obs.counter_value("explore.edges.silent") >= 1
        assert obs.counter_value("explore.done_states") == 1
        assert obs.counter_value("behaviours.traces") == 1
        assert obs.snapshot()["gauges"]["explore.frontier_hwm"] >= 1

    def test_truncation_counter_and_warning(self, capsys):
        obs.configure(metrics=True)
        prog = _source_program(SEQ)
        explore(
            GlobalContext(prog), PreemptiveSemantics(), max_states=2
        )
        assert obs.counter_value("explore.truncated_states") >= 1
        err = capsys.readouterr().err
        assert "exploration truncated at 2 states" in err

    def test_truncation_warning_without_metrics(self, capsys):
        # Diagnosable from the CLI even with observability off.
        prog = _source_program(SEQ)
        explore(
            GlobalContext(prog), PreemptiveSemantics(), max_states=2
        )
        assert "truncated" in capsys.readouterr().err

    def test_no_truncation_no_warning(self, capsys):
        prog = _source_program(SEQ)
        explore(
            GlobalContext(prog), PreemptiveSemantics(), max_states=1000
        )
        assert capsys.readouterr().err == ""


class TestRaceMetrics:
    def test_race_counters(self):
        obs.configure(metrics=True)
        prog = _source_program(RACY, entries=("t1", "t2"))
        assert not drf(prog)
        assert obs.counter_value("race.worlds_checked") > 0
        assert obs.counter_value("race.pairs_checked") > 0
        assert obs.counter_value("race.witnesses") == 1

    def test_verdict_independent_of_tracking(self):
        # pair accounting is guarded by the obs flag (the <1% disabled
        # overhead contract); the verdict must not depend on it.
        prog = _source_program(RACY, entries=("t1", "t2"))
        disabled = drf(prog)
        obs.configure(metrics=True)
        enabled = drf(prog)
        assert disabled == enabled is False


class TestHotPathMetrics:
    def test_intern_and_memory_counters_published(self):
        # explore() publishes per-run deltas of the intern-table and
        # memory-sharing plain counters.
        obs.configure(metrics=True)
        prog = _source_program(SEQ)
        explore(
            GlobalContext(prog), PreemptiveSemantics(), max_states=1000
        )
        snap = obs.snapshot()["counters"]
        assert "intern.hits" in snap
        assert "intern.misses" in snap
        # Tables are process-wide: a warm run can be all hits, a cold
        # one mostly misses — but exploring touches them either way.
        assert snap["intern.hits"] + snap["intern.misses"] > 0
        assert "memory.nodes_reused" in snap

    def test_resolve_cache_hits_counted(self):
        obs.configure(metrics=True)
        prog = _source_program(SEQ)
        ctx = GlobalContext(prog)
        ctx.resolve("main")
        ctx.resolve("main")
        assert obs.counter_value("resolve.cache_hits") >= 1


class TestValidationMetrics:
    def test_obligation_counters_per_kind(self):
        obs.configure(metrics=True)
        module, genv = _build(SEQ)
        result = compile_minic(module)
        mem = genv.memory()
        vals = validate_compilation(result, mem, mem.domain())
        assert all(v.ok for v in vals)
        for kind in ("fpmatch", "scope", "lg", "messages"):
            assert (
                obs.counter_value(
                    "validate.obligations.{}".format(kind)
                )
                > 0
            )
        assert obs.counter_value("validate.co_exec_steps") > 0
        assert obs.counter_value("validate.passes") == len(vals)

    def test_segment_memo_counters(self):
        obs.configure(metrics=True)
        module, genv = _build(SEQ)
        result = compile_minic(module)
        mem = genv.memory()
        vals = validate_compilation(result, mem, mem.domain())
        hits = obs.counter_value("validate.segment_memo.hits")
        misses = obs.counter_value("validate.segment_memo.misses")
        # No source aborts here, so every segment looks up both sides.
        assert hits + misses == 2 * sum(
            v.report.stats.segments for v in vals
        )
        assert hits == sum(v.report.memo_hits for v in vals)
        assert hits > 0 and misses > 0

    def test_pass_span_carries_memo_hits(self):
        buf = io.StringIO()
        obs.configure(trace=buf)
        module, genv = _build(SEQ)
        result = compile_minic(module)
        mem = genv.memory()
        validate_compilation(result, mem, mem.domain())
        spans = [
            rec["attrs"]
            for rec in map(json.loads, buf.getvalue().splitlines())
            if rec["type"] == "span" and rec["name"] == "validate.pass"
        ]
        assert len(spans) == 13
        first, *middle, e2e = spans
        # Stage k was co-executed as pass k's target, so pass k+1's
        # source side is served by the memo; end-to-end reuses both
        # the source's and the x86 stage's segments.
        assert first["memo_hits"] == 0
        assert all(sp["memo_hits"] == sp["segments"] for sp in middle)
        assert e2e["memo_hits"] == 2 * e2e["segments"]

    def test_per_pass_seconds_recorded(self):
        # The satellite fix: PassValidation carries real elapsed time,
        # not an even share of the total.
        module, genv = _build(SEQ)
        result = compile_minic(module)
        mem = genv.memory()
        vals = validate_compilation(result, mem, mem.domain())
        assert all(v.seconds > 0 for v in vals)
        # Real measurements essentially never come out identical.
        assert len({v.seconds for v in vals}) > 1

    def test_per_pass_table_uses_real_times(self):
        from repro.framework.build import ClientSystem
        from repro.framework.report import per_pass_table

        system = ClientSystem([SEQ], ["main"])
        rows = per_pass_table(system)
        assert all(row.seconds > 0 for row in rows)
        assert len({row.seconds for row in rows}) > 1


class TestCompileSpans:
    def test_pass_spans_carry_node_counts(self):
        buf = io.StringIO()
        obs.configure(trace=buf)
        module, _ = _build(SEQ)
        compile_minic(module)
        recs = [
            json.loads(line)
            for line in buf.getvalue().splitlines()
        ]
        passes = [
            r for r in recs
            if r["type"] == "span" and r["name"] == "compile.pass"
        ]
        assert len(passes) == 12
        for span in passes:
            assert span["attrs"]["nodes_in"] > 0
            assert span["attrs"]["nodes_out"] > 0
        compile_span = next(
            r for r in recs
            if r["type"] == "span" and r["name"] == "compile"
        )
        assert all(
            p["parent"] == compile_span["sid"] for p in passes
        )

    def test_optimize_adds_pass_spans(self):
        obs.configure(metrics=True)
        module, _ = _build(SEQ)
        compile_minic(module, optimize=True)
        assert obs.counter_value("compile.passes") == 15


class TestDisabledPathIntegrity:
    def test_results_identical_with_and_without_obs(self):
        prog = _source_program(SEQ)
        baseline = program_behaviours(
            GlobalContext(prog), PreemptiveSemantics()
        )
        obs.configure(metrics=True, trace=io.StringIO())
        instrumented = program_behaviours(
            GlobalContext(prog), PreemptiveSemantics()
        )
        assert baseline == instrumented
