"""CLI observability: --metrics / --trace flags, env-var toggles,
failure capping, validate's ledger facts — smoke-tested on the
quickstart program."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.ledger import compare_manifests, load_manifest
from repro.simulation.validate import PassValidation
from repro.simulation.local import SimulationReport

#: The program from examples/quickstart.py.
QUICKSTART = """
int g = 5;
int add(int a, int b) { return a + b; }
void main() {
  int x = 2;
  int y;
  y = add(x, g);
  print(y);
  g = y * 2;
  print(g);
  int i = 0;
  while (i < 3) { print(i); i = i + 1; }
}
"""


@pytest.fixture
def quickstart_file(tmp_path):
    path = tmp_path / "quickstart.c"
    path.write_text(QUICKSTART)
    return str(path)


class TestMetricsFlag:
    def test_run_metrics_prints_explorer_counters(
        self, quickstart_file, capsys
    ):
        assert main(["run", quickstart_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Metric" in out and "Value" in out
        assert "explore.states_visited" in out
        assert "explore.edges.event" in out
        assert "compile.passes" in out
        assert "span.explore.seconds" in out

    def test_validate_metrics_prints_obligations(
        self, quickstart_file, capsys
    ):
        assert main(["validate", quickstart_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "validate.obligations.fpmatch" in out
        assert "span.validate.pass.seconds" in out

    def test_metrics_off_no_table(self, quickstart_file, capsys):
        assert main(["run", quickstart_file]) == 0
        out = capsys.readouterr().out
        assert "Metric" not in out
        assert obs.enabled is False

    def test_env_var_toggle(self, quickstart_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert main(["run", quickstart_file]) == 0
        assert "explore.states_visited" in capsys.readouterr().out


class TestTraceFlag:
    def test_run_trace_covers_compile_and_explore(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["run", quickstart_file, "--trace", str(trace)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        names = {
            r["name"] for r in records if r["type"] == "span"
        }
        assert {"compile", "compile.pass", "explore", "behaviours"} <= names

    def test_validate_trace_covers_validation(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "validate.jsonl"
        assert main(
            ["validate", quickstart_file, "--trace", str(trace)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        names = {
            r["name"] for r in records if r["type"] == "span"
        }
        assert {"compile", "validate", "validate.pass",
                "simulate.entry"} <= names
        # Per-pass spans nest under the validate span.
        spans = [r for r in records if r["type"] == "span"]
        validate_sid = next(
            s["sid"] for s in spans if s["name"] == "validate"
        )
        assert any(
            s["parent"] == validate_sid
            for s in spans
            if s["name"] == "validate.pass"
        )

    def test_trace_plus_metrics_appends_snapshot(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "both.jsonl"
        assert main(
            ["run", quickstart_file, "--metrics",
             "--trace", str(trace)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert records[-1]["type"] == "metrics"
        assert (
            records[-1]["data"]["counters"]["explore.states_visited"]
            > 0
        )


class TestValidateFailureCap:
    def _fake_validations(self, nfailures):
        report = SimulationReport()
        for i in range(nfailures):
            report.fail("failure {}".format(i))
        return [PassValidation("Cshmgen", report, 0.01)]

    def test_more_suffix(self, quickstart_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            lambda *a, **k: self._fake_validations(7),
        )
        assert main(["validate", quickstart_file]) == 1
        out = capsys.readouterr().out
        assert out.count("failure") == 3
        assert "(+4 more)" in out

    def test_max_failures_flag(
        self, quickstart_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            lambda *a, **k: self._fake_validations(7),
        )
        assert main(
            ["validate", quickstart_file, "--max-failures", "5"]
        ) == 1
        out = capsys.readouterr().out
        assert out.count("failure") == 5
        assert "(+2 more)" in out

    def test_no_suffix_when_under_cap(
        self, quickstart_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            lambda *a, **k: self._fake_validations(2),
        )
        assert main(["validate", quickstart_file]) == 1
        out = capsys.readouterr().out
        assert out.count("failure") == 2
        assert "more)" not in out


class TestMetricsOutFlag:
    def test_snapshot_file_written(self, quickstart_file, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(
            ["run", quickstart_file, "--metrics-out", str(out)]
        ) == 0
        snap = json.loads(out.read_text())
        assert snap["counters"]["explore.states_visited"] > 0

    def test_no_stdout_table_without_metrics_flag(
        self, quickstart_file, tmp_path, capsys
    ):
        out = tmp_path / "metrics.json"
        assert main(
            ["run", quickstart_file, "--metrics-out", str(out)]
        ) == 0
        assert "Metric" not in capsys.readouterr().out

    def test_combines_with_metrics_flag(
        self, quickstart_file, tmp_path, capsys
    ):
        out = tmp_path / "metrics.json"
        assert main(
            ["run", quickstart_file, "--metrics",
             "--metrics-out", str(out)]
        ) == 0
        assert "explore.states_visited" in capsys.readouterr().out
        assert out.exists()

    def test_env_var(self, quickstart_file, tmp_path, monkeypatch):
        out = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_METRICS_OUT", str(out))
        assert main(["run", quickstart_file]) == 0
        assert "counters" in json.loads(out.read_text())


class TestValidateLedger:
    def test_manifest_records_per_pass_verdicts(
        self, quickstart_file, tmp_path
    ):
        out = tmp_path / "validate.json"
        assert main(
            ["validate", quickstart_file, "--ledger", str(out)]
        ) == 0
        doc = load_manifest(str(out))
        assert doc["command"] == "validate"
        assert doc["verdict"] == "validated"
        assert doc["failed_passes"] == []
        assert doc["passes"]["Cshmgen"] == "ok"
        assert doc["passes"]["end-to-end"] == "ok"
        assert set(doc["passes"].values()) == {"ok"}
        assert len(doc["passes"]) == len(doc["pipeline"])
        assert doc["segments"] > 0
        assert doc["co_exec_steps"] > doc["segments"]

    def test_compare_diffs_a_rejection(
        self, quickstart_file, tmp_path, monkeypatch
    ):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        assert main(
            ["validate", quickstart_file, "--ledger", str(good)]
        ) == 0
        report = SimulationReport()
        report.fail("FPmatch violated")
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            lambda *a, **k: [PassValidation("Cshmgen", report, 0.01)],
        )
        assert main(
            ["validate", quickstart_file, "--ledger", str(bad)]
        ) == 1
        doc = load_manifest(str(bad))
        assert doc["verdict"] == "rejected"
        assert doc["failed_passes"] == ["Cshmgen"]
        assert doc["passes"] == {"Cshmgen": "failed"}
        text, _ = compare_manifests(load_manifest(str(good)), doc)
        assert "verdict: validated vs rejected — DIFFER" in text
        assert "failed_passes: [] vs ['Cshmgen'] — DIFFER" in text
