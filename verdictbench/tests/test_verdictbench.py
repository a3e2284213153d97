"""The verdict benchmark's own tests.

Run from the repository root::

    python3 -m pytest verdictbench/tests -q
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

wl = run.load_layers()

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def _input_digest(name, seed, passes=2):
    workload = wl.WORKLOADS[name]
    state = workload.setup(seed)
    digest = hashlib.sha256()
    for p in range(passes):
        for req in workload.requests(state, p):
            digest.update("{}:{}\n".format(req.kind, req.key).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert _input_digest(name, 7) == _input_digest(name, 7)


def test_drf_seed_changes_inputs():
    assert _input_digest("drf", 7) != _input_digest("drf", 8)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        wl.WORKLOADS
    )


def test_metric_tables_match_benchmark_json():
    spec_e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    spec_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert spec_e2e == list(run.END_TO_END)
    assert spec_layer == list(run.per_layer_units(wl.VALIDATED_PASSES))


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py")] + list(args),
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    return proc


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run_cli("--workload", "drf", "--seed", "3", "--seconds", "0.5",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


def _main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_doctored_fingerprint_fails_the_run(monkeypatch):
    threads, reduce, states, _fp = wl.SCALE["por3"]
    monkeypatch.setattr(
        wl, "SCALE", {"por3": (threads, reduce, states, "0" * 16)}
    )
    code, result = _main(["--workload", "scale", "--seed", "1",
                          "--seconds", "0.1"])
    assert code == 1
    assert result["correct"] is False


def test_doctored_verdict_fails_the_run(monkeypatch):
    honest_requests = wl.Drf.requests

    def doctored_requests(self, state, p):
        reqs = honest_requests(self, state, p)
        for req in reqs:
            if req.kind == "minic-lock":
                req.payload.expect_drf = False
        return reqs

    monkeypatch.setattr(wl.Drf, "requests", doctored_requests)
    code, result = _main(["--workload", "drf", "--seed", "1",
                          "--seconds", "0.1"])
    assert code == 1
    assert result["correct"] is False


def test_doctored_fig13_shape_fails_the_run(monkeypatch):
    monkeypatch.setattr(wl, "FIG13_PASSES", wl.FIG13_PASSES[:-1])
    code, result = _main(["--workload", "validate", "--seed", "1",
                          "--seconds", "0.1"])
    assert code == 1
    assert result["correct"] is False


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "verdictbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "verdictbench/run.py", "--workload", "drf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
