"""The verdict benchmark: one closed-loop client asking for verdicts.

Usage (from the repository root)::

    python3 verdictbench/run.py --workload validate --seed 1 \\
        --seconds 20 --trace 0

A request is one verdict (see :mod:`workloads`). The client sends the
next request only when the previous verdict is in, from this one
process (``scale-sharded`` forks its explorer's workers). A run sends
its workload's requests in whole passes until ``--seconds`` have
passed, and every pass sends the same requests, so every run measures
the same mix.

Time metrics are in *reference seconds*. Before a request, at most
every ``PROBE_EVERY_S``, the client times a fixed piece of pure-Python
work that runs none of the code under test (the speed probe). Other
load on a shared machine slows the probe and the requests alike, by up
to 2x for minutes at a time, so each phase's measured seconds are
scaled by ``REF_PROBE_S`` over the probe's median time in that phase:
a time reads as it would on a machine that runs the probe in
``REF_PROBE_S``. Measured seconds and the factor are printed and kept.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` first runs untraced for half the time, then runs as many
passes again with a span around every layer call, and prints the
per-layer metrics of the traced passes plus the tracing overhead
(traced over untraced request wall). The last line of standard output
is the result as JSON; the run's details (runner identity, per-layer
report, latencies, spans) go to ``.verdictbench/`` under the
repository root.

Exit status: 0 when every verdict is right, 1 when a verdict is wrong,
2 when the repository's sources are missing.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".verdictbench")

#: Set-ups per run: ``setup_s`` is the median import time plus the
#: median set-up, scaled by the probes taken before each set-up.
SETUP_REPS = 3

#: The speed probe's work (integer-loop steps, dict entries), how often
#: it is taken at most, and its duration at the reference speed.
PROBE_STEPS = 50000
PROBE_ITEMS = 20000
PROBE_EVERY_S = 0.25
REF_PROBE_S = 0.02

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("cpu_s_per_verdict", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units(validated_passes):
    """(name, unit) of the per-layer metrics, printed with ``--trace 1``.

    Times are span self time per verdict in reference seconds; counts
    of work are per verdict, except ``compiler.nodes_out`` (per
    compiled unit) and the verdict, pass and truncation counts (totals
    of the traced half).
    """
    return (
        (("langs.minic.parse_s", "s"),
         ("compiler.compile_s", "s"),
         ("compiler.nodes_out", "count"),
         ("simulation.validate_s", "s"))
        + tuple(
            ("simulation.validate_s." + name, "s")
            for name in validated_passes
        )
        + (("simulation.segments", "count"),
           ("simulation.co_exec_steps", "count"),
           ("simulation.rely_moves", "count"),
           ("simulation.obligations", "count"),
           ("simulation.steps_per_s", "1/s"),
           ("simulation.failed_passes", "count"),
           ("semantics.explore_s", "s"),
           ("semantics.behaviours_s", "s"),
           ("semantics.states", "count"),
           ("semantics.explore_states_per_s", "1/s"),
           ("semantics.truncated", "count"),
           ("intern.hit_ratio", "ratio"),
           ("intern.peak_entries", "count"),
           ("race.find_race_s", "s"),
           ("race.drf_verdicts", "count"),
           ("race.race_verdicts", "count"),
           ("witness.record_s", "s"),
           ("witness.minimize_s", "s"),
           ("witness.replay_s", "s"),
           ("witness.minimized_ratio", "ratio"),
           ("witness.replay_ok_ratio", "ratio"),
           ("parallel.cpu_s_per_world", "s"),
           ("parallel.wall_s_per_world", "s"),
           ("parallel.child_cpu_share", "ratio"),
           ("trace.overhead_ratio", "ratio"),
           ("trace.unattributed_s", "s"))
    )


def _ratio(num, den):
    return num / den if den else 0.0


def load_layers():
    """Import the repository's layers from ``src`` next to this
    directory, and nothing else: the benchmark measures the checkout it
    sits in. Exits with status 2 when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            "verdictbench: no repository sources at {}\n".format(SRC)
        )
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro
    import workloads

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write("verdictbench: repro imported from {}\n".format(
            repro.__file__
        ))
        raise SystemExit(2)
    return workloads


def probe():
    """Seconds taken by fixed pure-Python work that runs none of the
    code under test: an integer loop, then building, scanning and
    collecting a table of small containers (interpreter dispatch,
    allocation, dict and collector work, as in the layers)."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_STEPS):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    enabled = gc.isenabled()
    gc.disable()  # collect only the probe's own young objects, below
    try:
        table = {}
        for i in range(PROBE_ITEMS):
            table[(i, i % 97)] = [i, (i, x)]
        for key in list(table):
            if key[1] == 3:
                del table[key]
        gc.collect(0)
        del table
    finally:
        if enabled:
            gc.enable()
    return time.perf_counter() - start


def scale_factor(probes):
    """Multiplier from measured to reference seconds."""
    return REF_PROBE_S / statistics.median(probes)


class Phase:
    """A closed loop over whole passes of one workload's requests."""

    def __init__(self, wl, workload, state, tracer):
        self.wl = wl
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.samples = []
        self.probes = []
        self.last_probe = None
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.acc = Counter()

    def run(self, seconds=None, passes=None):
        start = time.perf_counter()
        while (
            self.passes < passes if passes is not None
            else time.perf_counter() - start < seconds
        ):
            for req in self.workload.requests(self.state, self.passes):
                self.one(req)
            self.passes += 1

    def factor(self):
        """The phase's measured-to-reference multiplier."""
        return scale_factor(self.probes)

    def scaled(self):
        """``(key, wall, cpu)`` of every request, in reference seconds."""
        f = self.factor()
        return [(key, wall * f, cpu * f) for key, wall, cpu in self.samples]

    def one(self, req):
        wl = self.wl
        wl.cold(self.workload.collect)
        now = time.perf_counter()
        if self.last_probe is None or now - self.last_probe >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.last_probe = now
        before = wl.intern.totals()
        out = None
        ok = False
        cpu0 = time.process_time()
        kids0 = wl.children_cpu()
        t0 = time.perf_counter()
        try:
            with self.tracer.request_span(self.attempted, req.kind):
                out = wl.RUN[req.kind](self.tracer, self.acc, req.payload)
            ok = True
        except wl.BOUND_ERRORS:
            pass
        except wl.WrongVerdict:
            raise
        except Exception:  # a crash is a failed request, not a stop
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0 + wl.children_cpu() - kids0
        self.samples.append((req.key, wall, cpu))
        self.attempted += 1
        after = wl.intern.totals()
        self.acc["intern.hits"] += after.hits - before.hits
        self.acc["intern.misses"] += after.misses - before.misses
        if not ok:
            self.failed += 1
            return
        check = wl.CHECK.get(req.kind)
        if check is not None:
            check(req.payload, out)
        if self.tracer.enabled and req.kind in wl.COMPILES:
            self.acc["nodes_out"] += wl.count_nodes(out)
            self.acc["compiles"] += 1


def end_to_end(phase, setup_s):
    """The end-to-end metrics, time in reference seconds."""
    scaled = phase.scaled()
    lat = sorted(wall for _key, wall, _cpu in scaled)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": setup_s,
        "verdicts_per_s": (phase.attempted - phase.failed) / sum(lat),
        "verdict_p50_ms": 1000.0 * statistics.median(lat),
        "verdict_p90_ms": 1000.0 * _quantile(lat, 0.9),
        "cpu_s_per_verdict": sum(
            cpu for _key, _wall, cpu in scaled
        ) / phase.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _quantile(ordered, q):
    """Linear-interpolated quantile of a sorted, non-empty list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(wl, rows, phase, overhead):
    """The per-layer metrics of a traced phase, time in reference
    seconds per verdict."""
    acc = phase.acc
    f = phase.factor()
    verdicts = max(phase.attempted, 1)

    def self_s(*names):
        return f * sum(rows[n]["self_s"] for n in names if n in rows)

    validate_s = self_s("simulation.validate", "framework.per_pass_table")
    explore_s = self_s("semantics.explore")
    metrics = {
        "langs.minic.parse_s": self_s("langs.minic.parse") / verdicts,
        "compiler.compile_s": self_s("compiler.compile") / verdicts,
        "compiler.nodes_out": _ratio(acc["nodes_out"], acc["compiles"]),
        "simulation.validate_s": validate_s / verdicts,
    }
    for name in wl.VALIDATED_PASSES:
        metrics["simulation.validate_s." + name] = (
            f * acc["pass_s." + name] / verdicts
        )
    metrics.update({
        "simulation.segments": acc["segments"] / verdicts,
        "simulation.co_exec_steps": acc["co_exec_steps"] / verdicts,
        "simulation.rely_moves": acc["rely_moves"] / verdicts,
        "simulation.obligations": acc["obligations"] / verdicts,
        "simulation.steps_per_s": _ratio(acc["co_exec_steps"], validate_s),
        "simulation.failed_passes": acc["failed_passes"],
        "semantics.explore_s": explore_s / verdicts,
        "semantics.behaviours_s": self_s("semantics.behaviours") / verdicts,
        "semantics.states": acc["states"] / verdicts,
        "semantics.explore_states_per_s": _ratio(acc["states"], explore_s),
        "semantics.truncated": acc["truncated"],
        "intern.hit_ratio": _ratio(
            acc["intern.hits"], acc["intern.hits"] + acc["intern.misses"]
        ),
        "intern.peak_entries": wl.intern.totals().peak_size,
        "race.find_race_s": self_s("race.find_race") / verdicts,
        "race.drf_verdicts": acc["drf_verdicts"],
        "race.race_verdicts": acc["race_verdicts"],
        "witness.record_s": self_s("witness.record") / verdicts,
        "witness.minimize_s": self_s("witness.minimize") / verdicts,
        "witness.replay_s": self_s("witness.replay") / verdicts,
        "witness.minimized_ratio": _ratio(
            acc["minimized_steps"], acc["original_steps"]
        ),
        "witness.replay_ok_ratio": _ratio(acc["replay_ok"], acc["replays"]),
        "parallel.cpu_s_per_world": f * _ratio(
            acc["par.cpu_s"], acc["par.worlds"]
        ),
        "parallel.wall_s_per_world": f * _ratio(
            acc["par.wall_s"], acc["par.worlds"]
        ),
        "parallel.child_cpu_share": _ratio(
            acc["par.child_cpu_s"], acc["par.cpu_s"]
        ),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_s": self_s(
            *[n for n in rows if n.startswith("request.")]
        ) / verdicts,
    })
    return metrics


def runner_identity(reps=5):
    """Python, core count and a calibration score (speed probes per
    second, best of ``reps``): tells runners apart; not a gated metric."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "calibration_probes_per_s": 1.0 / min(
            probe() for _ in range(reps)
        ),
    }


def _result(correct, attempted, failed, values, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(own, probes=2):
    """Median time to import the layers: this process's own import and
    ``probes`` fresh interpreters doing the same."""
    code = (
        "import sys, time\n"
        "sys.path[:0] = [{!r}, {!r}]\n"
        "start = time.perf_counter()\n"
        "import workloads\n"
        "print(time.perf_counter() - start)\n"
    ).format(SRC, HERE)
    times = [own]
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    runner = runner_identity()
    start = time.perf_counter()
    wl = load_layers()
    import_s = import_seconds(time.perf_counter() - start)
    from tracing import Tracer, format_report, layer_report

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write("verdictbench: unknown workload {!r} ({})\n".format(
            args.workload, ", ".join(sorted(wl.WORKLOADS))
        ))
        return 2
    setups = []
    setup_probes = []
    plain = traced = None
    correct = True
    try:
        for _ in range(SETUP_REPS):
            wl.cold(True)
            setup_probes.append(probe())
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setups.append(time.perf_counter() - start)
        plain = Phase(wl, workload, state, Tracer(False))
        if args.trace:
            plain.run(seconds=args.seconds / 2.0)
            traced = Phase(wl, workload, state, Tracer(True))
            traced.run(passes=plain.passes)
        else:
            plain.run(seconds=args.seconds)
    except wl.WrongVerdict as exc:
        sys.stderr.write("verdictbench: WRONG VERDICT: {}\n".format(exc))
        correct = False
    phases = [p for p in (plain, traced) if p is not None]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print("runner " + json.dumps(runner, sort_keys=True))
    detail = {
        "args": vars(args), "runner": runner,
        "import_s": import_s, "setups_s": setups,
        "setup_probes_s": setup_probes,
        "phases": [
            {"samples": p.samples, "probes_s": p.probes, "passes": p.passes}
            for p in phases
        ],
    }
    if not correct:
        print(json.dumps(_result(False, attempted, failed, {}, ())))
        return 1
    setup_raw = import_s + statistics.median(setups)
    setup_s = setup_raw * scale_factor(setup_probes)
    print("{} seed {}: {} verdicts in {} passes, {} failed (failed_ratio "
          "{:.4f}); setup {:.3f} s measured; reference-seconds factor "
          "{:.4f}".format(
              args.workload, args.seed, attempted,
              sum(p.passes for p in phases), failed,
              _ratio(failed, attempted), setup_raw, plain.factor(),
          ))
    if args.trace:
        rows, wall = layer_report(traced.tracer.spans)
        overhead = _ratio(
            sum(w for _k, w, _c in traced.scaled()),
            sum(w for _k, w, _c in plain.scaled()),
        )
        values = per_layer(wl, rows, traced, overhead)
        units = per_layer_units(wl.VALIDATED_PASSES)
        print(format_report(rows, wall, traced.attempted))
        print("tracing overhead (traced / untraced request wall, in "
              "reference seconds): {:.4f}".format(overhead))
        detail.update(layers=rows, spans=traced.tracer.spans)
    else:
        values = end_to_end(plain, setup_s)
        units = END_TO_END
    result = _result(True, attempted, failed, values, units)
    detail["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace
    ))
    with open(out_path, "w") as handle:
        json.dump(detail, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
