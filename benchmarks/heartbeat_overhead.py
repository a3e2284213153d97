"""Heartbeat overhead gate on SCALE (3-thread lock counter).

Sequential full exploration with the status writer off and on, in
interleaved rounds; the best-of-rounds wall-clock ratio on/off must
stay within ``TARGET`` and the two graphs must be identical. Exits 1
on a divergent graph or a missed ratio.

Usage::

    PYTHONPATH=src python benchmarks/heartbeat_overhead.py
"""

import os
import sys
import tempfile
import time

from repro.framework import lock_counter_system
from repro.obs import status
from repro.semantics import GlobalContext, PreemptiveSemantics, explore

#: Maximum heartbeat-on / heartbeat-off wall-clock ratio: the 2%
#: budget of the stride-gated beat path.
TARGET = 1.02

#: Interleaved rounds per mode; each mode keeps its fastest round.
ROUNDS = 5


def _explore(prog):
    start = time.perf_counter()
    graph = explore(
        GlobalContext(prog), PreemptiveSemantics(),
        max_states=3000000, strict=True,
    )
    return graph, time.perf_counter() - start


def _shape(graph):
    return (
        graph.states, graph.edges, graph.initial,
        graph.done, graph.stuck, graph.truncated,
    )


def main():
    prog = lock_counter_system(3).source_program()
    path = os.path.join(tempfile.mkdtemp(prefix="heartbeat-"), "st.json")
    best = {"off": float("inf"), "on": float("inf")}
    shapes = {}
    for _ in range(ROUNDS):
        for mode in ("off", "on"):
            status.reset()
            if mode == "on":
                status.configure(path, interval=1.0)
            try:
                graph, seconds = _explore(prog)
            finally:
                status.reset()
            best[mode] = min(best[mode], seconds)
            shapes[mode] = _shape(graph)
    ratio = best["on"] / best["off"]
    print("heartbeat off {:.4f}s, on {:.4f}s: ratio {:.4f} (target "
          "{:.2f})".format(best["off"], best["on"], ratio, TARGET))
    if shapes["on"] != shapes["off"]:
        print("FAIL: heartbeat-on graph differs from heartbeat-off")
        return 1
    if ratio > TARGET:
        print("FAIL: heartbeat overhead above target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
