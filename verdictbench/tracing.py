"""Spans recorded around the benchmark's calls into the layers.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (``None`` for a request root) and
``request`` the id of the verdict the span belongs to. Spans stay in a
list in memory and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the time covered by
its direct child spans (spans nest strictly, one thread records them).
For a request root, self time is the part of the verdict no layer span
accounts for: the benchmark's own glue plus any layer call not wrapped.
"""

import time

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        stack = tr.stack
        self.index = len(tr.spans)
        tr.spans.append([
            self.name, _clock(), None,
            stack[-1] if stack else None, tr.request,
        ])
        stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = _clock()
        tr.stack.pop()
        return False


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.spans = []
        self.stack = []
        self.request = None

    def span(self, name):
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def request_span(self, request_id, kind):
        """The root span of one verdict; child spans inherit the id."""
        self.request = request_id
        return self.span("request." + kind)


def self_times(spans):
    """Per-span self time: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _rid in spans:
        if parent is not None:
            child[parent] += end - start
    return [
        (span[2] - span[1]) - child[i] for i, span in enumerate(spans)
    ]


def layer_report(spans):
    """``{span name: {"self_s", "count", "share"}}`` plus the request wall.

    ``share`` is the name's summed self time over the summed wall of all
    request roots, so the shares of one run add up to 1.
    """
    own = self_times(spans)
    wall = sum(s[2] - s[1] for s in spans if s[3] is None)
    rows = {}
    for span, self_s in zip(spans, own):
        row = rows.setdefault(span[0], {"self_s": 0.0, "count": 0})
        row["self_s"] += self_s
        row["count"] += 1
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall else 0.0
    return rows, wall


def format_report(rows, wall, verdicts):
    """The per-layer table printed after a traced run (measured
    seconds)."""
    lines = [
        "{:<32} {:>10} {:>8} {:>12} {:>7}".format(
            "span", "self_s", "count", "ms/verdict", "share"
        )
    ]
    for name, row in sorted(
        rows.items(), key=lambda item: -item[1]["self_s"]
    ):
        lines.append("{:<32} {:>10.4f} {:>8} {:>12.4f} {:>6.1%}".format(
            name, row["self_s"], row["count"],
            1000.0 * row["self_s"] / max(verdicts, 1), row["share"],
        ))
    lines.append("request wall {:.4f} s over {} verdicts".format(
        wall, verdicts
    ))
    return "\n".join(lines)
