"""Spans recorded by the benchmark around its calls into the program.

A span is (id, name, tag, start_ns, end_ns, parent id, operation id). Spans
stay in memory and are written out once, when the run ends. With tracing
off the workloads use NULL, whose spans do nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "tag", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(
            (self.sid, self.name, self.tag, self.start, end, self.parent, tr.op_id)
        )
        return False


class Tracer:
    """In-memory span recorder; `op_id` is set by the loop for each operation."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.op_id: int | None = None

    def span(self, name: str, tag=None) -> _Span:
        return _Span(self, name, tag)

    def durations(self, name: str, tag=None) -> list[float]:
        """Seconds of every span with this name (and tag, when given)."""
        return [
            (end - start) / 1e9
            for _, n, t, start, end, _, _ in self.spans
            if n == name and (tag is None or t == tag)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "tag", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def span_cost_s(repeats: int = 20000) -> float:
    """Seconds one span costs to open and close, timed on a scratch tracer."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(repeats):
        with tr.span("probe"):
            pass
    return (time.perf_counter() - start) / repeats


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, tag=None) -> _NullSpan:
        return self._span


NULL = _NullTracer()


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]
