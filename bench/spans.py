"""In-memory spans around the calls the benchmark makes into each layer.

A span is recorded from the benchmark's own code, around one public call
(or a group of calls), never from inside the program.  The layer of a
span is its name up to the first dot: ``interpreter.run_sil`` belongs to
``interpreter``, ``bench.verify`` to the benchmark itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    model: str
    parent: int | None     # index of the enclosing span, None at the top
    start: float
    end: float = 0.0


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _OpenSpan:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str, model: str):
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append(Span(name, model, stack[-1] if stack else None, 0.0))

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index].start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].end = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Keeps every span of a run in memory; a disabled tracer records none."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, model: str):
        """Context manager timing one call made on behalf of `model`."""
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name, model)


def self_times(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Summed self time per span name over spans[first:].

    Self time is a span's duration minus the time its child spans cover.
    The benchmark runs one call at a time, so the children of a span never
    overlap and the time they cover is the sum of their durations."""
    child_time = [0.0] * len(spans)
    for sp in spans[first:]:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    out: dict[str, float] = {}
    for i in range(first, len(spans)):
        sp = spans[i]
        out[sp.name] = out.get(sp.name, 0.0) + (sp.end - sp.start) - child_time[i]
    return out
