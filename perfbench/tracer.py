"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own files, around each call it
makes into a keysoundgen public function: nothing under src/ is edited.
Each span keeps its layer name, start and end (time.perf_counter), the
index of its parent span, the request id (chart, sample or pass id), the
number of items the call handled, and whether the call raised.  Spans
stay in memory and are aggregated when the run ends.

An untraced run uses a disabled tracer: `span` hands back one shared
no-op context, so the end-to-end numbers carry no bookkeeping.
"""

from __future__ import annotations

import time

import numpy as np


class _NoSpan:
    """What a disabled tracer hands out; item counts written to it are dropped."""

    items = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "items", "failed")

    def __init__(self, name, start, parent, request, items):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.items = items
        self.failed = False


class _Open:
    """Context manager for one recorded span."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> Span:
        return self.tracer.spans[self.index]

    def __exit__(self, kind, value, tb):
        span = self.tracer.spans[self.index]
        span.end = time.perf_counter()
        span.failed = kind is not None
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, request=None, items: int = 0):
        if not self.enabled:
            return _NO_SPAN
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, request, items))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Open(self, index)

    def to_records(self) -> list[dict]:
        """Plain dicts, for writing the spans out at the end of a run."""
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
                "items": s.items,
                "failed": s.failed,
            }
            for s in self.spans
        ]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """calls, busy, self time, items and failures per layer name.

    Self time is a span's duration minus the time its direct children
    cover; one thread runs every call, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, dict] = {}
    for s, children in zip(spans, child_time):
        t = totals.setdefault(
            s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0, "failed": 0}
        )
        duration = s.end - s.start
        t["calls"] += 1
        t["busy_s"] += duration
        t["self_s"] += duration - children
        t["items"] += s.items
        t["failed"] += int(s.failed)
    return totals


class ForwardProbe:
    """Wraps SelectorModel.forward from outside the package.

    Each call appends (end time, rows) so a run can count calls and rows
    and, for training, read one validation pass per epoch as the epoch
    boundary.  The original method is restored on exit.
    """

    def __init__(self, model_class):
        self.model_class = model_class
        self.calls: list[tuple[float, int]] = []

    def __enter__(self):
        original = self.model_class.forward
        calls = self.calls

        def forward(model, x):
            out = original(model, x)
            rows = 1 if np.ndim(x) == 1 else len(x)
            calls.append((time.perf_counter(), rows))
            return out

        self._original = original
        self.model_class.forward = forward
        return self

    def __exit__(self, *exc):
        self.model_class.forward = self._original
        return False

    @property
    def rows(self) -> int:
        return sum(rows for _, rows in self.calls)
