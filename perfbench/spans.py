"""In-memory spans around the benchmark's calls into mutspace.

A span holds (name, start, end, parent, job).  Spans stay in a list until
the run ends; ``self_times`` then subtracts from each span the time its
direct children cover.  The untraced run uses ``NullTracer``, whose spans
cost one method call and record nothing.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: Optional[int] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def busy_by_job(self) -> dict[int, dict[str, float]]:
        """job -> span name -> summed self time."""
        out: dict[int, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s.job is not None:
                per = out.setdefault(s.job, {})
                per[s.name] = per.get(s.name, 0.0) + own
        return out


class NullTracer:
    job: Optional[int] = None

    def span(self, name: str):
        return nullcontext()
