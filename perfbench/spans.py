"""Span recording around the benchmark's own calls into spherefield.

A traced run records one span per task (the parent) and one per public
call the task makes (its children). Spans and counters stay in memory
until the run ends; the per-layer metrics are derived from them afterwards,
so recording a call costs two clock reads and one list append. An untraced
run uses `Untraced`, whose `call` is a plain call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Recorder.spans
    task: int           # shared by a task span and all of its calls
    error: str | None = None  # exception type the call raised


class Untraced:
    """Recorder interface with nothing recorded."""

    def begin_task(self, name: str) -> None:
        pass

    def end_task(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Recorder(Untraced):
    def __init__(self):
        self.spans: list[Span] = []
        self._open: int | None = None
        self._tasks = 0

    def begin_task(self, name: str) -> None:
        self._tasks += 1
        self.spans.append(Span(name, time.perf_counter(), 0.0, None, self._tasks))
        self._open = len(self.spans) - 1

    def end_task(self) -> None:
        self.spans[self._open].end = time.perf_counter()
        self._open = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.spans.append(
                Span(name, start, time.perf_counter(), self._open, self._tasks, error)
            )

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the time covered by
        direct children. Children of one task run one after another, so
        their durations never overlap and can simply be subtracted."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child_time[i]
        return dict(out)

    def call_counts(self, failed: bool = False) -> dict[str, int]:
        """Spans per name; with failed=True only those whose call raised."""
        out = defaultdict(int)
        for s in self.spans:
            if not failed or s.error is not None:
                out[s.name] += 1
        return dict(out)


class Counters:
    """Work counts taken from task outputs by the gates, outside timing."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.maxima: dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        self.sums[name] += value

    def max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)
