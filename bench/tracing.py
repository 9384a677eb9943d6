"""In-memory spans recorded around calls into the library's layers.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that was open when it began, and the id of the traced
op it belongs to.  Spans stay in memory until the run ends; nothing is
written while an op is being timed.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._op = -1

    def next_op(self) -> int:
        """Start a new op id; spans opened from now on carry it."""
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        One thread records the spans, so children never overlap each other
        and lie inside their parent."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def per_op(self, name: str) -> dict[int, float]:
        """Total duration of spans called `name`, keyed by op id."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.op] = totals.get(s.op, 0.0) + s.duration
        return totals

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """Name -> (total seconds, total self seconds, span count)."""
        out: dict[str, tuple[float, float, int]] = {}
        for s, own in zip(self.spans, self.self_times()):
            total, total_self, count = out.get(s.name, (0.0, 0.0, 0))
            out[s.name] = (total + s.duration, total_self + own, count + 1)
        return out
