"""In-memory spans for the traced replay.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the index of the span that was open when it began (``None`` at
the top), the id of the replayed command it belongs to, and an optional
work count (samples handled).  One tracer holds the spans of one replayed
command.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "write_spans", "self_times", "summarize", "patched"]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    size: int = 0


class Tracer:
    """Records the nested spans of one replayed command, tagged ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str, size: int = 0) -> "_Opened":
        """Context manager that records one span around its block."""
        return _Opened(self, name, size)

    def wrap(self, fn: Callable, name: str,
             size: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Opened(self, name, size(*args) if size else 0):
                return fn(*args, **kwargs)

        return traced


class _Opened:
    # A plain class rather than @contextmanager: the replay opens tens of
    # thousands of spans, and a generator per span doubles the overhead.
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, size: int) -> None:
        opened = tracer._open
        self.tracer = tracer
        self.record = Span(name, 0.0, 0.0, opened[-1] if opened else None, tracer.run_id, size)

    def __enter__(self) -> Span:
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record.start = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record.end = time.perf_counter()
        self.tracer._open.pop()


def write_spans(tracers: Sequence[Tracer], path: str) -> None:
    """One JSON list of ``[name, start, end, parent, run_id, size]`` rows;
    ``parent`` indexes the rows of the same ``run_id``."""
    rows = [
        [s.name, s.start, s.end, s.parent, s.run_id, s.size]
        for tracer in tracers
        for s in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids
        ):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self seconds, summed work count."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
        row["size"] += span.size
    return table


@contextmanager
def patched(targets: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each ``(owner, attribute, value)`` for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
