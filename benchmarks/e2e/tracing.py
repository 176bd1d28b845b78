"""Layer spans recorded from outside the program, with GC attribution.

A :class:`Tracer` records ``perf_counter`` spans around the public call
into each layer.  Spans nest: a span's *self time* is its duration minus
the time its child spans cover.  While a tracer is active it listens on
``gc.callbacks`` and charges every collector pause to the innermost open
span, so a layer that allocates heavily shows its GC cost where it is
paid.  Nothing here touches the program under test.

Spans stay in memory and are written at the end as Chrome trace-event
JSON (``ph: "X"`` complete events), which Perfetto and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "chrome_events", "coverage", "format_layer_table",
           "layer_rows"]


class Span:
    """One timed call: ``[start, end)`` in ``perf_counter`` seconds."""

    __slots__ = ("name", "start", "end", "parent", "root", "child_s", "gc_s",
                 "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 attrs: Dict) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.child_s = 0.0
        self.gc_s = 0.0
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; use as a context manager to attribute GC."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._gc_start: Optional[float] = None

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            if self._stack:
                self._stack[-1].gc_s += perf_counter() - self._gc_start
            self._gc_start = None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.duration


def layer_rows(spans: List[Span]) -> List[Dict]:
    """Per span name: calls, total, self and GC seconds, heaviest first."""
    rows: Dict[str, Dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "gc_s": 0.0})
    for span in spans:
        row = rows[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.self_s
        row["gc_s"] += span.gc_s
    return [dict(layer=name, **row) for name, row in
            sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])]


def coverage(spans: List[Span]) -> float:
    """Share of root-span (op) wall time covered by layer self times."""
    roots = [s for s in spans if s.parent is None]
    wall = sum(s.duration for s in roots)
    uncovered = sum(s.self_s for s in roots)
    return (wall - uncovered) / wall if wall else 0.0


def chrome_events(spans: List[Span], pid: int, label: str,
                  origin: float) -> List[Dict]:
    """Spans as Chrome trace events (microseconds since ``origin``)."""
    events: List[Dict] = [{"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": label}}]
    for span in spans:
        args = dict(span.attrs)
        if span.gc_s:
            args["gc_ms"] = span.gc_s * 1e3
        events.append({"name": span.name, "cat": span.name.split(".")[0],
                       "ph": "X", "pid": pid, "tid": 0,
                       "ts": (span.start - origin) * 1e6,
                       "dur": span.duration * 1e6, "args": args})
    return events


def format_layer_table(title: str, rows: List[Dict], wall_s: float) -> str:
    """A fixed-width layer table: calls, total, self, self share, GC."""
    header = (f"{'layer':<24} {'calls':>7} {'total ms':>10} {'self ms':>10} "
              f"{'self %':>7} {'gc ms':>8}")
    lines = [title, header, "-" * len(header)]
    for row in rows:
        share = row["self_s"] / wall_s if wall_s else 0.0
        lines.append(f"{row['layer']:<24} {row['calls']:>7d} "
                     f"{row['total_s'] * 1e3:>10.2f} "
                     f"{row['self_s'] * 1e3:>10.2f} {share:>6.1%} "
                     f"{row['gc_s'] * 1e3:>8.2f}")
    return "\n".join(lines)
