"""Statistics plumbing: counters, histograms, interval recording.

Every subsystem (NoC, caches, energy, locks) accounts into one of these
structures; the analysis layer (:mod:`repro.analysis`) post-processes them
into the paper's figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BoundCounter", "CounterSet", "Histogram", "IntervalRecorder",
           "sweep_concurrency"]


class BoundCounter:
    """A single counter pre-resolved out of a :class:`CounterSet`.

    Hot paths that bump the same counter millions of times (L1 accesses,
    NoC traffic) hash the counter name on every ``add``; binding once and
    incrementing :attr:`value` directly turns that into a plain integer
    add.  The owning set folds the buffered value back into the named
    counters on every read (:meth:`CounterSet._flush`), so observers
    never see stale numbers.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (equivalent to ``CounterSet.add``)."""
        self.value += amount


class CounterSet:
    """A named bag of integer counters with dict-like access."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)
        self._bound: Dict[str, BoundCounter] = {}

    def bind(self, name: str) -> BoundCounter:
        """A :class:`BoundCounter` accumulating into ``name``.

        Binding the same name twice returns the same counter, so sharers
        of one :class:`CounterSet` (e.g. all L1s of a machine) compose.
        """
        counter = self._bound.get(name)
        if counter is None:
            counter = self._bound[name] = BoundCounter()
        return counter

    def _flush(self) -> None:
        """Fold buffered bound-counter values into the named counts."""
        for name, counter in self._bound.items():
            if counter.value:
                self._counts[name] += counter.value
                counter.value = 0

    def add(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount``."""
        self._counts[name] += amount

    def __getitem__(self, name: str) -> int:
        self._flush()
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        self._flush()
        return name in self._counts

    def total(self, prefix: str = "") -> int:
        """Sum of all counters whose name starts with ``prefix``."""
        self._flush()
        return sum(v for k, v in self._counts.items() if k.startswith(prefix))

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        self._flush()
        return dict(self._counts)

    def merge(self, other: "CounterSet") -> None:
        """Add every counter from ``other`` into this set."""
        self._flush()
        other._flush()
        for k, v in other._counts.items():
            self._counts[k] += v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        self._flush()
        return f"CounterSet({dict(self._counts)!r})"


class Histogram:
    """Fixed-bin integer histogram (bins ``1..n_bins`` plus overflow)."""

    def __init__(self, n_bins: int) -> None:
        if n_bins < 1:
            raise ValueError("need at least one bin")
        self.n_bins = n_bins
        import numpy as np  # not at module top: simulation never needs it

        self.counts = np.zeros(n_bins + 1, dtype=np.int64)  # [0] unused, 1..n

    def add(self, bin_index: int, weight: int = 1) -> None:
        """Add ``weight`` to ``bin_index`` (clamped into ``[1, n_bins]``)."""
        idx = min(max(bin_index, 1), self.n_bins)
        self.counts[idx] += weight

    @property
    def total(self) -> int:
        """Sum of all bin weights."""
        return int(self.counts.sum())

    def normalized(self) -> np.ndarray:
        """Bin weights as fractions of the total (zeros if empty)."""
        t = self.total
        if t == 0:
            return self.counts * 0.0
        return self.counts / t


@dataclass
class Interval:
    """A half-open time interval ``[start, end)`` tagged with an owner."""

    start: int
    end: int
    owner: int
    key: int = 0  # grouping key (e.g. the lock uid the wait was for)

    @property
    def length(self) -> int:
        return self.end - self.start


class IntervalRecorder:
    """Records intervals (e.g. "core 3 was waiting for lock L from t0 to t1").

    Used by the contention analysis (paper Eq. 1-3): the set of intervals for
    one lock is swept to produce, for each cycle, the number of concurrent
    requesters (grAC).
    """

    def __init__(self) -> None:
        self.intervals: List[Interval] = []
        self._open: Dict[Tuple[int, int], int] = {}

    def open(self, key: int, owner: int, time: int) -> None:
        """Mark the start of an interval for (key, owner)."""
        self._open[(key, owner)] = time

    def close(self, key: int, owner: int, time: int) -> None:
        """Close the matching open interval; zero-length intervals are kept."""
        start = self._open.pop((key, owner))
        self.intervals.append(Interval(start, time, owner, key))

    def by_key(self) -> Dict[int, List[Interval]]:
        """Closed intervals grouped by their key (e.g. per lock uid)."""
        groups: Dict[int, List[Interval]] = {}
        for iv in self.intervals:
            groups.setdefault(iv.key, []).append(iv)
        return groups

    @property
    def n_open(self) -> int:
        """Number of intervals currently open."""
        return len(self._open)


def sweep_concurrency(intervals: Iterable[Interval], n_bins: int) -> Histogram:
    """Cycle-weighted concurrency histogram from a set of intervals.

    For every cycle covered by at least one interval, counts how many
    intervals overlap that cycle, and accumulates cycles into the histogram
    bin for that concurrency level.  This is exactly the paper's grAC
    measurement: ``Cycles(lock, grAC=i)``.

    Implemented as an O(n log n) sweep over interval endpoints.
    """
    events: List[Tuple[int, int]] = []
    for iv in intervals:
        if iv.end > iv.start:
            events.append((iv.start, +1))
            events.append((iv.end, -1))
    hist = Histogram(n_bins)
    if not events:
        return hist
    events.sort()
    depth = 0
    prev_t = events[0][0]
    i = 0
    n = len(events)
    while i < n:
        t = events[i][0]
        if depth > 0 and t > prev_t:
            hist.add(depth, t - prev_t)
        while i < n and events[i][0] == t:
            depth += events[i][1]
            i += 1
        prev_t = t
    return hist
