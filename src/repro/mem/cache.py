"""Set-associative tag array with true-LRU replacement.

Used for both L1 (MESI states) and L2 (presence + dirty bit).  Pure
bookkeeping — no timing; controllers add latencies.  Lookups are O(1) via a
per-set ``dict`` keyed by line address with insertion order as LRU order
(Python dicts preserve insertion order; re-inserting moves to MRU).

:class:`TagArray` is the reference implementation.  The compiled kernel
has a C twin with the same contract, down to ``KeyError`` arguments and
the order of :meth:`~TagArray.resident_lines`.  Cache controllers get
theirs from :func:`tag_array`, which picks the twin from the type of the
simulator the cache is built on.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.sim.config import CacheConfig
from repro.sim.kernel import Simulator, compiled_impl

__all__ = ["TagArray", "tag_array"]


class TagArray:
    """Tags + per-line state for one cache."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # geometry is immutable; resolve it once instead of re-deriving
        # n_sets (a division) on every lookup
        self._line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._ways = config.ways
        # set index -> {line_addr: state}; dict order == LRU order (first = LRU)
        self._sets: Dict[int, Dict[int, object]] = {}

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self._line_bytes) % self._n_sets

    def lookup(self, line_addr: int) -> Optional[object]:
        """State of ``line_addr`` or None; does not touch LRU order."""
        s = self._sets.get(self._set_index(line_addr))
        return None if s is None else s.get(line_addr)

    def touch(self, line_addr: int) -> None:
        """Mark ``line_addr`` most-recently used."""
        try:
            s = self._sets[self._set_index(line_addr)]
            s[line_addr] = s.pop(line_addr)
        except KeyError:
            raise KeyError(f"line {line_addr:#x} not resident") from None

    def set_state(self, line_addr: int, state: object) -> None:
        """Update the state of a resident line (keeps LRU position)."""
        s = self._sets.get(self._set_index(line_addr))
        if s is None or line_addr not in s:
            raise KeyError(f"line {line_addr:#x} not resident")
        s[line_addr] = state

    def insert(
        self,
        line_addr: int,
        state: object,
        may_evict: Optional[Callable[[int], bool]] = None,
    ) -> Optional[Tuple[int, object]]:
        """Insert a line as MRU; returns the evicted ``(line, state)`` if any.

        ``may_evict(line)`` optionally restricts eviction candidates (the L2
        uses this to skip lines still held by L1s — "soft associativity", see
        DESIGN.md).  If no candidate is evictable the set is allowed to
        over-fill by one way.
        """
        idx = self._set_index(line_addr)
        s = self._sets.setdefault(idx, {})
        if line_addr in s:
            raise KeyError(f"line {line_addr:#x} already resident")
        victim = None
        if len(s) >= self._ways:
            for cand in s:  # iteration order = LRU first
                if may_evict is None or may_evict(cand):
                    victim = (cand, s.pop(cand))
                    break
        s[line_addr] = state
        return victim

    def invalidate(self, line_addr: int) -> Optional[object]:
        """Drop a line; returns its prior state (None if absent)."""
        s = self._sets.get(self._set_index(line_addr))
        if s is None:
            return None
        return s.pop(line_addr, None)

    def resident_lines(self) -> Iterable[int]:
        """All resident line addresses by set index, each set LRU first
        (diagnostics/tests)."""
        for idx in sorted(self._sets):
            yield from self._sets[idx]

    def occupancy(self) -> int:
        """Total resident lines."""
        return sum(len(s) for s in self._sets.values())


def tag_array(sim: Simulator, config: CacheConfig):
    """A tag array for a cache on ``sim``: the C twin when ``sim`` is a
    compiled simulator, else :class:`TagArray`."""
    impl = compiled_impl()
    if impl is not None and type(sim) is impl.Simulator:
        return impl.TagArray(config)
    return TagArray(config)
