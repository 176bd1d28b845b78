"""Lock contention analysis — the paper's Equations 1-3 and Figure 7.

The paper registers, on a cycle-by-cycle basis, the number of concurrent
requesters (grAC, "group of acquiring cores", 1..C) of every lock, over a
run where all locks use test-and-test&set.  Two normalizations are used:

- **Equation 1** — per-lock contention rate::

      LCR_i(grAC) = Cycles(lock_i, grAC) / sum_g Cycles(lock_i, g)

- **Equation 3** — benchmark-wide, weighting each lock by the cycles it is
  contended (so rarely-used locks shrink even if their profile is spiky)::

      LiCR_i(grAC) = Cycles(lock_i, grAC) / sum_l sum_g Cycles(lock_l, g)

  which satisfies Equation 2: the LiCR values of one benchmark sum to 1.

Our :class:`~repro.cpu.core.ThreadContext` records a wait interval
``[acquire-start, acquire-grant)`` per lock acquisition; sweeping those
intervals gives exactly ``Cycles(lock, grAC = depth)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping

from repro.machine import RunResult
from repro.sim.stats import Interval, sweep_concurrency

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LockContention", "analyze_contention", "benchmark_licr"]


@dataclass
class LockContention:
    """Contention profile of one lock (or one aggregated label)."""

    label: str
    cycles_per_grac: np.ndarray  # index g: cycles with exactly g requesters
    n_acquires: int

    @property
    def total_cycles(self) -> int:
        """Cycles during which at least one core was requesting."""
        return int(self.cycles_per_grac.sum())

    def lcr(self) -> np.ndarray:
        """Equation 1: per-lock contention rate over grAC."""
        total = self.total_cycles
        if total == 0:
            return self.cycles_per_grac * 0.0
        return self.cycles_per_grac / total

    def aggregate_rate(self, min_grac: int) -> float:
        """Fraction of contended cycles with grAC >= ``min_grac``.

        The paper quotes e.g. "contention rate close to 80% when considering
        grACs higher than 20 cores" — this is that number.
        """
        total = self.total_cycles
        if total == 0:
            return 0.0
        return float(self.cycles_per_grac[min_grac:].sum() / total)


def analyze_contention(result: RunResult,
                       lock_labels: Mapping[int, str]) -> Dict[str, LockContention]:
    """Per-label contention profiles from a run's lock-wait intervals.

    Locks sharing a label (e.g. Raytrace's 32 quiet locks, all "RAYTR-LR")
    are aggregated, mirroring the paper's Figure 7 presentation.
    """
    if result.lock_intervals is None:
        raise ValueError(
            "RunResult carries no lock-wait intervals "
            "(lock_intervals is None); contention analysis needs a run "
            "produced by Machine.run, which always records them"
        )
    n = result.config.n_cores
    by_label: Dict[str, List[Interval]] = defaultdict(list)
    acquires: Dict[str, int] = defaultdict(int)
    for uid, ivs in result.lock_intervals.by_key().items():
        label = lock_labels.get(uid, f"lock{uid}")
        by_label[label].extend(ivs)
        acquires[label] += len(ivs)
    profiles: Dict[str, LockContention] = {}
    for label, ivs in by_label.items():
        hist = sweep_concurrency(ivs, n)
        profiles[label] = LockContention(
            label=label,
            cycles_per_grac=hist.counts.copy(),
            n_acquires=acquires[label],
        )
    return profiles


def benchmark_licr(profiles: Mapping[str, LockContention]) -> Dict[str, np.ndarray]:
    """Equation 3: per-label rates normalized by the benchmark total.

    The returned arrays jointly sum to 1 (Equation 2) whenever any lock was
    contended at all.
    """
    grand_total = sum(p.total_cycles for p in profiles.values())
    if grand_total == 0:
        return {label: p.cycles_per_grac * 0.0
                for label, p in profiles.items()}
    return {label: p.cycles_per_grac / grand_total
            for label, p in profiles.items()}
