"""Shared experiment plumbing.

The heavy lifting now lives in :mod:`repro.runner`: harnesses describe
runs as :class:`~repro.runner.RunSpec` batches and submit them to the
active engine, which parallelizes across a process pool and caches
results in-process and (optionally) on disk.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.runner import BenchmarkRun, RunSpec, active_engine, run_specs
from repro.workloads.registry import APPLICATIONS, MICROBENCHMARKS

__all__ = [
    "BenchmarkRun", "clear_cache", "group_means", "paper_averages",
    "grouped_runs", "skipped_note", "MICROBENCHMARKS", "APPLICATIONS",
]


def clear_cache() -> None:
    """Drop the active engine's in-process memo (tests use this for
    isolation; any persistent disk cache is untouched)."""
    active_engine().clear_memory_cache()


def grouped_runs(keys: Sequence, specs: Sequence[RunSpec], per_key: int
                 ) -> Tuple[Dict, List]:
    """Submit one flat batch and regroup it ``per_key`` runs per key.

    The collect-mode backbone of the harnesses: under a campaign
    supervisor with ``fail_policy="collect"`` (``repro-sim experiment
    --fail-policy collect``), :func:`repro.runner.run_specs` yields
    ``None`` for failed or quarantined specs.  Keys missing any of their
    runs are dropped from ``groups`` and reported in ``skipped``, so a
    partial sweep still renders.  Under the default abort policy
    ``run_specs`` raises instead and ``skipped`` is always empty.

    Args:
        keys: one label per group, in submission order.
        specs: the flat batch — ``len(specs) == len(keys) * per_key``,
            grouped as ``specs[i*per_key:(i+1)*per_key]`` for ``keys[i]``.
        per_key: runs per key.

    Returns:
        ``(groups, skipped)`` where ``groups[key]`` is the tuple of
        ``per_key`` :class:`BenchmarkRun` and ``skipped`` lists the keys
        with at least one missing run.
    """
    if len(specs) != len(keys) * per_key:
        raise ValueError(f"expected {len(keys)}x{per_key} specs, "
                         f"got {len(specs)}")
    runs = run_specs(specs)
    groups: Dict = {}
    skipped: List = []
    for i, key in enumerate(keys):
        chunk = tuple(runs[i * per_key:(i + 1) * per_key])
        if all(r is not None for r in chunk):
            groups[key] = chunk
        else:
            skipped.append(key)
    return groups, skipped


def skipped_note(skipped: Sequence) -> str:
    """Footer line for renders of partial (collect-mode) sweeps."""
    if not skipped:
        return ""
    labels = ", ".join(str(k) for k in skipped)
    return (f"\n(skipped {len(skipped)} of the sweep — failed or "
            f"quarantined specs: {labels})")


def group_means(ratios: Mapping[str, float],
                groups: Mapping[str, Sequence[str]]) -> Dict[str, float]:
    """Arithmetic-mean group summaries (the paper reports plain averages).

    Benchmarks missing from ``ratios`` are skipped; a group with no
    member present maps to ``nan``.
    """
    out = {}
    for label, names in groups.items():
        vals = [ratios[n] for n in names if n in ratios]
        out[label] = sum(vals) / len(vals) if vals else float("nan")
    return out


def paper_averages(ratios: Mapping[str, float]) -> Dict[str, float]:
    """The paper's AvgM / AvgA summary rows over per-benchmark ratios.

    Groups with no benchmark present are omitted (partial sweeps).
    """
    means = group_means(ratios, {"AvgM": MICROBENCHMARKS,
                                 "AvgA": APPLICATIONS})
    return {label: m for label, m in means.items() if not math.isnan(m)}
