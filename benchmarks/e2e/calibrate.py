"""Host-speed calibration: scale host times to a reference machine speed.

On a shared 2-vCPU virtual machine, host speed drifts by 2-5x over
minutes to hours with load elsewhere on the physical host (one busy process on
the sibling vCPU halves it).  Raw host times therefore differ more
between two sets of runs than any useful regression bound.  So every
host time the benchmark reports is measured next to a fixed calibration
kernel and scaled by ``REFERENCE_S / kernel time``: a number in the
units of a host on which the kernel takes ``REFERENCE_S`` (such a VM
when otherwise idle).  With a busy process on the sibling vCPU, the
raw time of half a ``table3`` pass grew by 130% and the scaled time by 5%.

The kernel is a small discrete-event loop written here, not imported
from the program under test — heap-ordered generator processes and dict
updates, the simulator's own mix — so no change to ``repro`` can move it.
It runs with the garbage collector off and takes about 7 ms.
"""

from __future__ import annotations

import gc
import heapq
import os
import re
import statistics
from time import perf_counter
from typing import Dict, Sequence

__all__ = ["REFERENCE_S", "factor_of", "host_kernel_seconds",
           "kernel_seconds", "scale_times"]

#: the kernel's time on the reference host
REFERENCE_S = 0.007


def _kernel() -> None:
    def process(index: int):
        for step in range(20):
            yield (index * 7 + step) % 13

    heap = [(0, index, process(index)) for index in range(400)]
    heapq.heapify(heap)
    seen = {}
    while heap:
        now, index, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seen[index, delay] = seen.get((index, delay), 0) + 1
        heapq.heappush(heap, (now + delay + 1, index, proc))


def kernel_seconds(repeats: int = 5) -> float:
    """Mean wall time of ``repeats`` runs of the calibration kernel.

    A mean, not a median: the host switches between a fast state and one
    about 1.7x slower several times a second, so a mean over samples
    estimates the share of time spent slow, where a median would snap to
    one state or the other.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(repeats):
            _kernel()
        return (perf_counter() - start) / repeats
    finally:
        if enabled:
            gc.enable()


def host_kernel_seconds(repeats: int = 3) -> float:
    """:func:`kernel_seconds` averaged over every CPU this process may use.

    For work spread over several processes (the service daemon and its
    pool workers) the calibrating process's own CPU is not the one that
    matters, so the kernel runs pinned to each allowed CPU in turn.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds(repeats))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def factor_of(kernel_times: Sequence[float]) -> float:
    """``REFERENCE_S`` over the mean kernel time.

    Multiply a host time by this (divide a rate by it) to express it at
    the reference speed; a host slower than the reference gives a factor
    below 1.
    """
    return REFERENCE_S / statistics.mean(kernel_times)


#: metric names that are host times: ``*_ms``/``*_us`` (optionally with
#: a ``.c<cores>`` suffix) and ``*.ns_per_*``
_HOST_TIME = re.compile(r"(_ms|_us)(\.c\d+)?$|(^|\.)ns_per_")


def scale_times(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    """``metrics`` with every host-time value multiplied by ``factor``."""
    return {name: value * factor if _HOST_TIME.search(name) else value
            for name, value in metrics.items()}
