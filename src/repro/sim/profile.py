"""Opt-in per-component attribution of simulator work.

Answers "where do the cycles (and the wall-time) go?" for a simulation:
every executed event is attributed to the model component that owns its
callback — Core/workload processes, L1 controllers, L2/directory slices,
the mesh, lock controllers — and per component the profiler accumulates

* ``events``  — events dispatched,
* ``wall_s``  — host wall-time spent inside those callbacks,
* ``cycles``  — distinct simulated cycles in which the component ran.

Profiling is strictly an observer: it is enabled per
:class:`~repro.sim.kernel.Simulator` (``Simulator(profile=...)``) or
ambiently via :func:`profiling`, never stored in a
:class:`~repro.runner.spec.MachineSpec`, and therefore can never reach a
spec digest or change a :class:`~repro.machine.RunResult` — the
determinism suite asserts profiler-on and profiler-off runs fingerprint
identically.

Usage::

    from repro.sim.profile import profiling

    with profiling() as prof:
        machine = Machine(config)      # picks up the active profiler
        machine.run(programs)
    print(prof.format_table())

or from the CLI: ``repro-sim run --profile ...`` /
``repro-sim experiment fig08 --profile ...``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["ComponentProfile", "Profiler", "profiling", "active_profiler"]


class ComponentProfile:
    """Accumulated work of one model component."""

    __slots__ = ("events", "wall_s", "cycles", "_last_cycle")

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0
        #: distinct simulated cycles in which this component executed
        self.cycles = 0
        self._last_cycle = -1

    def as_dict(self) -> Dict[str, Any]:
        return {"events": self.events, "wall_s": self.wall_s,
                "cycles": self.cycles}


_INSTANCE_MARKERS = re.compile(r"0x[0-9a-fA-F]+|\d+")


def _role_of(name: str) -> str:
    """A process/signal name with instance markers (ids, addresses) removed,
    so e.g. ``core0..core31`` and ``watch0x1f40`` aggregate as the roles
    ``core`` and ``watch``."""
    return _INSTANCE_MARKERS.sub("", name).strip("-_.:") or "unnamed"


def _component_of(fn: Callable) -> str:
    """Attribution key for an event callback.

    Bound methods are attributed to their owner: model components
    (L1Cache, L2DirectorySlice, ...) by class name, kernel Processes by
    their role (see :func:`_role_of`).  Plain functions and closures
    (e.g. the per-tile mesh dispatcher) fall back to their qualified
    name with the ``<locals>`` noise removed.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        qualname = getattr(fn, "__qualname__", None)
        if not qualname:
            return repr(fn)
        return qualname.replace(".<locals>", "")
    cls = type(owner).__name__
    if cls == "Process":
        return f"process:{_role_of(owner.name)}"
    if cls == "Signal":
        return f"signal:{_role_of(owner.name)}"
    return cls


class Profiler:
    """Collects per-component event/wall/cycle attribution.

    Pass it to ``Simulator(profile=...)`` (or enter :func:`profiling`
    before building a Machine); the kernel calls :meth:`record` once per
    executed event.
    """

    def __init__(self) -> None:
        self._components: Dict[str, ComponentProfile] = {}
        # callback -> attribution key; bound methods hash by
        # (instance, function), so this stays one entry per component
        # instance rather than one per event
        self._keys: Dict[Callable, str] = {}
        self.total_events = 0
        self.total_wall_s = 0.0

    # called from the kernel hot loop — keep it lean
    def record(self, fn: Callable, time: int, wall: float) -> None:
        """Attribute one executed event (``fn`` ran at cycle ``time``)."""
        key = self._keys.get(fn)
        if key is None:
            key = self._keys[fn] = _component_of(fn)
        comp = self._components.get(key)
        if comp is None:
            comp = self._components[key] = ComponentProfile()
        comp.events += 1
        comp.wall_s += wall
        if time != comp._last_cycle:
            comp._last_cycle = time
            comp.cycles += 1
        self.total_events += 1
        self.total_wall_s += wall

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, Dict[str, Any]]:
        """Per-component ``{events, wall_s, cycles}``, heaviest first."""
        items = sorted(self._components.items(),
                       key=lambda kv: -kv[1].wall_s)
        return {name: comp.as_dict() for name, comp in items}

    def format_table(self) -> str:
        """Human-readable profile, heaviest component first."""
        rows: List[str] = []
        header = (f"{'component':<28} {'events':>10} {'wall ms':>9} "
                  f"{'wall %':>7} {'sim cycles':>11}")
        rows.append(header)
        rows.append("-" * len(header))
        total_wall = self.total_wall_s or 1.0
        for name, comp in sorted(self._components.items(),
                                 key=lambda kv: -kv[1].wall_s):
            rows.append(f"{name:<28} {comp.events:>10d} "
                        f"{comp.wall_s * 1e3:>9.2f} "
                        f"{comp.wall_s / total_wall:>6.1%} "
                        f"{comp.cycles:>11d}")
        rows.append("-" * len(header))
        rows.append(f"{'total':<28} {self.total_events:>10d} "
                    f"{self.total_wall_s * 1e3:>9.2f} {'100.0%':>7} "
                    f"{'':>11}")
        return "\n".join(rows)


#: the ambient profiler new Machines adopt (see :func:`profiling`)
_ACTIVE: Optional[Profiler] = None


def active_profiler() -> Optional[Profiler]:
    """The profiler installed by the innermost :func:`profiling`, if any."""
    return _ACTIVE


@contextmanager
def profiling(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Install ``profiler`` (default: a fresh one) as the ambient profiler.

    Machines built inside the ``with`` block hand it to their Simulator;
    this is how the CLI's ``--profile`` reaches simulations constructed
    deep inside experiment modules without threading a parameter through
    every layer (and without touching any spec, keeping digests stable).
    """
    global _ACTIVE
    if profiler is None:
        profiler = Profiler()
    previous = _ACTIVE
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous
