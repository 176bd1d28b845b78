"""Runtime invariant sanitizer for full-scale simulations.

Where :mod:`repro.verify.modelcheck` exhausts small configurations, the
sanitizer rides along full 32-core paper workloads: it hooks the kernel's
``Simulator.on_event`` checkpoint and validates, after every executed
event:

- **monotonic time** — ``sim.now`` never decreases;
- **single holder per device** — a GLock's holder is a valid core id and
  is never simultaneously registered as a waiter on the same device;
- **bounded waiting** — no core waits on a device longer than
  ``starvation_bound`` cycles (catches lost TOKEN/REL signals long before
  the run's ``max_events`` valve trips);
- **token-network sanity** — a device's primary manager never ends up
  token-less while the whole network is idle;
- **protocol conformance** — every MESI transition an L1 or directory
  takes is a row of :data:`repro.mem.protocol.ROWS`, the state it leaves
  the line in is that row's next state, and every L1 fill leaves the line
  with one E/M holder or only sharers.  The sanitizer's
  ``transitions_seen`` records the rows taken.

At drain (:meth:`at_drain`, called by ``Machine.run`` once all thread
programs finished) it additionally checks that no process is left
suspended on a :class:`~repro.sim.kernel.Signal` that can no longer fire
("orphaned waiter") and that every device's token parked back at its
primary manager.

Enable it with ``repro-sim run --sanitize ...``, ``pytest --sanitize``,
or directly::

    machine = Machine(CMPConfig.baseline(32))
    InvariantSanitizer(machine).attach()
    machine.run(programs)   # raises InvariantViolation on any breach
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.mem import protocol as P
from repro.sim.kernel import (PROCESS_TYPES, Process, SimulationError,
                              Simulator)

__all__ = ["InvariantSanitizer", "InvariantViolation", "attach_sanitizer"]


class InvariantViolation(SimulationError):
    """A runtime invariant failed during a sanitized simulation."""


class InvariantSanitizer:
    """Per-event invariant checks over a :class:`~repro.machine.Machine`.

    Args:
        machine: the machine to watch (its GLock devices and simulator).
        starvation_bound: max cycles a core may wait for a TOKEN before the
            sanitizer declares it starved.  The default is generous enough
            for every paper workload at 32 cores; tighten it to hunt
            latency regressions.
        check_interval: run the per-event checks every N executed events
            (1 = every event).  Starvation accounting stays exact at any
            interval because request start times are read from the device.
    """

    def __init__(self, machine, *, starvation_bound: int = 1_000_000,
                 check_interval: int = 1) -> None:
        if starvation_bound < 1:
            raise ValueError("starvation_bound must be positive")
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        self.machine = machine
        self.starvation_bound = starvation_bound
        self.check_interval = check_interval
        self.checks_run = 0
        self.events_seen = 0
        self._last_now = 0
        # (device lock_id, core) -> cycle the request was first observed
        self._wait_since: Dict[Tuple[int, int], int] = {}
        #: (controller, state, event) of every protocol transition taken
        self.transitions_seen: Set[Tuple[str, str, str]] = set()
        # (object, attribute) the protocol checks replaced, to undo on detach
        self._patched: List[Tuple[object, str]] = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach(self) -> "InvariantSanitizer":
        """Hook the machine's simulator; returns self for chaining.

        Joins the kernel's composable ``on_event`` chain
        (:meth:`~repro.sim.kernel.Simulator.add_on_event`), so other
        observers can coexist; a second *sanitizer* on the same machine is
        still refused.
        """
        sim: Simulator = self.machine.sim
        if self.machine.sanitizer is not None:
            raise RuntimeError("machine already has a sanitizer attached")
        sim.enable_signal_registry()
        sim.add_on_event(self._on_event)
        self._check_transitions()
        self.machine.sanitizer = self
        return self

    def detach(self) -> None:
        """Remove the hooks (the signal registry stays enabled)."""
        self.machine.sim.remove_on_event(self._on_event)
        for obj, attr in self._patched:
            delattr(obj, attr)
        self._patched = []
        if self.machine.sanitizer is self:
            self.machine.sanitizer = None

    # ------------------------------------------------------------------ #
    # protocol conformance
    # ------------------------------------------------------------------ #
    def _check_transitions(self) -> None:
        """Have every controller report each transition to this
        sanitizer, and give the L1s hit maps that record each hit.

        A Python controller gets the checked build of its rows; a
        compiled one (its ``_core``) calls its ``observer``.  These
        shadow the class's tables on the instance, so an unsanitized run
        pays nothing per message or access.
        """
        mem = self.machine.mem
        load_hit = _RecordedHits(P.LOAD, self.transitions_seen)
        store_hit = _RecordedHits(P.STORE, self.transitions_seen)
        for controllers, role, observer in (
                (mem.l1s, P.L1, self._l1_transition),
                (mem.l2s, P.DIR, self._dir_transition)):
            rows = P.bind(type(controllers[0]), role, checked=True)
            for ctrl in controllers:
                if ctrl._core is not None:
                    ctrl._core.observer = observer
                    self._patched.append((ctrl._core, "observer"))
                else:
                    ctrl._rows, ctrl._observer = rows, observer
                    self._patched += [(ctrl, "_rows"), (ctrl, "_observer")]
        for l1 in mem.l1s:
            l1._load_hit, l1._store_hit = load_hit, store_hit
            self._patched += [(l1, "_load_hit"), (l1, "_store_hit")]

    def _l1_transition(self, l1, line: int, msg, row) -> None:
        state, event, nxt = row
        self.transitions_seen.add((P.L1, state, event))
        held = l1.tags.lookup(line) or "I"
        # a miss in flight keeps the tags it started from
        if held != {"IS": "I", "IM": "I", "SM": "S"}.get(nxt, nxt):
            raise InvariantViolation(
                f"L1 {l1.core_id}: {event} in {state} left {line:#x} in "
                f"{held}, but its row says {nxt}")
        if state in P.L1_TRANSIENT and nxt not in P.L1_TRANSIENT:
            self._check_single_writer(line)

    def _dir_transition(self, home, line: int, msg, row) -> None:
        state, event, nxt = row
        self.transitions_seen.add((P.DIR, state, event))
        if nxt in P.DIR_IDLE:
            entry = home.entry(line)
            held = ("EM" if entry.owner is not None
                    else "S" if entry.sharers else "I")
            if held != nxt:
                raise InvariantViolation(
                    f"home {home.tile_id}: {event} in {state} left "
                    f"{line:#x} in {held}, but its row says {nxt}")

    def _check_single_writer(self, line: int) -> None:
        """MESI: one E/M holder, or any number of S holders."""
        held = {l1.core_id: state for l1 in self.machine.mem.l1s
                if (state := l1.tags.lookup(line)) is not None}
        writers = sum(state in ("E", "M") for state in held.values())
        if writers and len(held) > 1:
            raise InvariantViolation(
                f"line {line:#x} is held as {held} after a fill: MESI "
                "allows one E/M holder or only sharers")

    # ------------------------------------------------------------------ #
    # per-event checkpoint
    # ------------------------------------------------------------------ #
    def _on_event(self, sim: Simulator) -> None:
        self.events_seen += 1
        if sim.now < self._last_now:
            raise InvariantViolation(
                f"time ran backwards: {self._last_now} -> {sim.now}")
        self._last_now = sim.now
        if self.events_seen % self.check_interval:
            return
        self.checks_run += 1
        n_cores = self.machine.config.n_cores
        for device in self.machine.glocks.devices:
            holder = device.holder
            waiters = device.waiters
            if holder is not None:
                if not 0 <= holder < n_cores:
                    raise InvariantViolation(
                        f"GLock {device.lock_id}: holder {holder} is not a "
                        f"valid core id (0..{n_cores - 1})")
                if holder in waiters:
                    raise InvariantViolation(
                        f"GLock {device.lock_id}: core {holder} holds the "
                        "lock and is simultaneously queued as a waiter")
            self._check_starvation(device, waiters, sim.now)

    def _check_starvation(self, device, waiters, now: int) -> None:
        lock_id = device.lock_id
        for core in waiters:
            since = self._wait_since.setdefault((lock_id, core), now)
            if now - since > self.starvation_bound:
                raise InvariantViolation(
                    f"GLock {lock_id}: core {core} has waited "
                    f"{now - since} cycles for a TOKEN (bound "
                    f"{self.starvation_bound}) — lost signal or starvation")
        # forget cores that are no longer waiting on this device
        stale = [key for key in self._wait_since
                 if key[0] == lock_id and key[1] not in waiters]
        for key in stale:
            del self._wait_since[key]

    # ------------------------------------------------------------------ #
    # drain checkpoint
    # ------------------------------------------------------------------ #
    def at_drain(self, procs: Optional[Iterable[Process]] = None) -> None:
        """Validate end-of-phase invariants once the parallel phase ended."""
        sim: Simulator = self.machine.sim
        # A suspended process is provably orphaned only once the event queue
        # is empty: nothing can ever fire its signal.  When events remain,
        # the parallel phase ended mid-flight and abandoned helpers (such
        # as pollers) are expected — see run_until_processes_finish.
        # Plain callback waiters are never orphans for the same reason.
        # The kernel holds every unfinished process while the registry is
        # on, so one stuck on a signal nothing else references keeps that
        # signal registered.
        if sim.pending_events == 0:
            orphans: List[str] = []
            for sig in sim.live_signals():
                for fn in sig._waiters:
                    # pure-backend waiters are bound ``Process._step``
                    # methods; compiled-backend waiters are the Process
                    # objects themselves
                    owner = getattr(fn, "__self__", fn)
                    if isinstance(owner, PROCESS_TYPES) and not owner.finished:
                        orphans.append(
                            f"{owner.name} on {sig.name or '<unnamed>'}")
            if orphans:
                raise InvariantViolation(
                    "orphaned Signal waiters at drain (a process is "
                    "suspended on a signal that will never fire): "
                    f"{sorted(orphans)}")
        if procs is not None:
            stuck = [p.name for p in procs if not p.finished]
            if stuck:
                raise InvariantViolation(
                    f"processes unfinished at drain: {stuck}")
        for device in self.machine.glocks.devices:
            if device.holder is not None:
                raise InvariantViolation(
                    f"GLock {device.lock_id}: still held by core "
                    f"{device.holder} after the parallel phase")
            if device.waiters:
                raise InvariantViolation(
                    f"GLock {device.lock_id}: cores "
                    f"{sorted(device.waiters)} still wait "
                    "for a TOKEN after the parallel phase")


class _RecordedHits(dict):
    """An L1 hit map (state -> next state) that records each hit taken;
    the hit path writes the next state it reads from here."""

    def __init__(self, event: str, seen: Set[Tuple[str, str, str]]) -> None:
        super().__init__(P.hits(event))
        self._event = event
        self._seen = seen

    def get(self, state, default=None):
        nxt = dict.get(self, state, default)
        if nxt is not None:
            self._seen.add((P.L1, state, self._event))
        return nxt


def attach_sanitizer(machine, **kwargs) -> InvariantSanitizer:
    """Convenience: ``InvariantSanitizer(machine, **kwargs).attach()``."""
    return InvariantSanitizer(machine, **kwargs).attach()
