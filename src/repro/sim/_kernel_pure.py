"""Deterministic discrete-event simulation kernel.

Events execute in ``(time, sequence)`` order — two events scheduled for
the same cycle always run in the order they were scheduled — making every
simulation bit-reproducible.  Internally the kernel keeps **two** queues
that together realize that total order:

* a binary heap for future-time events, and
* a plain FIFO ``deque`` for *same-cycle* (zero-delay) events — the
  dominant class, since every :meth:`Signal.fire` wakeup is scheduled at
  the current cycle.  Same-cycle events are appended with strictly
  increasing sequence numbers at the current time, so the deque is always
  sorted by ``(time, seq)`` and a single head-to-head comparison against
  the heap top picks the globally next event without any heap traffic.

Events are pooled ``__slots__`` records recycled through a free list, so
steady-state simulation allocates no per-event garbage, and
:meth:`Simulator.schedule` skips heap discipline entirely when the heap
is empty (the monotonic fast path).

Model components come in two flavours:

* **Callback state machines** (caches, directories, routers) register plain
  functions with :meth:`Simulator.schedule`.
* **Processes** (cores, lock-manager drivers, workload threads) are Python
  generators driven by :class:`Process`.  A process generator may yield:

  - a non-negative ``int`` — suspend for that many cycles;
  - a :class:`Signal` — suspend until the signal fires; the value passed to
    :meth:`Signal.fire` becomes the value of the ``yield`` expression;
  - another generator is composed with ``yield from`` as usual.

This mirrors the structure of simulators such as SimPy but is intentionally
minimal: the hot path is a deque rotation plus a generator ``send`` (see
``docs/performance.md`` for the design and measured numbers).
"""

from __future__ import annotations

import weakref
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import (Any, Callable, Generator, Iterable, List, Optional, Set,
                    Tuple)

__all__ = ["Simulator", "Process", "Signal", "SimulationError",
           "SimDeadlockError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim...)."""


class SimDeadlockError(SimulationError):
    """Processes can no longer make progress (watchdog or drained queue).

    Besides the human-readable message, :attr:`blocked` carries a
    structured ``[(process_name, signal_name_or_None), ...]`` snapshot —
    one entry per unfinished process, with the name of the signal it was
    suspended on (``None`` when it was delayed/ready instead) — so chaos
    tests and tooling can diagnose a stall without parsing the string.
    """

    def __init__(self, message: str,
                 blocked: Optional[List[Tuple[str, Optional[str]]]] = None
                 ) -> None:
        super().__init__(message)
        #: ``(process name, awaited signal name or None)`` per stalled process
        self.blocked: List[Tuple[str, Optional[str]]] = blocked or []


class _Event:
    """One scheduled callback; pooled via the simulator's free list.

    Future-time events sit in the heap wrapped as ``(time, seq, event)``
    triples — sequence numbers are unique, so heap ordering resolves on
    the two leading ints with C-speed tuple comparison and never falls
    through to comparing the records themselves.  Same-cycle events go in
    the ready deque bare.
    """

    __slots__ = ("time", "seq", "fn", "args")

    def __init__(self, time: int, seq: int, fn: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args


class Signal:
    """A one-to-many wake-up point.

    Waiters are generator processes (via ``yield signal``) or plain callbacks
    (via :meth:`add_callback`).  Firing wakes every *currently registered*
    waiter; waiters registered during the fire are not woken until the next
    fire.  Wake-ups are scheduled as zero-delay events so that a fire never
    re-enters a waiter synchronously — this keeps event ordering deterministic
    and stack depth bounded.
    """

    __slots__ = ("sim", "name", "_waiters", "fire_count", "last_value",
                 "__weakref__")

    def __init__(self, sim: "Simulator", name: Optional[str] = "") -> None:
        self.sim = sim
        self.name = name or ""
        self._waiters: List[Callable[[Any], None]] = []
        #: number of times :meth:`fire` has been called (useful in tests).
        self.fire_count = 0
        #: value passed to the most recent :meth:`fire` — retained only
        #: while diagnostics (signal registry or tracer) are attached, so
        #: plain runs never pin workload payloads for the signal's lifetime
        self.last_value: Any = None
        registry = sim._signal_registry
        if registry is not None:
            registry.append(weakref.ref(self))
            if len(registry) > sim._registry_compact_at:
                sim._compact_signal_registry()

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Register ``fn(value)`` to run (once) the next time the signal fires."""
        self._waiters.append(fn)

    def fire(self, value: Any = None) -> None:
        """Wake all registered waiters with ``value`` at the current cycle."""
        self.fire_count += 1
        sim = self.sim
        if sim._retain_values or sim.tracer is not None:
            # diagnostics attached (sanitizer/registry or tracing): keep
            # the payload inspectable; otherwise drop it so long campaigns
            # don't pin dead workload objects for the signal's lifetime
            self.last_value = value
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        # inlined zero-delay scheduling (== sim.schedule(0, fn, value) per
        # waiter): wakeups are the hottest allocation site in the kernel
        ready_append = sim._ready.append
        free = sim._free
        now = sim.now
        seq = sim._seq
        for fn in waiters:
            seq += 1
            if free:
                ev = free.pop()
                ev.time = now
                ev.seq = seq
                ev.fn = fn
                ev.args = (value,)
            else:
                ev = _Event(now, seq, fn, (value,))
            ready_append(ev)
        sim._seq = seq

    @property
    def n_waiters(self) -> int:
        """Number of waiters currently registered."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """Drives a generator coroutine inside a :class:`Simulator`.

    Created through :meth:`Simulator.spawn`.  The generator's ``return``
    value is stored in :attr:`result` and broadcast through :attr:`done`.
    """

    __slots__ = ("sim", "name", "_gen", "finished", "result", "_done",
                 "waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator,
                 name: Optional[str] = "") -> None:
        self.sim = sim
        self.name = name or ""
        self._gen = gen
        self.finished = False
        self.result: Any = None
        # built on first access of ``done``: most processes (thread
        # programs) are never joined or waited on
        self._done: Optional[Signal] = None
        #: the :class:`Signal` this process is currently suspended on, if any
        #: (diagnostic: the deadlock watchdog names it in its report).
        self.waiting_on: Optional[Signal] = None

    @property
    def done(self) -> Signal:
        """Fires (with the return value) when the generator completes."""
        done = self._done
        if done is None:
            done = self._done = Signal(self.sim, name=f"{self.name}.done")
        return done

    def _step(self, value: Any = None) -> None:
        if self.finished:
            return
        self.waiting_on = None
        try:
            item = self._gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            # bump before firing: run_until_processes_finish re-evaluates
            # its finish predicate only when this stamp moves
            self.sim._finish_stamp += 1
            live = self.sim._live_processes
            if live is not None:
                live.discard(self)
            if self._done is not None:  # no signal, no waiters to wake
                self._done.fire(stop.value)
            return
        # exact-type fast paths first: yielded ints and Signals are the
        # per-event common case (type() is also how bool is excluded —
        # bool is an int subclass, and `yield True` is always a bug)
        cls = type(item)
        if cls is int:
            if item >= 0:
                # inlined sim.schedule(item, self._step): delay yields are
                # the single most frequent scheduling call in a simulation
                sim = self.sim
                sim._seq += 1
                seq = sim._seq
                time = sim.now + item
                free = sim._free
                if free:
                    ev = free.pop()
                    ev.time = time
                    ev.seq = seq
                    ev.fn = self._step
                    ev.args = ()
                else:
                    ev = _Event(time, seq, self._step, ())
                if item == 0:
                    sim._ready.append(ev)
                else:
                    heap = sim._heap
                    if heap:
                        heappush(heap, (time, seq, ev))
                    else:
                        heap.append((time, seq, ev))
                return
            raise SimulationError(
                f"process {self.name!r} yielded negative delay {item}"
            )
        if cls is Signal:
            self.waiting_on = item
            item._waiters.append(self._step)
            return
        self._step_slow(item)

    def _step_slow(self, item: Any) -> None:
        """Uncommon yields: int/Signal subclasses and type errors."""
        if isinstance(item, bool):
            # `yield True` would silently act as a 1-cycle delay, which is
            # always a bug (a forgotten `yield from` around a
            # predicate-returning coroutine, typically)
            raise SimulationError(
                f"process {self.name!r} yielded a bool ({item}); "
                "yield an int delay or a Signal"
            )
        if isinstance(item, int):
            if item < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {item}"
                )
            self.sim.schedule(item, self._step)
        elif isinstance(item, Signal):
            self.waiting_on = item
            item.add_callback(self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported item {item!r}; "
                "yield an int delay or a Signal"
            )

    def join(self) -> Generator[Signal, Any, Any]:
        """Generator usable as ``result = yield from proc.join()``."""
        if not self.finished:
            yield self.done
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


def _chain_hooks(hooks):
    """One ``on_event`` callable running ``hooks`` in order (see
    :meth:`Simulator.add_on_event`); the list rides along as ``_hooks`` so
    add/remove can rebuild the chain."""
    def chain(sim: "Simulator") -> None:
        for hook in hooks:
            hook(sim)
    chain._hooks = hooks
    return chain


class Simulator:
    """The event engine: a deterministic ``(time, seq)``-ordered dual queue.

    Args:
        profile: optional :class:`repro.sim.profile.Profiler`; when set,
            every executed event is wall-timed and attributed to the model
            component that owns its callback.  ``None`` keeps the hot loop
            free of timing calls.
    """

    def __init__(self, profile=None) -> None:
        # future-time events, heap-ordered by (time, seq)
        self._heap: List[_Event] = []
        # same-cycle events in FIFO (== seq) order; always sorted by
        # (time, seq) because entries are appended at the current time
        self._ready: "deque[_Event]" = deque()
        # recycled _Event records (capped so a burst cannot pin memory)
        self._free: List[_Event] = []
        self._seq = 0
        self.now = 0
        self._events_executed = 0
        # processes spawned so far: names the unnamed ones ``proc<N>``
        self._spawned = 0
        # incremented whenever any process finishes; lets the run loops
        # re-check their finish predicate in O(1) per event
        self._finish_stamp = 0
        #: optional :class:`repro.sim.trace.Tracer`; instrumented components
        #: emit events here when set (see repro.sim.trace)
        self.tracer = None
        #: optional :class:`repro.sim.profile.Profiler` (cycle attribution)
        self.profiler = profile
        #: optional checkpoint ``fn(sim)`` invoked after every executed event;
        #: the runtime invariant sanitizer (repro.verify.invariants) hooks in
        #: here.  ``None`` keeps the hot path a single falsy check.
        self.on_event: Optional[Callable[["Simulator"], None]] = None
        # weak registry of live Signals, populated only when enabled (see
        # enable_signal_registry) so normal runs pay nothing
        self._signal_registry: Optional[List["weakref.ref[Signal]"]] = None
        # compact the registry when it outgrows this (see Signal.__init__)
        self._registry_compact_at = 256
        # retain Signal.last_value only while diagnostics want it
        self._retain_values = False
        # unfinished processes, held only while diagnostics are on: a
        # process suspended on a signal nothing else references would
        # otherwise be collected together with it, out of the registry's
        # sight (see enable_signal_registry)
        self._live_processes: Optional[Set[Process]] = None

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def enable_signal_registry(self) -> None:
        """Track every Signal created from now on (weakly).

        Used by the invariant sanitizer to detect orphaned waiters at drain;
        off by default so plain simulations allocate nothing extra.  While
        it is on, the kernel also holds every unfinished process it spawns,
        so a process stuck on an otherwise unreferenced signal keeps that
        signal alive for the check.
        """
        if self._signal_registry is None:
            self._signal_registry = []
            self._live_processes = set()
        self._retain_values = True

    def add_on_event(self, fn: Callable[["Simulator"], None]) -> None:
        """Add ``fn`` to the per-event checkpoint, composing with any hook
        already installed.

        ``on_event`` itself stays a single callable (the hot loop pays one
        falsy check when nothing is attached); with several observers —
        e.g. the invariant sanitizer and a future per-event watcher — the
        installed callable is a chain that runs them in attachment order.
        """
        current = self.on_event
        if current is None:
            self.on_event = fn
            return
        hooks = list(getattr(current, "_hooks", (current,)))
        hooks.append(fn)
        self.on_event = _chain_hooks(hooks)

    def remove_on_event(self, fn: Callable[["Simulator"], None]) -> None:
        """Remove ``fn`` from the checkpoint chain (no-op if absent).

        Matches by equality so bound methods — which build a fresh object
        per attribute access — are found.
        """
        current = self.on_event
        if current is None:
            return
        hooks = [h for h in getattr(current, "_hooks", (current,)) if h != fn]
        if not hooks:
            self.on_event = None
        elif len(hooks) == 1:
            self.on_event = hooks[0]
        else:
            self.on_event = _chain_hooks(hooks)

    def _compact_signal_registry(self) -> None:
        """Drop dead weakrefs in place and raise the next compaction bar.

        Long campaigns create and drop millions of short-lived signals
        (fill/watch signals); without periodic compaction the
        registry list would grow monotonically with dead references.
        """
        registry = self._signal_registry
        if registry is None:
            return
        registry[:] = [ref for ref in registry if ref() is not None]
        self._registry_compact_at = max(256, 2 * len(registry))

    def live_signals(self) -> List[Signal]:
        """Signals created since :meth:`enable_signal_registry` and still alive."""
        if self._signal_registry is None:
            return []
        alive = []
        refs = []
        for ref in self._signal_registry:
            sig = ref()
            if sig is not None:
                alive.append(sig)
                refs.append(ref)
        self._signal_registry = refs  # drop dead references as we go
        self._registry_compact_at = max(256, 2 * len(refs))
        return alive

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #
    def schedule(self, delay: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles (0 = later this cycle)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        time = self.now + delay
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = self._seq
            ev.fn = fn
            ev.args = args
        else:
            ev = _Event(time, self._seq, fn, args)
        if delay == 0:
            self._ready.append(ev)
        else:
            heap = self._heap
            if heap:
                heappush(heap, (time, self._seq, ev))
            else:
                heap.append((time, self._seq, ev))  # nothing to sift against

    def schedule_at(self, time: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        self._seq += 1
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = self._seq
            ev.fn = fn
            ev.args = args
        else:
            ev = _Event(time, self._seq, fn, args)
        if time == self.now:
            self._ready.append(ev)
        else:
            heap = self._heap
            if heap:
                heappush(heap, (time, self._seq, ev))
            else:
                heap.append((time, self._seq, ev))

    def signal(self, name: Optional[str] = "") -> Signal:
        """Create a new :class:`Signal` bound to this simulator."""
        return Signal(self, name)

    def spawn(self, gen: Generator, name: Optional[str] = "") -> Process:
        """Start a generator as a process on the next zero-delay slot.

        The kernel keeps no reference to the process beyond its pending
        wakeups (and, while the signal registry is on, until it finishes):
        keep the returned handle to join or inspect it later.
        """
        proc = Process(self, gen, name or f"proc{self._spawned}")
        self._spawned += 1
        if self._live_processes is not None:
            self._live_processes.add(proc)
        self.schedule(0, proc._step)
        return proc

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once simulated time would pass this cycle.
            max_events: safety valve against runaway simulations.

        Returns:
            The final simulated cycle.
        """
        heap = self._heap
        ready = self._ready
        free = self._free
        profiler = self.profiler
        # the checkpoint hook attaches/detaches only between runs (see
        # repro.verify.invariants), so resolve it once
        on_event = self.on_event
        executed = 0
        while True:
            # pick the globally next event: the deque is (time, seq)-sorted
            # and so is the heap, so one head comparison decides
            if ready:
                ev = ready[0]
                from_heap = False
                if heap:
                    head = heap[0]
                    if head[0] < ev.time or (head[0] == ev.time
                                             and head[1] < ev.seq):
                        from_heap = True
                        ev = head[2]
            elif heap:
                from_heap = True
                ev = heap[0][2]
            else:
                break
            time = ev.time
            if until is not None and time > until:
                self.now = until
                break
            if from_heap:
                heappop(heap)
            else:
                ready.popleft()
            self.now = time
            fn = ev.fn
            args = ev.args
            ev.fn = ev.args = None  # release references before recycling
            if len(free) < 4096:
                free.append(ev)
            if profiler is None:
                fn(*args)
            else:
                t0 = perf_counter()
                fn(*args)
                profiler.record(fn, time, perf_counter() - t0)
            executed += 1
            if on_event is not None:
                on_event(self)
            if max_events is not None and executed >= max_events:
                self._events_executed += executed
                raise SimulationError(
                    f"exceeded max_events={max_events} at cycle {self.now}"
                )
        self._events_executed += executed
        return self.now

    def run_until_processes_finish(
        self, procs: Iterable[Process], max_events: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> int:
        """Run until every process in ``procs`` has finished.

        Leftover events (e.g. background pollers) are abandoned, which models
        "the parallel phase ended"; the returned cycle is the completion time
        of the last process.

        Args:
            max_events: safety valve against runaway simulations.
            max_cycles: deadlock watchdog — if simulated time passes this
                cycle with processes still unfinished, raise a
                :class:`SimDeadlockError` naming the blocked processes and
                the signals they wait on (also available structured on the
                exception's ``blocked`` attribute).
        """
        procs = list(procs)
        heap = self._heap
        ready = self._ready
        free = self._free
        profiler = self.profiler
        on_event = self.on_event  # attaches only between runs; see run()
        executed = 0
        # the all-finished predicate is O(n_procs); re-evaluate it only
        # when the kernel's finish stamp moved (some process completed)
        stamp = self._finish_stamp - 1
        try:
            while True:
                if stamp != self._finish_stamp:
                    stamp = self._finish_stamp
                    if all(p.finished for p in procs):
                        return self.now
                if ready:
                    ev = ready[0]
                    from_heap = False
                    if heap:
                        head = heap[0]
                        if head[0] < ev.time or (head[0] == ev.time
                                                 and head[1] < ev.seq):
                            from_heap = True
                            ev = head[2]
                elif heap:
                    from_heap = True
                    ev = heap[0][2]
                else:
                    break
                time = ev.time
                if max_cycles is not None and time > max_cycles:
                    self.now = max_cycles
                    raise SimDeadlockError(
                        f"deadlock watchdog: exceeded max_cycles={max_cycles} "
                        f"with blocked processes: {self._blocked_report(procs)}",
                        blocked=self._blocked_snapshot(procs),
                    )
                if from_heap:
                    heappop(heap)
                else:
                    ready.popleft()
                self.now = time
                fn = ev.fn
                args = ev.args
                ev.fn = ev.args = None
                if len(free) < 4096:
                    free.append(ev)
                if profiler is None:
                    fn(*args)
                else:
                    t0 = perf_counter()
                    fn(*args)
                    profiler.record(fn, time, perf_counter() - t0)
                executed += 1
                if on_event is not None:
                    on_event(self)
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at cycle {self.now}"
                    )
        finally:
            self._events_executed += executed
        unfinished = [p.name for p in procs if not p.finished]
        if unfinished:
            raise SimDeadlockError(
                "event queue drained with unfinished processes: "
                f"{self._blocked_report(procs)}",
                blocked=self._blocked_snapshot(procs),
            )
        return self.now

    @staticmethod
    def _blocked_snapshot(
        procs: Iterable[Process],
    ) -> List[Tuple[str, Optional[str]]]:
        """Structured form of :meth:`_blocked_report` (SimDeadlockError)."""
        return [
            (p.name, p.waiting_on.name if p.waiting_on is not None else None)
            for p in procs if not p.finished
        ]

    @staticmethod
    def _blocked_report(procs: Iterable[Process]) -> str:
        """``name (waiting on signal)`` for every unfinished process."""
        parts = []
        for p in procs:
            if p.finished:
                continue
            if p.waiting_on is not None:
                parts.append(f"{p.name} (waiting on "
                             f"{p.waiting_on.name or 'unnamed signal'})")
            else:
                parts.append(f"{p.name} (delayed/ready)")
        return "; ".join(parts) or "<none>"

    @property
    def events_executed(self) -> int:
        """Total events executed so far (performance/diagnostic metric)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events currently queued."""
        return len(self._heap) + len(self._ready)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Simulator(now={self.now}, "
                f"pending={len(self._heap) + len(self._ready)})")
