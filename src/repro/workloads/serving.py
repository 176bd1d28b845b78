"""Open-loop request-serving workloads (the overload/robustness family).

Where every Table III workload is *closed-loop* — each thread issues its
next operation as soon as the previous one finishes, so offered load
self-throttles to whatever the lock sustains — these three scenarios are
*open-loop*: requests arrive on a seeded arrival process at a configured
``offered_load`` whether or not the system keeps up, which is the only
regime where saturation, queueing collapse and load shedding are
observable at all (the PerfKitBenchmarker service benchmarks ROADMAP
points to all work this way).

Three scenarios, one hot lock each:

- ``kvstore`` — a lock-protected key-value store: seeded GET/PUT mix
  against a padded key table, whole-table lock.
- ``msgqueue`` — producer/consumer message queue: the first half of the
  cores produce on the arrival process, the rest drain a bounded ring
  buffer; latency is end-to-end (arrival to dequeue), and a full ring is
  backpressure (the enqueue is shed).
- ``webserver`` — connection-table sketch: each request claims a
  connection slot from a free stack under the lock, "serves" for a
  seeded service time with the lock released, then reacquires to close.
  A full table is a 503 (shed).

Arrival processes (``arrival="poisson"`` or ``"bursty"``) are integer
cycle lists precomputed per core from ``random.Random`` streams derived
from the workload seed — pure functions of the spec, so fingerprints are
byte-identical across inline/pool/remote backends.

When the chosen lock supports timed acquire (spin family, ``cr:``
wrappers) and ``timed=True``, requests that cannot take the lock before
their deadline are *shed* after seeded backoff-and-retry and recorded as
such; with a non-timed lock (plain ``mcs``) every request blocks to
completion and the deadline can only be observed in hindsight — the
goodput-collapse regime ``repro.experiments.ablate_overload`` plots.

Every request appends ``(arrival, start, end, core, ok, retries)`` to
the machine request log (:meth:`repro.machine.Machine.request_log`);
:mod:`repro.analysis.latency` turns those into throughput/goodput/
percentile summaries.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

from repro.machine import Machine
from repro.workloads.base import Workload, WorkloadInstance

__all__ = ["ServingWorkload", "KVStoreServing", "MessageQueueServing",
           "WebServerServing", "SERVING_WORKLOADS"]


def _inc(v: int) -> int:
    return v + 1


class ServingWorkload(Workload):
    """Shared machinery: seeded arrivals + timed-acquire request loops.

    Args:
        offered_load: machine-wide arrival rate in requests per kilocycle
            (split evenly across the request-issuing cores).
        duration: length of the arrival window in cycles; the run itself
            lasts until the backlog drains, which is the point.
        deadline: per-request latency budget in cycles — requests beyond
            it count against goodput, and (in timed mode) stop retrying.
        arrival: ``"poisson"`` (memoryless) or ``"bursty"`` (on/off
            modulated Poisson with the same mean rate).
        timed: use timed acquires + shedding when the lock supports it;
            False forces the blocking path even on spin locks.
        acquire_slice: timeout of one timed-acquire attempt, in cycles.
        max_attempts: timed-acquire attempts before a request is shed.
        backoff_base: seeded retry backoff unit (attempt k idles for a
            uniform draw from [base, 2*base) scaled by k).
        burst_on / burst_off: bursty-mode phase lengths in cycles.
        seed: arrival/operation RNG seed; overridden by ``RunSpec.seed``.
    """

    n_hc = 1
    access_pattern = "open-loop arrivals -> one hot lock"

    def __init__(self, offered_load: float = 2.0, duration: int = 20_000,
                 deadline: int = 2_000, arrival: str = "poisson",
                 timed: bool = True, acquire_slice: int = 400,
                 max_attempts: int = 8, backoff_base: int = 40,
                 burst_on: int = 600, burst_off: int = 1_400,
                 seed: int = 1) -> None:
        if offered_load <= 0:
            raise ValueError("offered_load must be positive")
        if duration < 1 or deadline < 1:
            raise ValueError("duration and deadline must be >= 1 cycle")
        if arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {arrival!r}; "
                             f"choose 'poisson' or 'bursty'")
        if acquire_slice < 1 or max_attempts < 1 or backoff_base < 1:
            raise ValueError("acquire_slice, max_attempts and backoff_base "
                             "must be >= 1")
        if burst_on < 1 or burst_off < 0:
            raise ValueError("need burst_on >= 1 and burst_off >= 0")
        self.offered_load = offered_load
        self.duration = duration
        self.deadline = deadline
        self.arrival = arrival
        self.timed = timed
        self.acquire_slice = acquire_slice
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.burst_on = burst_on
        self.burst_off = burst_off
        self.seed = seed

    # ------------------------------------------------------------------ #
    # seeded arrival processes
    # ------------------------------------------------------------------ #
    def _rng(self, core: int, salt: int = 0) -> random.Random:
        # integer-only seed derivation: string seeds would hash
        # PYTHONHASHSEED-dependently and break cross-process determinism
        return random.Random(1_000_003 * (self.seed + 7919 * salt) + core)

    def arrivals_for(self, core: int, n_sources: int) -> List[int]:
        """Integer arrival cycles in [0, duration) for one issuing core."""
        rng = self._rng(core)
        rate = self.offered_load / 1000.0 / n_sources
        out: List[int] = []
        if self.arrival == "poisson":
            t = 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= self.duration:
                    break
                out.append(int(t))
        else:  # bursty: on/off phases, same mean rate as the poisson mode
            phase_len = self.burst_on + self.burst_off
            burst_rate = rate * phase_len / self.burst_on
            phase_start = 0.0
            while phase_start < self.duration:
                t = phase_start + rng.expovariate(burst_rate)
                phase_end = min(phase_start + self.burst_on, self.duration)
                while t < phase_end:
                    out.append(int(t))
                    t += rng.expovariate(burst_rate)
                phase_start += phase_len
        return out

    def use_timed(self, lock) -> bool:
        return self.timed and lock.supports_timed_acquire


class KVStoreServing(ServingWorkload):
    """Lock-protected key-value store under an open-loop GET/PUT mix."""

    name = "kvstore"

    def __init__(self, n_keys: int = 16, put_fraction: float = 0.5,
                 service_cycles: int = 20, **kwargs) -> None:
        super().__init__(**kwargs)
        if n_keys < 1:
            raise ValueError("need at least one key")
        if not 0.0 <= put_fraction <= 1.0:
            raise ValueError("put_fraction outside [0, 1]")
        if service_cycles < 0:
            raise ValueError("negative service_cycles")
        self.n_keys = n_keys
        self.put_fraction = put_fraction
        self.service_cycles = service_cycles

    def build(self, machine: Machine, hc_kinds: Sequence[str],
              other_kind: str = "tatas") -> WorkloadInstance:
        n = machine.config.n_cores
        lock = machine.make_lock(hc_kinds[0], name="kv-lock")
        table = machine.mem.address_space.alloc_words_padded(self.n_keys)
        log = machine.request_log()
        deadline = self.deadline
        slice_ = self.acquire_slice
        max_attempts = self.max_attempts
        backoff_base = self.backoff_base
        service = self.service_cycles
        timed = self.use_timed(lock)
        puts_done = [0] * n
        # per-core precomputed plans: arrivals and the (is_put, key) mix
        plans: List[Tuple[List[int], List[Tuple[bool, int]]]] = []
        for core in range(n):
            arrivals = self.arrivals_for(core, n)
            # the op stream is seeded only for a core with arrivals
            op_rng = self._rng(core, salt=1) if arrivals else None
            ops = [(op_rng.random() < self.put_fraction,
                    op_rng.randrange(self.n_keys)) for _ in arrivals]
            plans.append((arrivals, ops))

        def make_timed_program(core_id: int) -> Callable:
            arrivals, ops = plans[core_id]

            def program(ctx):
                rng = None  # backoff stream, seeded on the first timeout
                puts = 0
                for index, arrival in enumerate(arrivals):
                    if arrival > ctx.sim.now:
                        yield from ctx.idle(arrival - ctx.sim.now)
                    start = ctx.sim.now
                    cutoff = arrival + deadline
                    granted = False
                    tries = 0
                    for attempt in range(max_attempts):
                        remaining = cutoff - ctx.sim.now
                        if remaining <= 0:
                            break
                        tries = attempt + 1
                        granted = yield from ctx.acquire(
                            lock, timeout=min(slice_, remaining))
                        if granted:
                            break
                        rng = rng or self._rng(core_id, salt=2)
                        pause = min(rng.randrange(backoff_base,
                                                  2 * backoff_base)
                                    * (attempt + 1),
                                    cutoff - ctx.sim.now)
                        if pause > 0:
                            yield from ctx.idle(pause)
                    if granted:
                        is_put, key = ops[index]
                        if is_put:
                            yield from ctx.rmw(table[key], _inc)
                            puts += 1
                        else:
                            yield from ctx.load(table[key])  # noqa: SIM006
                        if service:
                            yield from ctx.compute(service)
                        yield from ctx.release(lock)
                        log.append((arrival, start, ctx.sim.now, core_id,
                                    1, tries - 1))
                    else:
                        log.append((arrival, start, ctx.sim.now, core_id,
                                    0, tries))
                puts_done[core_id] = puts
            return program

        def make_blocking_program(core_id: int) -> Callable:
            arrivals, ops = plans[core_id]

            def program(ctx):
                puts = 0
                for index, arrival in enumerate(arrivals):
                    if arrival > ctx.sim.now:
                        yield from ctx.idle(arrival - ctx.sim.now)
                    start = ctx.sim.now
                    yield from ctx.acquire(lock)
                    is_put, key = ops[index]
                    if is_put:
                        yield from ctx.rmw(table[key], _inc)
                        puts += 1
                    else:
                        yield from ctx.load(table[key])  # noqa: SIM006
                    if service:
                        yield from ctx.compute(service)
                    yield from ctx.release(lock)
                    log.append((arrival, start, ctx.sim.now, core_id, 1, 0))
                puts_done[core_id] = puts
            return program

        maker = make_timed_program if timed else make_blocking_program

        def validate(m: Machine) -> None:
            stored = sum(m.mem.backing.read(addr) for addr in table)
            expected = sum(puts_done)
            assert stored == expected, \
                f"kvstore: table sums to {stored}, completed PUTs {expected}"
            completed = sum(1 for rec in log if rec[4])
            shed = sum(1 for rec in log if not rec[4])
            offered = sum(len(p[0]) for p in plans)
            assert completed + shed == offered == len(log), \
                f"kvstore: {completed}+{shed} records vs {offered} arrivals"

        return WorkloadInstance(
            name=self.name,
            programs=[maker(c) for c in range(n)],
            locks=[lock],
            hc_locks=[lock],
            lock_labels={lock.uid: "KV-L1"},
            validate=validate,
        )


class MessageQueueServing(ServingWorkload):
    """Producers enqueue on the arrival process; consumers drain the ring.

    The first ``n_cores // 2`` cores produce, the rest consume.  Latency
    is end-to-end: the arrival cycle rides inside the ring slot and the
    consumer logs the completion when the item leaves the queue.  A full
    ring sheds the enqueue (backpressure), a deadline miss on the lock
    sheds it in timed mode.
    """

    name = "msgqueue"

    def __init__(self, capacity: int = 16, service_cycles: int = 30,
                 poll_cycles: int = 200, **kwargs) -> None:
        super().__init__(**kwargs)
        if capacity < 1:
            raise ValueError("need a ring of at least one slot")
        if service_cycles < 0 or poll_cycles < 1:
            raise ValueError("need service_cycles >= 0 and poll_cycles >= 1")
        self.capacity = capacity
        self.service_cycles = service_cycles
        self.poll_cycles = poll_cycles

    def build(self, machine: Machine, hc_kinds: Sequence[str],
              other_kind: str = "tatas") -> WorkloadInstance:
        n = machine.config.n_cores
        if n < 2:
            raise ValueError("msgqueue needs at least 2 cores "
                             "(one producer, one consumer)")
        n_producers = max(1, n // 2)
        capacity = self.capacity
        lock = machine.make_lock(hc_kinds[0], name="mq-lock")
        slots = machine.mem.address_space.alloc_words_padded(capacity)
        head_addr, tail_addr, count_addr, done_addr = \
            machine.mem.address_space.alloc_words_padded(4)
        log = machine.request_log()
        deadline = self.deadline
        slice_ = self.acquire_slice
        max_attempts = self.max_attempts
        backoff_base = self.backoff_base
        service = self.service_cycles
        poll = self.poll_cycles
        timed = self.use_timed(lock)
        produced = [0] * n
        consumed = [0] * n
        arrival_lists = [self.arrivals_for(core, n_producers)
                         for core in range(n_producers)]

        def make_producer(core_id: int) -> Callable:
            arrivals = arrival_lists[core_id]

            def program(ctx):
                rng = None  # backoff stream, seeded on the first timeout
                accepted = 0
                for arrival in arrivals:
                    if arrival > ctx.sim.now:
                        yield from ctx.idle(arrival - ctx.sim.now)
                    start = ctx.sim.now
                    cutoff = arrival + deadline
                    granted = False
                    tries = 0
                    if timed:
                        for attempt in range(max_attempts):
                            remaining = cutoff - ctx.sim.now
                            if remaining <= 0:
                                break
                            tries = attempt + 1
                            granted = yield from ctx.acquire(
                                lock, timeout=min(slice_, remaining))
                            if granted:
                                break
                            rng = rng or self._rng(core_id, salt=2)
                            pause = min(rng.randrange(backoff_base,
                                                      2 * backoff_base)
                                        * (attempt + 1),
                                        cutoff - ctx.sim.now)
                            if pause > 0:
                                yield from ctx.idle(pause)
                    else:
                        granted = yield from ctx.acquire(lock)
                    enqueued = False
                    if granted:
                        count = yield from ctx.load(count_addr)
                        if count < capacity:
                            tail = yield from ctx.load(tail_addr)
                            # stamp arrival+1 so 0 keeps meaning "empty"
                            yield from ctx.store(slots[tail], arrival + 1)
                            yield from ctx.store(tail_addr,
                                                 (tail + 1) % capacity)
                            yield from ctx.store(count_addr, count + 1)
                            enqueued = True
                        yield from ctx.release(lock)
                    if enqueued:
                        accepted += 1  # completion logged by the consumer
                    else:
                        retries = tries - 1 if granted else tries
                        log.append((arrival, start, ctx.sim.now, core_id,
                                    0, max(retries, 0)))
                # announce completion under the lock — bookkeeping blocks
                # even in timed mode, consumers must learn we are done
                yield from ctx.acquire(lock)
                yield from ctx.rmw(done_addr, _inc)
                yield from ctx.release(lock)
                produced[core_id] = accepted
            return program

        def make_consumer(core_id: int) -> Callable:
            def program(ctx):
                drained = 0
                while True:
                    yield from ctx.acquire(lock)
                    count = yield from ctx.load(count_addr)
                    stamp = 0
                    done = 0
                    if count > 0:
                        head = yield from ctx.load(head_addr)
                        stamp = yield from ctx.load(slots[head])
                        yield from ctx.store(slots[head], 0)
                        yield from ctx.store(head_addr, (head + 1) % capacity)
                        yield from ctx.store(count_addr, count - 1)
                    else:
                        done = yield from ctx.load(done_addr)
                    yield from ctx.release(lock)
                    if count > 0:
                        if service:
                            yield from ctx.compute(service)
                        arrival = stamp - 1
                        log.append((arrival, arrival, ctx.sim.now, core_id,
                                    1, 0))
                        drained += 1
                    elif done == n_producers:
                        break
                    else:
                        yield from ctx.idle(poll)
                consumed[core_id] = drained
            return program

        def validate(m: Machine) -> None:
            assert m.mem.backing.read(count_addr) == 0, "ring not drained"
            assert m.mem.backing.read(done_addr) == n_producers
            total_in = sum(produced)
            total_out = sum(consumed)
            assert total_in == total_out, \
                f"msgqueue: {total_in} enqueued but {total_out} drained"
            offered = sum(len(a) for a in arrival_lists)
            assert len(log) == offered, \
                f"msgqueue: {len(log)} records vs {offered} arrivals"

        programs = [make_producer(c) if c < n_producers else make_consumer(c)
                    for c in range(n)]
        return WorkloadInstance(
            name=self.name,
            programs=programs,
            locks=[lock],
            hc_locks=[lock],
            lock_labels={lock.uid: "MQ-L1"},
            validate=validate,
        )


class WebServerServing(ServingWorkload):
    """Connection-table web-server sketch: open / serve / close.

    Opening claims a slot from a free stack under the lock; the "service"
    itself runs lock-free for a seeded time (the concurrency the table
    capacity bounds); closing reacquires the lock to return the slot.  A
    full table is an immediate 503 — shed without waiting, like a
    listen-backlog overflow.
    """

    name = "webserver"

    def __init__(self, table_slots: int = 8, service_base: int = 120,
                 service_jitter: int = 80, **kwargs) -> None:
        super().__init__(**kwargs)
        if table_slots < 1:
            raise ValueError("need at least one connection slot")
        if service_base < 1 or service_jitter < 0:
            raise ValueError("need service_base >= 1, service_jitter >= 0")
        self.table_slots = table_slots
        self.service_base = service_base
        self.service_jitter = service_jitter

    def build(self, machine: Machine, hc_kinds: Sequence[str],
              other_kind: str = "tatas") -> WorkloadInstance:
        n = machine.config.n_cores
        capacity = self.table_slots
        lock = machine.make_lock(hc_kinds[0], name="conn-lock")
        conns = machine.mem.address_space.alloc_words_padded(capacity)
        free = machine.mem.address_space.alloc_words_padded(capacity)
        (top_addr,) = machine.mem.address_space.alloc_words_padded(1)
        # seed the free stack before the run: every slot starts available
        for i in range(capacity):
            machine.mem.backing.write(free[i], i)
        machine.mem.backing.write(top_addr, capacity)
        log = machine.request_log()
        deadline = self.deadline
        slice_ = self.acquire_slice
        max_attempts = self.max_attempts
        backoff_base = self.backoff_base
        timed = self.use_timed(lock)
        served = [0] * n
        plans: List[Tuple[List[int], List[int]]] = []
        for core in range(n):
            arrivals = self.arrivals_for(core, n)
            # the service-time stream is seeded only for a core with arrivals
            svc_rng = self._rng(core, salt=1) if arrivals else None
            services = [self.service_base
                        + svc_rng.randrange(self.service_jitter + 1)
                        for _ in arrivals]
            plans.append((arrivals, services))

        def make_program(core_id: int) -> Callable:
            arrivals, services = plans[core_id]

            def program(ctx):
                rng = None  # backoff stream, seeded on the first timeout
                handled = 0
                for index, arrival in enumerate(arrivals):
                    if arrival > ctx.sim.now:
                        yield from ctx.idle(arrival - ctx.sim.now)
                    start = ctx.sim.now
                    cutoff = arrival + deadline
                    granted = False
                    tries = 0
                    if timed:
                        for attempt in range(max_attempts):
                            remaining = cutoff - ctx.sim.now
                            if remaining <= 0:
                                break
                            tries = attempt + 1
                            granted = yield from ctx.acquire(
                                lock, timeout=min(slice_, remaining))
                            if granted:
                                break
                            rng = rng or self._rng(core_id, salt=2)
                            pause = min(rng.randrange(backoff_base,
                                                      2 * backoff_base)
                                        * (attempt + 1),
                                        cutoff - ctx.sim.now)
                            if pause > 0:
                                yield from ctx.idle(pause)
                    else:
                        granted = yield from ctx.acquire(lock)
                    slot = -1
                    if granted:
                        top = yield from ctx.load(top_addr)
                        if top > 0:
                            slot = yield from ctx.load(free[top - 1])
                            yield from ctx.store(top_addr, top - 1)
                            yield from ctx.rmw(conns[slot], _inc)
                        yield from ctx.release(lock)
                    if slot >= 0:
                        # the request itself: lock-free, concurrent up to
                        # the table capacity
                        yield from ctx.compute(services[index])
                        # closing must not be shed or the slot leaks
                        yield from ctx.acquire(lock)
                        yield from ctx.store(conns[slot], 0)
                        top = yield from ctx.load(top_addr)
                        yield from ctx.store(free[top], slot)
                        yield from ctx.store(top_addr, top + 1)
                        yield from ctx.release(lock)
                        handled += 1
                        log.append((arrival, start, ctx.sim.now, core_id,
                                    1, max(tries - 1, 0)))
                    else:
                        retries = tries - 1 if granted else tries
                        log.append((arrival, start, ctx.sim.now, core_id,
                                    0, max(retries, 0)))
                served[core_id] = handled
            return program

        def validate(m: Machine) -> None:
            top = m.mem.backing.read(top_addr)
            assert top == capacity, \
                f"webserver: {capacity - top} connection slot(s) leaked"
            open_conns = sum(m.mem.backing.read(a) for a in conns)
            assert open_conns == 0, f"webserver: {open_conns} conns open"
            stack = sorted(m.mem.backing.read(a) for a in free)
            assert stack == list(range(capacity)), \
                f"webserver: free stack corrupted: {stack}"
            completed = sum(1 for rec in log if rec[4])
            assert completed == sum(served)

        return WorkloadInstance(
            name=self.name,
            programs=[make_program(c) for c in range(n)],
            locks=[lock],
            hc_locks=[lock],
            lock_labels={lock.uid: "WEB-L1"},
            validate=validate,
        )


#: name -> class, merged into the parametric-workload registry
SERVING_WORKLOADS = {
    "kvstore": KVStoreServing,
    "msgqueue": MessageQueueServing,
    "webserver": WebServerServing,
}
