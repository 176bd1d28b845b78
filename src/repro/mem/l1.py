"""Private L1 data-cache controller (MESI).

The L1 exposes coroutine methods (``load`` / ``store`` / ``rmw`` /
``spin_until``) that the core's thread program drives with ``yield from``,
and a :meth:`handle` callback the mesh invokes for incoming protocol
messages (data grants, invalidations, recalls).

Linearization rule (see DESIGN.md): a memory operation's *value effect* is
applied to the global backing store at the instant the L1 gains sufficient
permission (hit start, or fill/grant arrival).  The residual hit latency is
pure timing.  Because the directory serializes M ownership per line and
invalidates all sharers before granting M, this makes the value history per
word identical to the directory's serialization order — no values ever need
to travel inside protocol messages.

Spin-wait modelling: ``spin_until`` reads the word, and if the predicate
fails it sleeps on a per-line *watch* signal that fires when the line is
invalidated, recalled or evicted — the exact moments a real
test-and-test&set spin loop could first observe a new value.  The elapsed
spin reads are replayed into the L1 access statistics so timing, traffic
and energy match the naive cycle-by-cycle loop (DESIGN.md substitution 3).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.mem import protocol as P
from repro.mem.address import home_of, line_of
from repro.mem.backing import BackingStore
from repro.mem import cache
from repro.noc.messages import Message
from repro.noc.topology import Mesh
from repro.sim.config import CMPConfig
from repro.sim.kernel import Signal, Simulator
from repro.sim.stats import CounterSet

__all__ = ["L1Cache"]

# MESI states kept in the tag array
M, E, S = "M", "E", "S"

# fill reply kind -> resulting MESI state (module constant: _install runs
# once per miss and must not rebuild this map each time)
_FILL_STATE = {P.DATA: S, P.DATA_E: E, P.DATA_M: M}

#: sentinel returned by :meth:`L1Cache.try_hit` when the access needs a
#: directory transaction (distinct from every real word value, None included)
MISS = object()


class L1Cache:
    """One core's private L1 data cache."""

    def __init__(
        self,
        sim: Simulator,
        config: CMPConfig,
        core_id: int,
        mesh: Mesh,
        backing: BackingStore,
        counters: CounterSet,
    ) -> None:
        self.sim = sim
        self.config = config
        self.core_id = core_id
        self.mesh = mesh
        self.backing = backing
        self.counters = counters
        self.tags = cache.tag_array(sim, config.l1)
        self.hit_latency = config.l1.latency
        # hot-path constants, resolved once (line_of/home_of inlined in
        # the access path: these run once or more per memory access)
        self._line_mask = ~(config.line_bytes - 1)
        self._line_bytes = config.line_bytes
        self._n_tiles = config.n_cores
        self._noc = config.noc
        # fused make_msg+send entry point, resolved once (bound C method
        # when the compiled mesh core is active)
        self._send_proto = mesh.send_proto
        # the line of the outstanding transaction, if any; its reply is
        # always delivered through the (reused) _fill_sig because in-order
        # cores have exactly one op in flight
        self._pending: Optional[int] = None
        self._fill_sig = sim.signal(f"l1-{core_id}-fill")
        # line -> watch signal for spin_until sleepers; signals persist
        # across fires so the spin-wakeup path allocates nothing
        self._watches: Dict[int, Signal] = {}
        # hot counters, resolved once (these are bumped per memory access)
        self._c_accesses = counters.bind("l1.accesses")
        self._c_misses = counters.bind("l1.misses")
        self._c_rmw = counters.bind("l1.rmw")
        self._c_spin_cycles = counters.bind("l1.spin_cycles")

    # ------------------------------------------------------------------ #
    # public coroutine API (driven by the core with `yield from`)
    # ------------------------------------------------------------------ #
    def load(self, addr: int):
        """Coroutine: read one word; returns its value."""
        value = yield from self._access(addr & self._line_mask, False,
                                        addr, None, None)
        return value

    def store(self, addr: int, value: int):
        """Coroutine: write one word."""
        yield from self._access(addr & self._line_mask, True,
                                addr, value, None)

    def rmw(self, addr: int, fn: Callable[[int], int]):
        """Coroutine: atomic read-modify-write; returns the *old* value.

        Implements the hardware primitives every software lock builds on:
        ``test&set`` (``fn=lambda v: 1``), ``fetch&increment``, ``swap``
        and — by comparing the returned old value — ``compare&swap``.
        """
        old = yield from self._access(addr & self._line_mask, True,
                                      addr, None, fn)
        self._c_rmw.value += 1
        return old

    def spin_until(self, addr: int, predicate: Callable[[int], bool]):
        """Coroutine: busy-wait until ``predicate(word)`` holds; returns it.

        Event-driven equivalent of a test-and-test&set spin loop (see module
        docstring).
        """
        line = addr & self._line_mask
        while True:
            value = self.try_hit(line, False, addr, None, None)
            if value is MISS:
                value = yield from self._miss(line, False, addr, None, None)
            else:
                yield self.hit_latency
            if predicate(value):
                return value
            if self.tags.lookup(line) is None:
                # invalidated between the load and now -> re-read immediately
                continue
            watch = self._watches.get(line)
            if watch is None:
                watch = self._watches[line] = self.sim.signal(f"watch{line:#x}")
            started = self.sim.now
            yield watch
            waited = self.sim.now - started
            # replay the cache hits a real spin loop would have performed
            self._c_accesses.value += waited // max(self.hit_latency, 1)
            self._c_spin_cycles.value += waited

    # ------------------------------------------------------------------ #
    # core access path
    # ------------------------------------------------------------------ #
    def try_hit(self, line: int, want_m: bool, addr: int,
                value: Optional[int], fn: Optional[Callable[[int], int]]):
        """Plain-function hit path: apply the op and return its result.

        Returns :data:`MISS` when the line lacks sufficient permission and
        a directory transaction (:meth:`_miss`) is needed.  Callers on the
        hit path still owe the L1 hit latency (``yield hit_latency``) —
        keeping this a non-coroutine saves a generator frame on the single
        hottest call of the whole simulator.

        The memory operation is encoded positionally instead of as an
        ``apply`` closure — allocating a lambda per access dominated the
        hit path: fn -> rmw, else want_m -> store, else load.
        """
        tags = self.tags
        state = tags.lookup(line)
        if state is None or (want_m and state != M and state != E):
            return MISS
        if want_m and state == E:
            tags.set_state(line, M)  # silent E->M upgrade
        tags.touch(line)
        if fn is not None:
            result = self.backing.apply(addr, fn)
        elif want_m:
            result = self.backing.write(addr, value)
        else:
            result = self.backing.read(addr)
        self._c_accesses.value += 1
        return result

    def _access(self, line: int, want_m: bool, addr: int,
                value: Optional[int], fn: Optional[Callable[[int], int]]):
        result = self.try_hit(line, want_m, addr, value, fn)
        if result is not MISS:
            yield self.hit_latency
            return result
        return (yield from self._miss(line, want_m, addr, value, fn))

    def _miss(self, line: int, want_m: bool, addr: int,
              value: Optional[int], fn: Optional[Callable[[int], int]]):
        # miss (or S->M upgrade): one transaction through the directory
        state = self.tags.lookup(line)
        self._c_misses.value += 1
        if self._pending is not None:
            raise RuntimeError(
                f"L1 {self.core_id}: second outstanding miss on "
                f"line {line:#x} (cores are in-order)"
            )
        self._pending = line
        home = (line // self._line_bytes) % self._n_tiles
        if not want_m:
            kind = P.GETS
        elif state is not None:
            kind = P.UPGRADE  # we still hold S; a dataless grant suffices
        else:
            kind = P.GETM
        self._send_proto(self._noc, self.core_id, home, kind, line)
        yield self._fill_sig  # fires once handle() has installed the line
        # the line was installed synchronously in handle() at delivery time,
        # so same-cycle recalls/invalidations observe a consistent tag state
        if fn is not None:
            result = self.backing.apply(addr, fn)
        elif want_m:
            result = self.backing.write(addr, value)
        else:
            result = self.backing.read(addr)
        self._c_accesses.value += 1
        yield self.hit_latency
        return result

    def _evict(self, line: int, state: object) -> None:
        home = home_of(line, self.config.line_bytes, self.config.n_cores)
        if state == M:
            self.counters.add("l1.writebacks")
            self._send_proto(self._noc, self.core_id, home, P.WB_DATA, line)
        elif state == E:
            self._send_proto(self._noc, self.core_id, home, P.EVICT_CLEAN, line)
        # S evictions are silent
        self._wake_watchers(line)

    # ------------------------------------------------------------------ #
    # incoming protocol messages (mesh callback)
    # ------------------------------------------------------------------ #
    def handle(self, msg: Message) -> None:
        """Process a message routed to this L1 by the tile dispatcher.

        Kept as the catch-all entry point for tests and direct callers;
        the tile route table delivers straight to the per-kind handlers
        below, so no kind chain runs on the hot delivery path.
        """
        kind = msg.kind
        if kind in (P.DATA, P.DATA_E, P.DATA_M, P.GRANT_M, P.DATA_C2C):
            self._on_fill(msg)
        elif kind == P.INV:
            self._on_inv(msg)
        elif kind in (P.FWD_GETS, P.FWD_GETM):
            self._handle_forward(msg)
        else:  # pragma: no cover - dispatcher guarantees the kind set
            raise RuntimeError(f"L1 {self.core_id}: unexpected {msg.kind}")

    def route_table(self) -> Dict[str, Callable[[Message], None]]:
        """Kind -> handler map for the tile dispatcher (one probe per msg)."""
        fill, forward = self._on_fill, self._handle_forward
        return {P.DATA: fill, P.DATA_E: fill, P.DATA_M: fill,
                P.GRANT_M: fill, P.DATA_C2C: fill, P.INV: self._on_inv,
                P.FWD_GETS: forward, P.FWD_GETM: forward}

    def _on_fill(self, msg: Message) -> None:
        """Data grant / upgrade grant / cache-to-cache fill delivery.

        The line-install logic is folded in (rather than a helper call):
        this handler runs once per L1 miss.
        """
        line = msg.payload["line"]
        if self._pending != line:
            raise RuntimeError(
                f"L1 {self.core_id}: fill for {line:#x} but "
                f"pending {self._pending!r}"
            )
        self._pending = None
        kind = msg.kind
        tags = self.tags
        if kind == P.GRANT_M:
            # upgrade: the line must still be resident in S
            tags.set_state(line, M)
            tags.touch(line)
            self._fill_sig.fire(msg)
            return
        if kind == P.DATA_C2C:
            new_state = M if msg.payload["extra"]["grant"] == "M" else S
        else:
            new_state = _FILL_STATE[kind]
        if tags.lookup(line) is not None:
            # S->M where the directory chose to send full data
            tags.set_state(line, new_state)
            tags.touch(line)
        else:
            victim = tags.insert(line, new_state)
            if victim is not None:
                self._evict(*victim)
        if kind == P.DATA_C2C:
            # tell the home the transfer landed so it can unblock the line
            home = (line // self._line_bytes) % self._n_tiles
            self._send_proto(self._noc, self.core_id, home, P.UNBLOCK, line)
        self._fill_sig.fire(msg)

    def _on_inv(self, msg: Message) -> None:
        """Directory invalidation: drop the line and ack the home."""
        line = msg.payload["line"]
        self.tags.invalidate(line)
        self._wake_watchers(line)
        home = (line // self._line_bytes) % self._n_tiles
        self._send_proto(self._noc, self.core_id, home, P.INV_ACK, line)

    def _handle_forward(self, msg: Message) -> None:
        """Serve a forwarded request with a direct cache-to-cache transfer."""
        line = msg.payload["line"]
        requester = msg.payload["extra"]["requester"]
        state = self.tags.lookup(line)
        home = (line // self._line_bytes) % self._n_tiles
        noc = self._noc
        if state is None:
            # already evicted; the eviction notice is ahead of this ack and
            # the home will serve the requester from its own copy
            self._send_proto(noc, self.core_id, home, P.RECALL_ACK,
                             line, {"present": False})
            return
        dirty = state == M
        if msg.kind == P.FWD_GETS:
            self.tags.set_state(line, S)
            grant = "S"
        else:
            self.tags.invalidate(line)
            self._wake_watchers(line)
            grant = "M"
        self.counters.add("l1.c2c_transfers")
        self._send_proto(noc, self.core_id, requester, P.DATA_C2C,
                         line, {"grant": grant})
        # notify the home (with data if we were dirty, so its L2 copy is
        # marked stale/dirty for writeback accounting)
        kind = P.RECALL_DATA if dirty and grant == "S" else P.RECALL_ACK
        self._send_proto(noc, self.core_id, home, kind,
                         line, {"present": True})

    def _wake_watchers(self, line: int) -> None:
        watch = self._watches.get(line)
        if watch is not None:
            watch.fire()

    # ------------------------------------------------------------------ #
    # introspection (tests/diagnostics)
    # ------------------------------------------------------------------ #
    def state_of(self, addr: int) -> Optional[str]:
        """MESI state of the line containing ``addr`` (None if absent)."""
        state = self.tags.lookup(line_of(addr, self.config.line_bytes))
        return None if state is None else str(state)
