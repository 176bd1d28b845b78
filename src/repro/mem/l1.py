"""Private L1 data-cache controller (MESI).

The L1 exposes coroutine methods (``load`` / ``store`` / ``rmw`` /
``spin_until``) that the core's thread program drives with ``yield from``,
and a :meth:`receive` callback the mesh invokes for incoming protocol
messages (data grants, invalidations, forwards).  Misses, messages and
evictions take the L1 rows of :data:`repro.mem.protocol.ROWS`; hits read
the table's hit rows through two state maps.  On a compiled simulator the
kernel's ``L1Core`` runs the rows instead (same rows, same events): the
mesh delivers to it, a miss starts in it, and it keeps the outstanding
miss, while hits, the wait for the fill and ``spin_until`` stay here.

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

from typing import Callable, Dict, List, Optional

from repro.mem import protocol as P
from repro.mem.address import line_of
from repro.mem.backing import BackingStore
from repro.mem import cache
from repro.noc.messages import Message
from repro.noc.topology import Mesh
from repro.sim.config import CMPConfig
from repro.sim.kernel import Signal, Simulator, compiled_impl
from repro.sim.stats import CounterSet

__all__ = ["L1Cache"]

#: sentinel returned by :meth:`L1Cache.try_hit` when the access needs a
#: directory transaction (distinct from every real word value, None included)
MISS = object()


class L1Cache:
    """One core's private L1 data cache."""

    # state -> next state of the table's hit rows, per access kind
    _load_hit = P.hits(P.LOAD)
    _store_hit = P.hits(P.STORE)

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
        # the line of the outstanding transaction, if any, and its
        # transient state; its reply is always delivered through the
        # (reused) _fill_sig because in-order cores have one op in flight
        self._pending: Optional[int] = None
        self._pending_state = ""
        self._fill_sig = sim.signal(f"l1-{core_id}-fill")
        # line -> watch signal for spin_until sleepers; signals persist
        # across fires so the spin-wakeup path allocates nothing
        self._watches: Dict[int, Signal] = {}
        # hot counters, resolved once (these are bumped per memory access)
        self._c_accesses = counters.bind("l1.accesses")
        self._c_misses = counters.bind("l1.misses")
        self._c_rmw = counters.bind("l1.rmw")
        self._c_spin_cycles = counters.bind("l1.spin_cycles")
        self._core = None
        impl = compiled_impl()
        if impl is not None and type(sim) is impl.Simulator:
            self._core = impl.L1Core(
                self, mesh._core, self.tags, self._fill_sig, self._watches,
                counters, core_id, config.n_cores, config.line_bytes,
                config.noc)
            self.receive = self._core
            self._start = self._core.start

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
        nxt = (self._store_hit if want_m else self._load_hit).get(state)
        if nxt is None:
            return MISS
        if nxt != state:
            tags.set_state(line, nxt)  # silent E->M upgrade
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
        self._c_misses.value += 1
        self._start(line, want_m)
        yield self._fill_sig  # fires once the reply has installed the line
        # the line was installed synchronously at delivery time, so
        # same-cycle recalls/invalidations observe a consistent tag state
        if fn is not None:
            result = self.backing.apply(addr, fn)
        elif want_m:
            result = self.backing.write(addr, value)
        else:
            result = self.backing.read(addr)
        self._c_accesses.value += 1
        yield self.hit_latency
        return result

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _start(self, line: int, want_m: bool) -> None:
        """Take the miss's row: the Load or Store of the line's state."""
        if self._pending is not None:
            raise RuntimeError(
                f"L1 {self.core_id}: second outstanding miss on "
                f"line {line:#x} (cores are in-order)"
            )
        state = self.tags.lookup(line) or "I"
        event = P.STORE if want_m else P.LOAD
        row = self._rows.get((state, event)) or self._no_row(line, state, event)
        row(self, line, None)

    def receive(self, msg: Message) -> None:
        """An L1-bound message, delivered by the mesh."""
        line = msg.payload["line"]
        if line == self._pending:
            state = self._pending_state
        else:
            state = self.tags.lookup(line) or "I"
        row = self._rows.get((state, msg.kind)) or self._no_row(
            line, state, msg.kind)
        row(self, line, msg)

    def _take(self, line: int, state: str, event: str,
              msg: Optional[Message]) -> None:
        """Take the transition of ``event`` with ``line`` in ``state``.

        ``receive`` and ``_start`` repeat these two lines instead of
        calling here: they run once per message and miss, and the saved
        call is measurable.
        """
        row = self._rows.get((state, event)) or self._no_row(
            line, state, event)
        row(self, line, msg)

    def _no_row(self, line: int, state: str, event: str):
        raise RuntimeError(f"L1 {self.core_id}: no transition for "
                           f"{line:#x} in {state} on {event}")

    # ------------------------------------------------------------------ #
    # actions (named by the L1 rows of repro.mem.protocol.ROWS)
    # ------------------------------------------------------------------ #
    ROW_ARGS = "self, line, msg"

    @staticmethod
    def enter(state: str, nxt: str) -> List[str]:
        """Record ``nxt`` where the tags do not: the outstanding miss."""
        if nxt not in P.L1_TRANSIENT:
            return ["self._pending = None"] if state in P.L1_TRANSIENT else []
        code = [] if state in P.L1_TRANSIENT else ["self._pending = line"]
        if nxt != state:
            code.append(f"self._pending_state = {nxt!r}")
        return code

    _TO_HOME = ("self._send_proto(self._noc, self.core_id, "
                "line // self._line_bytes % self._n_tiles, ")
    ACTIONS = {
        "send": _TO_HOME + "{arg}, line, None)",
        "writeback": "self.counters.add('l1.writebacks')\n"
                     + _TO_HOME + "P.WB_DATA, line, None)",
        "recall": _TO_HOME + "{arg}, line, {{'present': True}})",
        "absent": _TO_HOME + "P.RECALL_ACK, line, {{'present': False}})",
        "wake": "watch = self._watches.get(line)\n"
                "if watch is not None:\n"
                "    watch.fire()",
        "invalidate": "self.tags.invalidate(line)",
        "downgrade": "self.tags.set_state(line, 'S')",
        "c2c": "self.counters.add('l1.c2c_transfers')\n"
               "self._send_proto(self._noc, self.core_id, "
               "msg.payload['extra']['requester'], P.DATA_C2C, line, "
               "{{'grant': {arg}}})",
        "fill": "victim = self.tags.insert(line, {arg})\n"
                "if victim is not None:\n"
                "    self._take(victim[0], victim[1], P.REPLACEMENT, None)",
        "grant": "self.tags.set_state(line, {arg})\n"
                 "self.tags.touch(line)",
        "done": "self._fill_sig.fire(msg)",
    }
    del _TO_HOME

    # ------------------------------------------------------------------ #
    # introspection (tests/diagnostics)
    # ------------------------------------------------------------------ #
    def state_of(self, addr: int) -> Optional[str]:
        """MESI state of the line containing ``addr`` (None if absent)."""
        state = self.tags.lookup(line_of(addr, self.config.line_bytes))
        return None if state is None else str(state)


#: (state, event) -> row function of the L1 rows
L1Cache._rows = P.bind(L1Cache, P.L1)
