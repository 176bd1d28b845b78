"""Home L2 slice + MESI directory controller.

Each tile owns one L2 slice; lines are interleaved across slices
round-robin (:func:`repro.mem.address.home_of`).  The directory is
*blocking per line*: while a GetS/GetM transaction for a line is in flight,
later GetS/GetM for the same line queue at the home and are served strictly
in arrival order.  This is the serialization point that makes the whole
memory system linearizable and is exactly the structure highly-contended
lock lines stress.

Owner responses (``RecallData``/``RecallAck``) can cross in flight with the
owner's own eviction notices (``WBData``/``EvictClean``); the home applies a
*first-owner-message-wins* rule — whichever arrives first completes the
recall, and a subsequent stale ``RecallAck(present=False)`` is dropped
(FIFO routing guarantees the eviction notice precedes the stale ack).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set

from repro.mem import protocol as P
from repro.mem import cache
from repro.noc.messages import Message
from repro.noc.topology import Mesh
from repro.sim.config import CMPConfig
from repro.sim.kernel import Signal, Simulator
from repro.sim.stats import CounterSet

__all__ = ["L2DirectorySlice", "DIR_LATENCY"]

#: directory-state-only operation latency (the "+4" of the paper's "12+4")
DIR_LATENCY = 4

CLEAN, DIRTY = "clean", "dirty"


@dataclass(slots=True)
class DirEntry:
    """Directory state for one line homed at this slice."""

    owner: Optional[int] = None          # core holding E or M
    sharers: Set[int] = field(default_factory=set)
    busy: bool = False
    queue: Deque[Message] = field(default_factory=deque)
    owner_wait: Optional[Signal] = None  # forward response in flight
    pending_acks: int = 0
    ack_wait: Optional[Signal] = None
    unblock_wait: Optional[Signal] = None  # requester unblock in flight
    unblock_pending: bool = False          # unblock arrived early

    @property
    def held_by_l1(self) -> bool:
        return self.owner is not None or bool(self.sharers)


class L2DirectorySlice:
    """The home node logic for one tile."""

    def __init__(
        self,
        sim: Simulator,
        config: CMPConfig,
        tile_id: int,
        mesh: Mesh,
        counters: CounterSet,
    ) -> None:
        self.sim = sim
        self.config = config
        self.tile_id = tile_id
        self.mesh = mesh
        self.counters = counters
        self.tags = cache.tag_array(sim, config.l2)
        self._dir: Dict[int, DirEntry] = {}
        self._noc = config.noc
        # fused make_msg+send entry point, resolved once (bound C method
        # when the compiled mesh core is active)
        self._send_proto = mesh.send_proto
        # hot counters, resolved once (bumped on every home transaction)
        self._c_accesses = counters.bind("l2.accesses")
        self._c_data_accesses = counters.bind("l2.data_accesses")
        self._c_forwards = counters.bind("l2.forwards")

    def _entry(self, line: int) -> DirEntry:
        entry = self._dir.get(line)
        if entry is None:
            entry = self._dir[line] = DirEntry()
        return entry

    def _send(self, dst: int, kind: str, line: int, extra: object = None) -> None:
        self._send_proto(self._noc, self.tile_id, dst, kind, line, extra)

    # ------------------------------------------------------------------ #
    # incoming messages (tile dispatcher callback)
    # ------------------------------------------------------------------ #
    def handle(self, msg: Message) -> None:
        """Process a home-bound protocol message.

        Catch-all entry point for tests and direct callers; the tile route
        table delivers straight to the per-kind handlers below.
        """
        kind = msg.kind
        if kind in (P.GETS, P.GETM, P.UPGRADE):
            self._on_request(msg)
        elif kind == P.INV_ACK:
            self._on_inv_ack(msg)
        elif kind == P.UNBLOCK:
            self._on_unblock(msg)
        elif kind in (P.WB_DATA, P.EVICT_CLEAN):
            self._on_owner_notice(msg)
        elif kind in (P.RECALL_DATA, P.RECALL_ACK):
            self._on_recall(msg)
        else:  # pragma: no cover - dispatcher guarantees the kind set
            raise RuntimeError(f"home {self.tile_id}: unexpected {kind}")

    def route_table(self) -> Dict[str, object]:
        """Kind -> handler map for the tile dispatcher (one probe per msg)."""
        request, notice, recall = (self._on_request, self._on_owner_notice,
                                   self._on_recall)
        return {P.GETS: request, P.GETM: request, P.UPGRADE: request,
                P.INV_ACK: self._on_inv_ack, P.UNBLOCK: self._on_unblock,
                P.WB_DATA: notice, P.EVICT_CLEAN: notice,
                P.RECALL_DATA: recall, P.RECALL_ACK: recall}

    def _on_request(self, msg: Message) -> None:
        """GetS / GetM / Upgrade: start or queue a transaction."""
        line = msg.payload["line"]
        # the ``self._entry`` probe is inlined in every per-kind handler:
        # these run once per delivered home-bound message
        entry = self._dir.get(line)
        if entry is None:
            entry = self._dir[line] = DirEntry()
        if entry.busy:
            entry.queue.append(msg)
        else:
            self._start(line, entry, msg)

    def _on_inv_ack(self, msg: Message) -> None:
        entry = self._dir.get(msg.payload["line"])
        if entry is None:
            entry = self._dir[msg.payload["line"]] = DirEntry()
        entry.pending_acks -= 1
        if entry.pending_acks == 0 and entry.ack_wait is not None:
            sig, entry.ack_wait = entry.ack_wait, None
            sig.fire()

    def _on_unblock(self, msg: Message) -> None:
        entry = self._dir.get(msg.payload["line"])
        if entry is None:
            entry = self._dir[msg.payload["line"]] = DirEntry()
        if entry.unblock_wait is not None:
            sig, entry.unblock_wait = entry.unblock_wait, None
            sig.fire()
        else:
            entry.unblock_pending = True

    def _on_recall(self, msg: Message) -> None:
        line = msg.payload["line"]
        entry = self._dir.get(line)
        if entry is None:
            entry = self._dir[line] = DirEntry()
        if entry.owner_wait is not None:
            sig, entry.owner_wait = entry.owner_wait, None
            sig.fire(msg)
        # else: stale ack from an owner whose eviction notice already
        # completed the recall -- drop (must be an absent-ack)
        elif not (msg.kind == P.RECALL_ACK
                  and not msg.payload["extra"]["present"]):
            raise RuntimeError(
                f"home {self.tile_id}: unexpected {msg.kind} for {line:#x}"
            )

    def _on_owner_notice(self, msg: Message) -> None:
        """WBData / EvictClean from the current owner."""
        line = msg.payload["line"]
        entry = self._dir.get(line)
        if entry is None:
            entry = self._dir[line] = DirEntry()
        if msg.kind == P.WB_DATA and self.tags.lookup(line) is not None:
            self.tags.set_state(line, DIRTY)
        if entry.owner == msg.src:
            entry.owner = None
        if entry.owner_wait is not None:
            sig, entry.owner_wait = entry.owner_wait, None
            sig.fire(msg)

    # ------------------------------------------------------------------ #
    # transaction engine
    # ------------------------------------------------------------------ #
    def _start(self, line: int, entry: DirEntry, msg: Message) -> None:
        entry.busy = True
        if msg.kind == P.GETS:
            gen = self._do_gets(line, entry, msg.src)
        else:
            gen = self._do_getm(line, entry, msg.src,
                                is_upgrade=msg.kind == P.UPGRADE)
        self.sim.spawn(gen, name=f"home{self.tile_id}-{msg.kind}-{line:#x}")

    def _finish(self, line: int, entry: DirEntry) -> None:
        entry.busy = False
        if entry.queue:
            self._start(line, entry, entry.queue.popleft())

    def _do_gets(self, line: int, entry: DirEntry, requester: int):
        self._c_accesses.value += 1
        if entry.owner == requester:
            raise RuntimeError(
                f"home {self.tile_id}: GetS from current owner {requester}"
            )
        if entry.owner is not None:
            served = yield from self._forward(line, entry, requester,
                                              P.FWD_GETS)
            if served:
                # the old owner transferred the data cache-to-cache and
                # stayed a sharer; wait for the requester's unblock
                entry.sharers.add(requester)
                yield from self._await_unblock(line, entry)
                self._finish(line, entry)
                return
        yield from self._l2_data(line)
        if (entry.owner is None and not entry.sharers
                and self.config.coherence == "mesi"):
            entry.owner = requester          # grant E (exclusive clean)
            self._send(requester, P.DATA_E, line)
        else:
            entry.sharers.add(requester)
            self._send(requester, P.DATA, line)
        self._finish(line, entry)

    def _do_getm(self, line: int, entry: DirEntry, requester: int,
                 is_upgrade: bool = False):
        self._c_accesses.value += 1
        if entry.owner == requester:
            raise RuntimeError(
                f"home {self.tile_id}: GetM from current owner {requester}"
            )
        if entry.owner is not None:
            served = yield from self._forward(line, entry, requester,
                                              P.FWD_GETM)
            if served:
                entry.owner = requester
                yield from self._await_unblock(line, entry)
                self._finish(line, entry)
                return
        # a plain GetM from a listed sharer means that sharer evicted its S
        # copy silently -- the dataless GrantM is only safe for an Upgrade
        # whose copy is still valid (still listed => never invalidated since)
        sharers = entry.sharers
        was_sharer = is_upgrade and requester in sharers
        to_invalidate = (sharers - {requester}) if sharers else ()
        if to_invalidate:
            self.counters.add("l2.invalidations", len(to_invalidate))
            entry.pending_acks = len(to_invalidate)
            entry.ack_wait = self.sim.signal(f"acks-{line:#x}")
            for sharer in sorted(to_invalidate):
                self._send(sharer, P.INV, line)
            yield entry.ack_wait
        entry.sharers.clear()
        if was_sharer:
            yield DIR_LATENCY                 # dir-state-only upgrade
            self._send(requester, P.GRANT_M, line)
        else:
            yield from self._l2_data(line)
            self._send(requester, P.DATA_M, line)
        entry.owner = requester
        self._finish(line, entry)

    def _forward(self, line: int, entry: DirEntry, requester: int,
                 fwd_kind: str):
        """Forward the request to the E/M owner for a cache-to-cache serve.

        Returns True if the owner transferred the data directly to the
        requester (dir state for the old owner is updated here); False if
        the owner had already evicted, in which case the caller serves the
        requester from the home's own copy.
        """
        owner = entry.owner
        entry.owner_wait = self.sim.signal(f"fwd-{line:#x}")
        self._send(owner, fwd_kind, line, {"requester": requester})
        resp: Message = yield entry.owner_wait
        self._c_forwards.value += 1
        if resp.kind in (P.WB_DATA, P.RECALL_DATA):
            if self.tags.lookup(line) is not None:
                self.tags.set_state(line, DIRTY)
        still_present = (
            resp.kind == P.RECALL_DATA
            or (resp.kind == P.RECALL_ACK and resp.payload["extra"]["present"])
        )
        if fwd_kind == P.FWD_GETS and still_present:
            entry.sharers.add(owner)
        entry.owner = None
        return still_present

    def _await_unblock(self, line: int, entry: DirEntry):
        """Wait for the requester's UNBLOCK after a cache-to-cache serve."""
        if entry.unblock_pending:
            entry.unblock_pending = False
            return
        entry.unblock_wait = self.sim.signal(f"unblock-{line:#x}")
        yield entry.unblock_wait

    def _l2_data(self, line: int):
        """Access the L2 data array, fetching from memory on a miss."""
        if self.tags.lookup(line) is not None:
            self.tags.touch(line)
            self._c_data_accesses.value += 1
            yield self.config.l2.latency
            return
        # L2 miss -> memory
        self.counters.add("l2.misses")
        self.counters.add("mem.reads")
        yield self.config.l2.latency + self.config.memory_latency
        victim = self.tags.insert(
            line, CLEAN,
            may_evict=lambda cand: not self._entry(cand).held_by_l1,
        )
        if victim is not None:
            victim_line, victim_state = victim
            self.counters.add("l2.evictions")
            if victim_state == DIRTY:
                self.counters.add("mem.writes")
            self._dir.pop(victim_line, None)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def dir_state(self, line: int) -> DirEntry:
        """Directory entry for a line (creates an empty one if missing)."""
        return self._entry(line)
