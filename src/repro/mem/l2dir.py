"""Home L2 slice + MESI directory controller.

Each tile owns one L2 slice; lines are interleaved across slices
round-robin (:func:`repro.mem.address.home_of`).  The directory is
*blocking per line*: while a GetS/GetM transaction for a line is in flight,
later GetS/GetM for the same line queue at the home and are served strictly
in arrival order.  This is the serialization point that makes the whole
memory system linearizable and is exactly the structure highly-contended
lock lines stress.

Each line's entry is a state machine driven by the directory rows of
:data:`repro.mem.protocol.ROWS`: message arrivals and ``sim.schedule``
timers advance it, so a transaction costs no process and no signal.  Every
wait the transaction makes is one scheduled event: the first step after a
request is accepted and each resume after an awaited message are
zero-delay events, and each latency is a timer of that length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

from repro.mem import protocol as P
from repro.mem import cache
from repro.noc.messages import Message
from repro.noc.topology import Mesh
from repro.sim.config import CMPConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import CounterSet

__all__ = ["L2DirectorySlice", "DIR_LATENCY"]

#: directory-state-only operation latency (the "+4" of the paper's "12+4")
DIR_LATENCY = 4

CLEAN, DIRTY = "clean", "dirty"
# sent by the line's owner only: from any other core they have no row,
# except an absent RecallAck, which is always stale (race rule 6)
_OWNER_KINDS = frozenset({P.WB_DATA, P.EVICT_CLEAN, P.RECALL_DATA,
                          P.RECALL_ACK})


@dataclass(slots=True)
class DirEntry:
    """Directory state for one line homed at this slice."""

    owner: Optional[int] = None          # core holding E or M
    sharers: Set[int] = field(default_factory=set)
    state: str = "I"                     # its state in the table
    queue: Deque[Message] = field(default_factory=deque)
    requester: int = -1                  # the transaction in flight
    kind: str = ""                       # ... and what it asked for
    pending_acks: int = 0
    unblocked: bool = False              # the requester's Unblock came early


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

    def evictable(self, line: int) -> bool:
        """May the L2 drop ``line``?  Not while an L1 holds it or a
        transaction (or a queued request) uses it: only in state I."""
        entry = self._dir.get(line)
        return entry is None or entry.state == "I"

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def receive(self, msg: Message) -> None:
        """A home-bound message, delivered by the mesh."""
        line = msg.payload["line"]
        entry = self._dir.get(line)
        if entry is None:
            entry = self._dir[line] = DirEntry()
        event = msg.kind
        if event in _OWNER_KINDS:
            if event == P.RECALL_ACK and not msg.payload["extra"]["present"]:
                event = P.STALE_ACK
            elif msg.src != entry.owner:
                event += " from a non-owner"
        elif event == P.INV_ACK and entry.pending_acks == 1:
            event = P.LAST_INV_ACK
        row = self._rows.get((entry.state, event)) or self._no_row(
            line, entry, event)
        row(self, line, entry, msg)

    def _fire(self, line: int, entry: DirEntry, event: str,
              msg: Optional[Message] = None) -> None:
        """Take the transition of ``event`` in the line's current state.

        ``receive``, ``_step`` and ``_resumed`` repeat these two lines
        instead of calling here: they run once per message, request and
        resume, and the saved call is measurable.
        """
        row = self._rows.get((entry.state, event)) or self._no_row(
            line, entry, event)
        row(self, line, entry, msg)

    def _no_row(self, line: int, entry: DirEntry, event: str):
        raise RuntimeError(f"home {self.tile_id}: no transition for "
                           f"{line:#x} in {entry.state} on {event}")

    def _drain(self, line: int, entry: DirEntry) -> None:
        """The line went idle: accept its next queued request."""
        request = entry.queue.popleft()
        self._fire(line, entry, request.kind, request)

    def _step(self, line: int, entry: DirEntry) -> None:
        """First step of an accepted request: what does it find?"""
        self._c_accesses.value += 1
        requester, kind = entry.requester, entry.kind
        if entry.owner == requester:
            raise RuntimeError(f"home {self.tile_id}: {kind} from current "
                               f"owner {requester}")
        sharers = entry.sharers
        if kind == P.UPGRADE and requester not in sharers:
            kind = entry.kind = P.GETM     # its S copy was invalidated
        if entry.owner is not None:
            kind += "@EM"
        elif len(sharers) > (requester in sharers):
            kind += "@S"
        else:
            kind += "@I"
        row = self._rows.get((entry.state, kind)) or self._no_row(
            line, entry, kind)
        row(self, line, entry, None)

    def _resumed(self, line: int, entry: DirEntry, msg: Message) -> None:
        """The transaction resumes after the message it awaited."""
        event = "resume." + entry.kind
        if entry.state == "FwdDone":
            self._c_forwards.value += 1
            if msg.kind in (P.WB_DATA, P.EVICT_CLEAN):
                event = "resume.Evicted"
            elif entry.unblocked:
                event += "+Unblock"
        row = self._rows.get((entry.state, event)) or self._no_row(
            line, entry, event)
        row(self, line, entry, msg)

    # ------------------------------------------------------------------ #
    # actions (named by the directory rows of repro.mem.protocol.ROWS)
    # ------------------------------------------------------------------ #
    ROW_ARGS = "self, line, entry, msg"

    @staticmethod
    def enter(state: str, nxt: str) -> List[str]:
        """Record ``nxt``; a line that goes idle takes its next request."""
        code = [] if nxt == state else [f"entry.state = {nxt!r}"]
        if nxt in P.DIR_IDLE and state not in P.DIR_IDLE:
            code += ["if entry.queue:", "    self._drain(line, entry)"]
        return code

    ACTIONS = {
        "accept": "entry.requester, entry.kind = msg.src, msg.kind\n"
                  "self.sim.schedule(0, self._step, line, entry)",
        "queue": "entry.queue.append(msg)",
        "forward": "self._send_proto(self._noc, self.tile_id, entry.owner, "
                   "{arg}, line, {{'requester': entry.requester}})",
        "invalidate": "self._invalidate(line, entry)",
        "ack": "entry.pending_acks -= 1",
        "clear": "entry.sharers.clear()",
        "resume": "self.sim.schedule(0, self._resumed, line, entry, msg)",
        "note_unblock": "entry.unblocked = True",
        "use_unblock": "entry.unblocked = False",
        "writeback": "if self.tags.lookup(line) is not None:\n"
                     "    self.tags.set_state(line, DIRTY)",
        "disown": "entry.owner = None",
        "share_c2c": "entry.sharers.add(entry.owner)\n"
                     "entry.owner = None\n"
                     "entry.sharers.add(entry.requester)",
        "share": "entry.sharers.add(entry.requester)",
        "own": "entry.owner = entry.requester",
        "reply": "self._send_proto(self._noc, self.tile_id, "
                 "entry.requester, {arg}, line, None)",
        "delay": "self.sim.schedule(DIR_LATENCY, self._fire, line, entry, "
                 "P.GRANT_M)",
        "read": "self._read(line, entry)",
        "install": "if self.tags.lookup(line) is None:\n"
                   "    self._install(line)",
    }

    def _invalidate(self, line: int, entry: DirEntry) -> None:
        """Invalidate every sharer but the requester."""
        others = sorted(entry.sharers - {entry.requester})
        self.counters.add("l2.invalidations", len(others))
        entry.pending_acks = len(others)
        for sharer in others:
            self._send_proto(self._noc, self.tile_id, sharer, P.INV, line,
                             None)

    def _read(self, line: int, entry: DirEntry) -> None:
        """Start the L2 data access, fetching from memory on a miss; its
        timer's event is the reply it releases."""
        if self.tags.lookup(line) is not None:
            self.tags.touch(line)
            self._c_data_accesses.value += 1
            delay = self.config.l2.latency
        else:
            self.counters.add("l2.misses")
            self.counters.add("mem.reads")
            delay = self.config.l2.latency + self.config.memory_latency
        if entry.kind != P.GETS:
            grant = P.DATA_M
        elif (entry.owner is None and not entry.sharers
                and self.config.coherence == "mesi"):
            grant = P.DATA_E              # exclusive clean
        else:
            grant = P.DATA
        self.sim.schedule(delay, self._fire, line, entry, grant)

    def _install(self, line: int) -> None:
        """Install a line fetched from memory (a busy line stays put, so
        absent at the end of its read means it missed)."""
        victim = self.tags.insert(line, CLEAN, may_evict=self.evictable)
        if victim is not None:
            victim_line, victim_state = victim
            self.counters.add("l2.evictions")
            if victim_state == DIRTY:
                self.counters.add("mem.writes")
            self._dir.pop(victim_line, None)


#: (state, event) -> row function of the directory rows
L2DirectorySlice._rows = P.bind(L2DirectorySlice, P.DIR)
