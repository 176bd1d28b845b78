"""Token-manager FSM — the lock managers of Figure 6.

One class, :class:`TokenManager`, implements both manager roles:

- a **secondary lock manager** (Sx) monitors request flags from the local
  controllers of its row and holds a parent link to the primary;
- the **primary lock manager** (R) monitors flags from the secondaries and
  has no parent — it owns the token whenever no manager does.

The per-child request flags are the paper's ``fx`` / ``fSx`` flags; the
round-robin pointer implements the ``RoundRobin()`` transition of the
automata: a token *tenure* serves flagged children in increasing index
order from the pointer, and when the scan reaches the end the token is
returned to the parent (``REL``), re-requesting immediately (``REQ``) if
new flags arrived during the tenure.  This reproduces the cycle-by-cycle
choreography of Figure 4 exactly (see ``tests/test_glocks_protocol.py``).

Children are either other managers or *leaf callbacks* (the per-core local
controllers, which simply forward a granted ``TOKEN`` to the waiting core).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.core.gline import GLine
from repro.sim.kernel import Simulator
from repro.sim.stats import CounterSet

__all__ = ["TokenManager", "LeafPort"]


class LeafPort:
    """A local controller endpoint: delivers TOKEN grants to its core."""

    __slots__ = ("on_token",)

    def __init__(self, on_token: Callable[[], None]) -> None:
        self.on_token = on_token

    def receive_token(self) -> None:
        self.on_token()


Child = Union["TokenManager", LeafPort]


class TokenManager:
    """Primary or secondary lock manager for one GLock."""

    #: supported arbitration policies (see :meth:`_next_child`)
    POLICIES = ("round_robin", "fifo", "static")

    def __init__(self, sim: Simulator, counters: CounterSet, name: str,
                 gline_latency: int = 1,
                 arbitration: str = "round_robin",
                 fault_port=None) -> None:
        self.check_arbitration(arbitration)
        self.sim = sim
        self.counters = counters
        self.name = name
        self.gline_latency = gline_latency
        self.arbitration = arbitration
        #: fault-injection port shared by this network (None when healthy)
        self.fault_port = fault_port
        #: permanently failed (controller-death fault): ignores all signals
        self.dead = False
        self.children: List[Child] = []
        self._child_lines: List[GLine] = []  # manager -> child (TOKEN)
        self._up_lines: List[GLine] = []     # child -> manager (REQ/REL)
        self.parent: Optional["TokenManager"] = None
        self._index_at_parent: Optional[int] = None
        self.flags: List[bool] = []          # fx / fSx request flags
        self._fifo_order: List[int] = []     # arrival order (fifo policy)
        self.has_token = False               # root starts with the token
        self.busy_child: Optional[int] = None
        self.rr_pos = 0
        self._requested_parent = False

    @classmethod
    def check_arbitration(cls, arbitration: str) -> None:
        """Raise ``ValueError`` unless ``arbitration`` is a known policy."""
        if arbitration not in cls.POLICIES:
            raise ValueError(
                f"unknown arbitration {arbitration!r}; choose from {cls.POLICIES}"
            )

    # ------------------------------------------------------------------ #
    # topology construction
    # ------------------------------------------------------------------ #
    def attach_child(self, child: Child) -> int:
        """Wire a child below this manager; returns its child index."""
        idx = len(self.children)
        self.children.append(child)
        self.flags.append(False)
        self._child_lines.append(
            GLine(self.sim, self.counters, self.gline_latency,
                  name=f"{self.name}->child{idx}", port=self.fault_port)
        )
        self._up_lines.append(
            GLine(self.sim, self.counters, self.gline_latency,
                  name=f"child{idx}->{self.name}", port=self.fault_port)
        )
        if isinstance(child, TokenManager):
            child.parent = self
            child._index_at_parent = idx
        return idx

    def make_root(self) -> None:
        """Declare this manager the primary: it initially owns the token."""
        if self.parent is not None:
            raise RuntimeError(f"{self.name}: root cannot have a parent")
        self.has_token = True

    # ------------------------------------------------------------------ #
    # signals from below (REQ / REL arrive over the child's up-line)
    # ------------------------------------------------------------------ #
    def signal_request(self, child_idx: int) -> None:
        """A child raises REQ (1 G-line cycle to reach us)."""
        self._up_lines[child_idx].transmit(self._on_request, child_idx)

    def signal_release(self, child_idx: int) -> None:
        """The token-holding child raises REL."""
        self._up_lines[child_idx].transmit(self._on_release, child_idx)

    def _on_request(self, child_idx: int) -> None:
        if self.dead:
            return
        if not self.flags[child_idx]:
            self.flags[child_idx] = True
            if self.arbitration == "fifo":
                self._fifo_order.append(child_idx)
        if self.has_token:
            self._decide()
        else:
            self._request_parent()

    def _on_release(self, child_idx: int) -> None:
        if self.dead:
            return
        if child_idx != self.busy_child:
            if self.fault_port is not None:
                # a fault-delayed REL can straddle a token regeneration and
                # arrive after this manager's state was reset: discard it
                self.counters.add("faults.stale_rel")
                return
            raise RuntimeError(
                f"{self.name}: REL from child {child_idx} but token is at "
                f"{self.busy_child}"
            )
        self.flags[child_idx] = False
        self.busy_child = None
        self._decide()

    # ------------------------------------------------------------------ #
    # signals from above
    # ------------------------------------------------------------------ #
    def _receive_token(self) -> None:
        if self.dead:
            return
        self.has_token = True
        self.busy_child = None
        self._requested_parent = False
        self._decide()

    def _request_parent(self) -> None:
        if self.parent is None or self._requested_parent:
            return
        self._requested_parent = True
        self.parent.signal_request(self._index_at_parent)

    # ------------------------------------------------------------------ #
    # arbitration (the Scheduling state of Figure 6)
    # ------------------------------------------------------------------ #
    def _decide(self) -> None:
        if self.dead or not self.has_token or self.busy_child is not None:
            return
        nxt = self._next_child()
        if nxt is not None:
            self._grant(nxt)
            return
        # tenure over: wrap the pointer
        self.rr_pos = 0
        if self.parent is None:
            # the primary keeps the token; serve a wrapped-around request now
            nxt = self._next_child()
            if nxt is not None:
                self._grant(nxt)
            return
        # secondary: return the token (REL), re-request if demand remains
        self.has_token = False
        self.parent.signal_release(self._index_at_parent)
        if any(self.flags):
            self._requested_parent = True
            self.parent.signal_request(self._index_at_parent)

    def _next_child(self) -> Optional[int]:
        """Arbitrate among flagged children.

        - ``round_robin`` (the paper's policy): increasing index from the
          tenure pointer; reaching the end closes the tenure — globally fair.
        - ``fifo``: strict request-arrival order; fair, slightly more state
          (a real implementation needs an arrival queue per manager).
        - ``static``: fixed priority (lowest index wins, tenure never
          rotates) — the ablation's strawman, which starves high indices
          under saturation (see ``experiments/ablate_arbitration.py``).
        """
        if self.arbitration == "fifo":
            while self._fifo_order:
                idx = self._fifo_order[0]
                if self.flags[idx]:
                    return idx
                self._fifo_order.pop(0)
            return None
        start = 0 if self.arbitration == "static" else self.rr_pos
        return self._next_flagged(start)

    def _next_flagged(self, start: int) -> Optional[int]:
        for i in range(start, len(self.flags)):
            if self.flags[i]:
                return i
        return None

    def _grant(self, child_idx: int) -> None:
        self.busy_child = child_idx
        self.rr_pos = child_idx + 1
        if self.arbitration == "fifo" and child_idx in self._fifo_order:
            self._fifo_order.remove(child_idx)
        child = self.children[child_idx]
        if isinstance(child, TokenManager):
            self._child_lines[child_idx].transmit(child._receive_token)
        else:
            # leaf: TOKEN consumes the request flag (lock_req is reset)
            self.flags[child_idx] = False
            self._child_lines[child_idx].transmit(child.receive_token)

    # ------------------------------------------------------------------ #
    # recovery support (token regeneration, repro.faults)
    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        """Forget all protocol state; the recovery controller re-seeds it.

        Does not clear :attr:`dead` — a dead controller stays dead; the
        network routes around it or the device trips to software.
        """
        for i in range(len(self.flags)):
            self.flags[i] = False
        self._fifo_order.clear()
        self.has_token = False
        self.busy_child = None
        self.rr_pos = 0
        self._requested_parent = False

    # ------------------------------------------------------------------ #
    # introspection (tests)
    # ------------------------------------------------------------------ #
    @property
    def pending_requests(self) -> int:
        """Number of currently raised child flags."""
        return sum(self.flags)
