"""G-line network construction for one GLock.

For a 2D-mesh CMP the paper deploys, per lock:

- one local controller per core (the leaf ports),
- one secondary lock manager per mesh row (``sqrt(C)`` for square meshes),
- one primary lock manager,

connected by ``C - 1`` G-lines (each row contributes ``cols - 1`` horizontal
lines — the manager's own core uses an internal flag — plus ``rows - 1``
vertical lines to the primary).  Every G-line must respect the drop limit
(six transmitters + one receiver, Section III-F), which bounds a single
2-level network at 7x7 cores.

``levels=3`` builds the paper's *future-work* hierarchical extension: rows
are grouped under intermediate managers so arbitrarily large meshes stay
within the drop limit at the cost of two extra cycles per token round-trip.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.controllers import LeafPort, TokenManager
from repro.sim.config import CMPConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import CounterSet

__all__ = ["GLineNetwork"]


class GLineNetwork:
    """The per-lock tree of token managers and leaf ports."""

    def __init__(self, sim: Simulator, config: CMPConfig, counters: CounterSet,
                 lock_id: int = 0, levels: int = 2,
                 arbitration: str = "round_robin", faults=None) -> None:
        self.check(config, levels, arbitration)
        self.sim = sim
        self.config = config
        self.counters = counters
        self.lock_id = lock_id
        self.levels = levels
        self.arbitration = arbitration
        #: per-network fault-injection port (None on a fault-free machine)
        self.fault_port = faults.port_for(self) if faults is not None else None
        latency = config.gline.gline_latency
        max_drops = config.gline.max_drops

        # group cores by mesh row
        rows: Dict[int, List[int]] = {}
        for core in range(config.n_cores):
            _, y = config.tile_coords(core)
            rows.setdefault(y, []).append(core)

        self.root = TokenManager(sim, counters, f"R{lock_id}", latency,
                                 arbitration, fault_port=self.fault_port)
        self.root.make_root()
        self.secondaries: List[TokenManager] = []
        self._token_callbacks: Dict[int, Callable[[], None]] = {}
        self._leaf_manager: Dict[int, TokenManager] = {}
        self._leaf_index: Dict[int, int] = {}

        if levels == 2:
            parents = [self.root] * len(rows)
        else:
            # group rows under intermediate managers, max_drops-1 rows each
            n_groups = -(-len(rows) // (max_drops - 1))
            intermediates = [
                TokenManager(sim, counters, f"I{lock_id}.{g}", latency,
                             arbitration, fault_port=self.fault_port)
                for g in range(n_groups)
            ]
            for mgr in intermediates:
                self.root.attach_child(mgr)
            parents = [
                intermediates[i // (max_drops - 1)] for i in range(len(rows))
            ]
            self.intermediates = intermediates

        for (y, cores), parent in zip(sorted(rows.items()), parents):
            mgr = TokenManager(sim, counters, f"S{lock_id}.{y}", latency,
                               arbitration, fault_port=self.fault_port)
            parent.attach_child(mgr)
            self.secondaries.append(mgr)
            for core in cores:
                port = LeafPort(self._make_token_cb(core))
                idx = mgr.attach_child(port)
                self._leaf_manager[core] = mgr
                self._leaf_index[core] = idx

        if self.fault_port is not None:
            for mgr in self._all_managers():
                self.fault_port.register_manager(mgr)

    @staticmethod
    def check(config: CMPConfig, levels: int = 2,
              arbitration: str = "round_robin") -> None:
        """Raise ``ValueError`` for a depth, row width (the G-line drop
        limit) or arbitration policy this chip cannot wire."""
        if levels not in (2, 3):
            raise ValueError("supported tree depths: 2 (paper) or 3 (hierarchical)")
        # one core per row hosts the manager (internal flag), so a row of
        # k cores needs k-1 transmitters + 1 receiver = k drops; cores fill
        # rows row-major, so row 0 is the widest
        widest = config.mesh_width
        max_drops = config.gline.max_drops
        if levels == 2 and widest > max_drops:
            raise ValueError(
                f"row 0 has {widest} cores; a G-line supports "
                f"{max_drops} drops — use levels=3 (hierarchical) or a "
                "smaller mesh"
            )
        TokenManager.check_arbitration(arbitration)

    def _make_token_cb(self, core: int) -> Callable[[], None]:
        def deliver() -> None:
            cb = self._token_callbacks.pop(core, None)
            if cb is None:
                if self.fault_port is not None:
                    # stale grant that survived a regeneration epoch or a
                    # duplicated REQ path: count it, never double-grant
                    self.counters.add("faults.spurious_token")
                    return
                raise RuntimeError(
                    f"GLock {self.lock_id}: TOKEN for core {core} "
                    "but it is not waiting"
                )
            cb()

        return deliver

    def _all_managers(self):
        yield self.root
        if self.levels == 3:
            yield from self.intermediates
        yield from self.secondaries

    # ------------------------------------------------------------------ #
    # local-controller interface (used by the GLock device)
    # ------------------------------------------------------------------ #
    def request(self, core: int, on_token: Callable[[], None]) -> None:
        """Core raises REQ; ``on_token`` runs when TOKEN is granted."""
        if core in self._token_callbacks:
            raise RuntimeError(
                f"GLock {self.lock_id}: core {core} requested twice"
            )
        self._token_callbacks[core] = on_token
        self._leaf_manager[core].signal_request(self._leaf_index[core])

    def release(self, core: int) -> None:
        """Core raises REL."""
        self._leaf_manager[core].signal_release(self._leaf_index[core])

    # ------------------------------------------------------------------ #
    # recovery (token regeneration, repro.faults.RecoveryController)
    # ------------------------------------------------------------------ #
    def reset_for_recovery(self) -> None:
        """Regenerate the token: reset every manager, re-seed the primary.

        Only safe while no core holds the device and the fault port's
        epoch has been bumped (voiding every in-flight pulse) — the
        recovery controller's quiesce handshake establishes both before
        calling.  Waiting cores keep their registered callbacks; their
        REQs are simply raised again.
        """
        for mgr in self._all_managers():
            mgr.reset_state()
        self.root.has_token = True
        for core in sorted(self._token_callbacks):
            self._leaf_manager[core].signal_request(self._leaf_index[core])

    # ------------------------------------------------------------------ #
    # Table I resource counts for this concrete network
    # ------------------------------------------------------------------ #
    @property
    def n_glines(self) -> int:
        """Dedicated G-lines: one per non-colocated transmitter.

        Matches the paper's ``C - 1`` for the 2-level network (each row has
        ``cols - 1`` horizontal lines plus ``rows - 1`` vertical ones).
        """
        total = 0
        for mgr in self.secondaries:
            total += len(mgr.children) - 1  # one local controller is internal
        if self.levels == 2:
            total += len(self.secondaries) - 1  # verticals to the primary
        else:
            for inter in self.intermediates:
                total += len(inter.children) - 1
            total += len(self.intermediates) - 1
        return total

    @property
    def n_managers(self) -> int:
        """Primary + intermediates + secondaries."""
        n = 1 + len(self.secondaries)
        if self.levels == 3:
            n += len(self.intermediates)
        return n
