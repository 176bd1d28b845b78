"""Wiring of the full memory system: mesh + per-tile L1 and L2/directory.

:class:`MemorySystem` is the substrate object workloads and lock algorithms
talk to.  Each tile registers a route table with the mesh, which delivers
each protocol message to the tile's L1 or L2/directory slice, whichever
:data:`repro.mem.protocol.KINDS` names as its receiver.

The memory controller is folded into the L2 slice: an L2 miss pays the
fixed 400-cycle DRAM latency and bumps ``mem.reads``/``mem.writes`` counters
(the paper models a fixed memory access time, Table II).
"""

from __future__ import annotations

from typing import List

from repro.mem import protocol as P
from repro.mem.address import AddressSpace
from repro.mem.backing import BackingStore
from repro.mem.l1 import L1Cache
from repro.mem.l2dir import L2DirectorySlice
from repro.noc.topology import Mesh
from repro.sim.config import CMPConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import CounterSet

__all__ = ["MemorySystem"]


class MemorySystem:
    """The complete coherent memory hierarchy of the simulated CMP."""

    def __init__(self, sim: Simulator, config: CMPConfig) -> None:
        self.sim = sim
        self.config = config
        self.counters = CounterSet()
        self.backing = BackingStore()
        self.address_space = AddressSpace(line_bytes=config.line_bytes)
        self.mesh = Mesh(sim, config)
        self.l1s: List[L1Cache] = [
            L1Cache(sim, config, i, self.mesh, self.backing, self.counters)
            for i in range(config.n_cores)
        ]
        self.l2s: List[L2DirectorySlice] = [
            L2DirectorySlice(sim, config, i, self.mesh, self.counters)
            for i in range(config.n_cores)
        ]
        for tile in range(config.n_cores):
            receive = {P.L1: self.l1s[tile].receive,
                       P.DIR: self.l2s[tile].receive}
            self.mesh.register(tile, {kind: receive[who] for kind, (who, _, _)
                                      in P.KINDS.items()})

    # ------------------------------------------------------------------ #
    # initialization helpers
    # ------------------------------------------------------------------ #
    def warm_l2(self, base: int, n_bytes: int) -> None:
        """Pre-install an address range into its home L2 slices (untimed).

        Workloads call this for data their (untimed) initialization phase
        wrote — e.g. the QSort input array — so the timed parallel phase
        starts from the post-init cache state the paper measures, instead
        of paying artificial cold-DRAM misses.
        """
        from repro.mem.address import home_of, line_of

        line_bytes = self.config.line_bytes
        first = line_of(base, line_bytes)
        last = line_of(base + max(n_bytes, 1) - 1, line_bytes)
        for line in range(first, last + line_bytes, line_bytes):
            home = home_of(line, line_bytes, self.config.n_cores)
            l2 = self.l2s[home]
            if l2.tags.lookup(line) is None:
                l2.tags.insert(line, "clean", may_evict=l2.evictable)

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    def l1(self, core_id: int) -> L1Cache:
        """The private L1 of ``core_id``."""
        return self.l1s[core_id]

    @property
    def traffic(self):
        """The mesh's :class:`~repro.noc.traffic.TrafficMeter`."""
        return self.mesh.traffic
