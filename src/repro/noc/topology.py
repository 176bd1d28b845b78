"""2D-mesh topology with XY routing and FIFO link occupancy.

Timing model per hop::

    depart  = max(now_at_hop, link.next_free)
    arrive  = depart + router_latency + serialization
    link.next_free = depart + serialization

with ``serialization = ceil(size_bytes / link_width_bytes)``.  This captures
head-of-line blocking on hot links (e.g. invalidation bursts converging on a
directory tile) without per-flit detail; with the paper's 75-byte links most
messages serialize in a single cycle.

Deliveries to the local tile (``src == dst``) bypass the network entirely —
they model same-tile L2-slice accesses, which the paper notes generate no
NoC traffic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Tuple, Union

from repro.mem import protocol as _protocol
from repro.noc.messages import Message
from repro.noc.traffic import TrafficMeter
from repro.sim.config import CMPConfig
from repro.sim.kernel import Simulator, compiled_impl

__all__ = ["Link", "Mesh"]

LOCAL_DELIVERY_LATENCY = 1

#: a tile's message handler, or its kind -> handler route table
Handler = Union[Callable[[Message], None],
                Dict[str, Callable[[Message], None]]]


class Link:
    """A unidirectional mesh link with FIFO occupancy."""

    __slots__ = ("u", "v", "next_free", "carried_bytes")

    def __init__(self, u: Tuple[int, int], v: Tuple[int, int]) -> None:
        self.u = u
        self.v = v
        self.next_free = 0
        #: total bytes this link has carried (hotspot analysis)
        self.carried_bytes = 0

    def reserve(self, now: int, ser_cycles: int) -> int:
        """Reserve the link starting no earlier than ``now``.

        Returns the departure time; the link stays busy for ``ser_cycles``.
        """
        next_free = self.next_free
        depart = now if now >= next_free else next_free
        self.next_free = depart + ser_cycles
        return depart

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.u}->{self.v}, free@{self.next_free})"


class Mesh:
    """The chip's main data network."""

    def __init__(self, sim: Simulator, config: CMPConfig) -> None:
        self.sim = sim
        self.config = config
        self.traffic = TrafficMeter()
        self._handlers: Dict[int, Handler] = {}
        # XY routes are static (the link set never changes once built),
        # so each (src, dst) pair is walked exactly once
        self._route_cache: Dict[Tuple[int, int], List[Link]] = {}
        # serialization cycles per message size (a handful of sizes exist)
        self._ser_cache: Dict[int, int] = {}
        self._router_latency = config.noc.router_latency
        # Compiled fast path: when the simulator is the compiled backend,
        # routing, link reservation and traffic accounting all run inside
        # the C MeshCore and ``send`` is rebound to it wholesale.  The core
        # owns every link's state, so a compiled run never builds the Link
        # objects; link_bytes reads the core back through the shared index
        # formula.
        self._core = None
        impl = compiled_impl()
        if impl is not None and type(sim) is impl.Simulator:
            traffic = self.traffic
            self._core = impl.MeshCore(
                sim, config.mesh_width, config.mesh_height,
                config.noc.router_latency, config.noc.link_width_bytes,
                traffic._per_cat, traffic._byte_hops,
                traffic._link_traversals)
            self.send = self._core.send
            self.send_proto = self._core.send_proto
            traffic._core = self._core

    @cached_property
    def _links(self) -> Dict[Tuple[Tuple[int, int], Tuple[int, int]], Link]:
        """Every directional link by ``(u, v)``, built on first use."""
        links = {}
        w, h = self.config.mesh_width, self.config.mesh_height
        for y in range(h):
            for x in range(w):
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < w and 0 <= ny < h:
                        links[((x, y), (nx, ny))] = Link((x, y), (nx, ny))
        return links

    # ------------------------------------------------------------------ #
    # endpoint registration
    # ------------------------------------------------------------------ #
    def register(self, tile: int, handler: Handler) -> None:
        """Attach the message handler for ``tile`` (one per tile).

        ``handler`` is a callable, or a dict routing each message kind to
        its own callable; a kind it lacks raises at ``send``.
        """
        if tile in self._handlers:
            raise ValueError(f"tile {tile} already has a handler")
        self._handlers[tile] = handler
        if self._core is not None:
            self._core.register(tile, handler)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, src: int, dst: int) -> List[Link]:
        """Deterministic XY route (X first, then Y)."""
        sx, sy = self.config.tile_coords(src)
        dx, dy = self.config.tile_coords(dst)
        hops: List[Link] = []
        x, y = sx, sy
        while x != dx:
            nx = x + (1 if dx > x else -1)
            hops.append(self._links[((x, y), (nx, y))])
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            hops.append(self._links[((x, y), (x, ny))])
            y = ny
        return hops

    def send(self, msg: Message) -> int:
        """Inject ``msg``; returns the (predicted) delivery cycle.

        The destination's registered handler is invoked at delivery time.
        """
        sim = self.sim
        handler = self._handlers[msg.dst]
        if type(handler) is dict:
            routed = handler.get(msg.kind)
            if routed is None:
                raise RuntimeError(
                    f"tile {msg.dst}: unroutable message {msg!r}")
            handler = routed
        now = sim.now
        if sim.tracer is not None:
            sim.tracer.record(now, "noc", f"tile{msg.src}",
                              f"{msg.kind} -> tile{msg.dst} "
                              f"({msg.size_bytes}B {msg.category.value})")
        if msg.src == msg.dst:
            arrival = now + LOCAL_DELIVERY_LATENCY
            sim.schedule_at(arrival, handler, msg)
            return arrival
        size = msg.size_bytes
        ser = self._ser_cache.get(size)
        if ser is None:
            noc = self.config.noc
            ser = -(-size // noc.link_width_bytes)  # ceil division
            self._ser_cache[size] = ser
        route_key = (msg.src, msg.dst)
        hops = self._route_cache.get(route_key)
        if hops is None:
            hops = self._route_cache[route_key] = self.route(*route_key)
        per_hop = self._router_latency + ser
        t = now
        for link in hops:
            # inlined Link.reserve: this loop runs once per hop per message
            next_free = link.next_free
            depart = t if t >= next_free else next_free
            link.next_free = depart + ser
            t = depart + per_hop
            link.carried_bytes += size
        self.traffic.record(msg, len(hops))
        sim.schedule_at(t, handler, msg)
        return t

    def send_proto(self, noc, src: int, dst: int, kind: str, line: int,
                   extra: object = None) -> int:
        """Build a protocol message and inject it (fused make_msg + send).

        The memory controllers issue every transaction hop through this
        entry point; the compiled mesh core folds both steps into one C
        call (the instance attribute is rebound in ``__init__``).
        """
        return self.send(_protocol.make_msg(noc, src, dst, kind, line, extra))

    @property
    def link_bytes(self) -> Dict[Tuple[Tuple[int, int], Tuple[int, int]], int]:
        """Bytes carried per directional link (hotspot analysis view)."""
        if self._core is not None:
            carried = self._core.carried_list()
            w, h = self.config.mesh_width, self.config.mesh_height
            wh = w * h
            direction = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}
            out: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}
            for (u, v) in self._links:
                d = direction[(v[0] - u[0], v[1] - u[1])]
                c = carried[d * wh + u[1] * w + u[0]]
                if c:
                    out[(u, v)] = c
            return out
        return {key: link.carried_bytes
                for key, link in self._links.items() if link.carried_bytes}

    @property
    def n_links(self) -> int:
        """Number of unidirectional links in the mesh."""
        return len(self._links)
