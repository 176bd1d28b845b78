"""Unit and property tests for the 2D-mesh NoC."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Mesh, Message, MsgCategory, messages
from repro.sim import CMPConfig, Simulator, kernel


def make_mesh(n_cores=16):
    sim = Simulator()
    cfg = CMPConfig.baseline(n_cores)
    mesh = Mesh(sim, cfg)
    inbox = {i: [] for i in range(n_cores)}
    for i in range(n_cores):
        mesh.register(i, lambda m, i=i: inbox[i].append((sim.now, m)))
    return sim, cfg, mesh, inbox


def ctrl(src, dst, kind="GetS", cat=MsgCategory.REQUEST, size=8):
    return Message(src=src, dst=dst, kind=kind, category=cat, size_bytes=size)


def test_mesh_link_count_4x4():
    _, _, mesh, _ = make_mesh(16)
    # 4x4 grid: 2 * (3*4 + 3*4) unidirectional links
    assert mesh.n_links == 48


def test_xy_route_length_is_manhattan():
    _, cfg, mesh, _ = make_mesh(16)
    for src in range(16):
        for dst in range(16):
            assert len(mesh.route(src, dst)) == cfg.hop_distance(src, dst)


def test_xy_route_goes_x_first():
    _, cfg, mesh, _ = make_mesh(16)
    hops = mesh.route(0, 15)  # (0,0) -> (3,3)
    xs = [h.u for h in hops]
    assert xs[0] == (0, 0)
    # first three hops move along x, next three along y
    assert [h.v for h in hops[:3]] == [(1, 0), (2, 0), (3, 0)]
    assert [h.v for h in hops[3:]] == [(3, 1), (3, 2), (3, 3)]


def test_delivery_latency_uncontended():
    sim, cfg, mesh, inbox = make_mesh(16)
    msg = ctrl(0, 3)  # 3 hops
    mesh.send(msg)
    sim.run()
    t, m = inbox[3][0]
    # per hop: router_latency + 1 cycle serialization (8B < 75B link)
    assert t == 3 * (cfg.noc.router_latency + 1)
    assert m is msg


def test_local_delivery_bypasses_network():
    sim, _, mesh, inbox = make_mesh(16)
    mesh.send(ctrl(5, 5))
    sim.run()
    assert len(inbox[5]) == 1
    assert mesh.traffic.total_messages == 0
    assert mesh.traffic.switch_bytes() == 0


def test_traffic_accounting_switch_bytes():
    sim, _, mesh, _ = make_mesh(16)
    mesh.send(ctrl(0, 3, size=8))  # 3 hops -> 4 switches
    sim.run()
    assert mesh.traffic.switch_bytes(MsgCategory.REQUEST) == 8 * 4
    assert mesh.traffic.byte_hops == 8 * 3
    assert mesh.traffic.breakdown()["reply"] == 0


def test_link_contention_serializes():
    sim, cfg, mesh, inbox = make_mesh(16)
    # two large messages over the same first link at the same time
    big = cfg.noc.link_width_bytes * 4  # 4 cycles serialization
    mesh.send(ctrl(0, 1, size=big))
    mesh.send(ctrl(0, 1, size=big))
    sim.run()
    t1 = inbox[1][0][0]
    t2 = inbox[1][1][0]
    assert t1 == cfg.noc.router_latency + 4
    # second message waits for the link to free (4 cycles later)
    assert t2 == t1 + 4


def test_fifo_order_preserved_same_route():
    sim, _, mesh, inbox = make_mesh(16)
    a = ctrl(0, 15, kind="A")
    b = ctrl(0, 15, kind="B")
    mesh.send(a)
    mesh.send(b)
    sim.run()
    kinds = [m.kind for _, m in inbox[15]]
    assert kinds == ["A", "B"]


def test_message_size_must_be_positive():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, kind="X", category=MsgCategory.REPLY, size_bytes=0)


def test_register_twice_rejected():
    sim = Simulator()
    mesh = Mesh(sim, CMPConfig.baseline(4))
    mesh.register(0, lambda m: None)
    with pytest.raises(ValueError):
        mesh.register(0, lambda m: None)


def test_unregistered_destination_raises():
    sim = Simulator()
    mesh = Mesh(sim, CMPConfig.baseline(4))
    with pytest.raises(KeyError):
        mesh.send(ctrl(0, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31), st.integers(1, 300))
def test_route_and_delivery_properties(src, dst, size):
    """Property: every message is delivered exactly once, after a delay of at
    least hops*(router+ser), and traffic accounting matches size*switches."""
    sim = Simulator()
    cfg = CMPConfig.baseline(32)
    mesh = Mesh(sim, cfg)
    got = []
    for i in range(32):
        mesh.register(i, lambda m, i=i: got.append((i, sim.now)))
    msg = Message(src=src, dst=dst, kind="t", category=MsgCategory.REPLY, size_bytes=size)
    predicted = mesh.send(msg)
    sim.run()
    assert len(got) == 1
    tile, t = got[0]
    assert tile == dst and t == predicted
    hops = cfg.hop_distance(src, dst)
    ser = -(-size // cfg.noc.link_width_bytes)
    if src == dst:
        assert mesh.traffic.switch_bytes() == 0
    else:
        assert t == hops * (cfg.noc.router_latency + ser)
        assert mesh.traffic.switch_bytes(MsgCategory.REPLY) == size * (hops + 1)


# --------------------------------------------------------------------- #
# pure vs compiled mesh, link by link
# --------------------------------------------------------------------- #
_SIZES = (8, 72, 160)   # 1, 1 and 3 serialization cycles on 75-byte links
_CATEGORIES = tuple(MsgCategory)


def _all_pairs_stream(backend, n_cores):
    """Every (src, dst) pair as one shuffled stream, 16 sends per cycle.

    Returns what the mesh reports: each message's delivery cycle
    (checked against the one ``send`` predicted), the per-link byte map,
    byte-hops and the category breakdown.
    """
    prev = kernel.active_backend()
    kernel.set_backend(backend)
    try:
        sim = Simulator()
        mesh = Mesh(sim, CMPConfig.baseline(n_cores))
        delivered = {}
        for tile in range(n_cores):
            mesh.register(
                tile, lambda m: delivered.__setitem__(m.payload, sim.now))
        predicted = {}

        def inject(i, src, dst):
            msg = messages.Message(src=src, dst=dst, kind="GetS",
                                   category=_CATEGORIES[i % 3],
                                   size_bytes=_SIZES[i % 3], payload=i)
            predicted[i] = mesh.send(msg)

        pairs = [(s, d) for s in range(n_cores) for d in range(n_cores)]
        random.Random(n_cores).shuffle(pairs)
        for i, (src, dst) in enumerate(pairs):
            sim.schedule_at(i // 16, inject, i, src, dst)
        sim.run()
        assert delivered == predicted
        assert len(delivered) == n_cores * n_cores
        return (delivered, mesh.link_bytes, mesh.traffic.byte_hops,
                mesh.traffic.breakdown())
    finally:
        kernel.set_backend(prev)


@pytest.mark.parametrize("n_cores, shape", [(32, (6, 6)), (128, (12, 11))],
                         ids=["6x6", "12x11"])
def test_compiled_mesh_matches_pure_link_by_link(n_cores, shape):
    """The compiled core computes each XY hop's link index inline; on
    meshes with empty tiles (6x6 for 32 cores, the non-square 12x11 for
    128) it must deliver, load links and count byte-hops as the pure
    mesh's Link objects do."""
    if "compiled" not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    pure = _all_pairs_stream("pure", n_cores)
    compiled = _all_pairs_stream("compiled", n_cores)
    cfg = CMPConfig.baseline(n_cores)
    assert (cfg.mesh_width, cfg.mesh_height) == shape
    delivered, link_bytes, byte_hops, breakdown = pure
    assert sum(link_bytes.values()) == byte_hops > 0
    assert compiled[0] == delivered
    assert compiled[1] == link_bytes
    assert compiled[2] == byte_hops
    assert compiled[3] == breakdown
