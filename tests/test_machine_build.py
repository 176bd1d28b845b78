"""Machine construction costs what the run touches.

A fault-free ``Machine`` provisions its GLock devices and mesh but wires
neither: each device builds its G-line network on first use, and the
mesh builds its ``Link`` objects only when a pure-Python route or a
link view needs them.  These tests pin the construction budget in
GC-tracked objects per core and the points at which networks and links
come into existence, on every available kernel backend.
"""

import gc

import pytest

from repro.core.network import GLineNetwork
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.noc.topology import Link
from repro.sim import kernel
from repro.sim.config import CMPConfig
from repro.workloads.microbench import SingleCounter

#: GC-tracked objects one core may add to a fault-free machine
OBJECTS_PER_CORE = 25


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend(request.param)
    yield request.param
    kernel.set_backend(prev)


def _new(types, before):
    """Live instances of ``types`` that are not in ``before``."""
    seen = {id(obj) for obj in before}
    return [obj for obj in gc.get_objects()
            if isinstance(obj, types) and id(obj) not in seen]


def _live(types):
    return [obj for obj in gc.get_objects() if isinstance(obj, types)]


@pytest.mark.parametrize("n_cores", [256, 1024])
def test_construction_budget_per_core(backend, n_cores):
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        machine = Machine(CMPConfig.baseline(n_cores), glock_levels=3)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert machine.config.n_cores == n_cores
    assert added / n_cores <= OBJECTS_PER_CORE, \
        f"{added / n_cores:.1f} GC-tracked objects per core"


def test_construction_builds_no_network_and_no_link(backend):
    before = _live((GLineNetwork, Link))
    machine = Machine(CMPConfig.baseline(64), glock_levels=3)
    assert len(machine.glocks.devices) == 2
    assert _new((GLineNetwork, Link), before) == []


def test_sanitized_mcs_run_wires_no_network(backend, sanitized_machine_factory):
    """The sanitizer reads unwired devices as free without wiring them;
    the compiled mesh routes without Link objects (the pure one routes
    through them)."""
    before = _live((GLineNetwork, Link))
    machine, sanitizer = sanitized_machine_factory(CMPConfig.baseline(16))
    instance = SingleCounter(iterations=32).instantiate(
        machine, hc_kind="mcs")
    machine.run(instance.programs)
    instance.validate(machine)
    assert sanitizer.checks_run > 0
    new = _new((GLineNetwork, Link), before)
    assert not any(isinstance(obj, GLineNetwork) for obj in new)
    if backend == "compiled":
        assert new == []


def test_glock_run_wires_only_the_device_it_uses(backend):
    machine = Machine(CMPConfig.baseline(16))
    instance = SingleCounter(iterations=32).instantiate(
        machine, hc_kind="glock")
    machine.run(instance.programs)
    instance.validate(machine)
    used, spare = machine.glocks.devices
    assert isinstance(vars(used).get("network"), GLineNetwork)
    assert "network" not in vars(spare)
    assert spare.holder is None and spare.waiters == {}


def test_fault_armed_machine_wires_every_network(backend):
    before = _live(GLineNetwork)
    machine = Machine(CMPConfig.baseline(16),
                      fault_plan=FaultPlan(seed=1, drop_rate=0.01))
    devices = machine.glocks.devices
    networks = _new(GLineNetwork, before)
    assert len(networks) == len(devices) == 2
    for device in devices:
        assert vars(device)["network"] in networks
        assert device.network.fault_port is not None


def test_drop_limit_still_raises_at_construction():
    # 8x8 mesh: 8 cores per row > 7 drops on a 2-level (default) network
    with pytest.raises(ValueError, match="G-line supports 7 drops"):
        Machine(CMPConfig.baseline(64))


def test_unknown_arbitration_still_raises_at_construction():
    with pytest.raises(ValueError, match="unknown arbitration"):
        Machine(CMPConfig.baseline(16), glock_arbitration="lottery")
