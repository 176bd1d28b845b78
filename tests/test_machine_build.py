"""Machine construction costs what the run touches.

A fault-free ``Machine`` provisions its GLock devices and mesh but wires
neither: each device builds its G-line network on first use, and the
mesh builds its ``Link`` objects only when a pure-Python route or a
link view needs them.  These tests pin the construction budget in
GC-tracked objects per core and the points at which networks and links
come into existence, on every available kernel backend.

The same rule holds while a run goes on and before it starts: the kernel
keeps a process only while it has work pending (its ``done`` signal is
built when first asked for), the directory runs its transactions as
per-line state machines (no process, no signal), and numpy loads only
with the workloads and analyses that use it.
"""

import gc
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.network import GLineNetwork
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.mem import protocol as P
from repro.mem.cache import TagArray
from repro.noc.messages import Message
from repro.noc.topology import Link
from repro.sim import kernel
from repro.sim.config import CMPConfig
from repro.verify.invariants import InvariantSanitizer, InvariantViolation
from repro.workloads.microbench import SingleCounter

#: GC-tracked objects one core may add to a fault-free machine
OBJECTS_PER_CORE = 25


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


def test_a_run_spawns_only_its_thread_programs(backend,
                                              sanitized_machine_factory):
    """Directory transactions take no process and no signal: a 16-core
    mcs run spawns its 16 thread programs and nothing else."""
    machine, _ = sanitized_machine_factory(CMPConfig.baseline(16))
    sim = machine.sim
    signals = set()
    sim.add_on_event(
        lambda sim: signals.update(sig.name for sig in sim.live_signals()))
    instance = SingleCounter(iterations=32).instantiate(
        machine, hc_kind="mcs")
    machine.run(instance.programs)
    instance.validate(machine)
    # default names count every spawn: proc16 follows the 16 programs
    spawned = sim.spawn(_returns(None)).name
    per_transaction = sorted(name for name in signals if name.startswith(
        ("fwd-", "acks-", "unblock-")))
    assert (spawned, per_transaction[:3]) == ("proc16", [])


@pytest.mark.parametrize("kind", [P.INV_ACK, P.UNBLOCK])
def test_a_message_no_row_expects_raises(backend, kind):
    """An InvAck with no acks pending, or an Unblock for an idle line,
    names the tile, the line, its state and the message."""
    machine = Machine(CMPConfig.baseline(4))
    line = 0x10000                               # homed at tile 0
    machine.mem.mesh.send_proto(machine.config.noc, 1, 0, kind, line)
    message = f"home 0: no transition for 0x10000 in I on {kind}"
    with pytest.raises(RuntimeError, match=message):
        machine.sim.run()


@pytest.mark.parametrize("dst, kind, error", [
    (0, P.WB_DATA, "home 0: no transition for 0x10000 in I on "
                   "WBData from a non-owner"),
    (2, P.GRANT_M, "L1 2: no transition for 0x10000 in I on GrantM"),
    (2, P.DATA, "L1 2: no transition for 0x10000 in I on Data"),
], ids=["WBData-from-a-non-owner", "GrantM-unasked", "Data-unasked"])
def test_a_message_the_rows_refuse_raises(backend, dst, kind, error):
    """An owner's notice from a non-owner, or a reply no miss awaits,
    raises the same error on both kernels."""
    machine = Machine(CMPConfig.baseline(4))
    machine.mem.mesh.send_proto(machine.config.noc, 1, dst, kind, 0x10000)
    with pytest.raises(RuntimeError, match=f"^{error}$"):
        machine.sim.run()


def test_a_python_message_takes_the_same_rows(backend):
    """A ``repro.noc.messages.Message`` sent through the public
    ``Mesh.send`` reaches the same rows as one ``send_proto`` builds: a
    stale absent-ack is dropped, a grant no miss awaits raises."""
    machine = Machine(CMPConfig.baseline(4))
    noc, mesh = machine.config.noc, machine.mem.mesh
    mesh.send(P.make_msg(noc, 1, 0, P.RECALL_ACK, 0x10000,
                         {"present": False}))
    machine.sim.run()
    assert machine.mem.l2s[0].entry(0x10000).state == "I"
    mesh.send(P.make_msg(noc, 1, 2, P.GRANT_M, 0x10000))
    with pytest.raises(RuntimeError, match="^L1 2: no transition for "
                       "0x10000 in I on GrantM$"):
        machine.sim.run()


def test_machine_takes_its_accelerators_from_its_simulator(backend):
    """A pure simulator's machine is all Python, even after the compiled
    kernel was imported first; a compiled one uses the C tag arrays, mesh
    core and protocol controllers, and the mesh delivers to them."""
    machine = Machine(CMPConfig.baseline(16))
    mem = machine.mem
    tag_types = {type(cache.tags) for cache in [*mem.l1s, *mem.l2s]}
    core_types = {type(ctrl._core) for ctrl in [*mem.l1s, *mem.l2s]}
    if backend == "compiled":
        impl = kernel.compiled_impl()
        assert tag_types == {impl.TagArray}
        assert isinstance(mem.mesh._core, impl.MeshCore)
        assert core_types == {impl.L1Core, impl.DirCore}
        assert mem.l1s[3].receive.__self__ is mem.l1s[3]
        assert mem.l2s[3].receive.__self__ is mem.l2s[3]
        return
    assert tag_types == {TagArray}
    assert mem.mesh._core is None
    assert core_types == {type(None)}
    sent = []
    send = mem.mesh.send
    mem.mesh.send = lambda msg: sent.append(type(msg)) or send(msg)
    instance = SingleCounter(iterations=32).instantiate(
        machine, hc_kind="mcs")
    machine.run(instance.programs)
    instance.validate(machine)
    assert sent and set(sent) == {Message}, f"{len(sent)} messages"


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


def test_finished_processes_are_freed(backend):
    """No spawn history: once a run returns, the processes that finished
    in it (the thread programs) are garbage."""
    before = _live(kernel.PROCESS_TYPES)
    machine = Machine(CMPConfig.baseline(16))
    instance = SingleCounter(iterations=32).instantiate(
        machine, hc_kind="mcs")
    machine.run(instance.programs)
    instance.validate(machine)
    gc.collect()
    kept = [p for p in _new(kernel.PROCESS_TYPES, before) if p.finished]
    assert kept == [], f"{len(kept)} finished processes still alive"


def test_sanitizer_sees_a_process_whose_handle_was_dropped(backend):
    """A process stuck on a signal nothing else references is still an
    orphan at drain after a collection: while the sanitizer is attached
    the kernel holds it (and so its signal) until it finishes."""
    machine = Machine(CMPConfig.baseline(4))
    if machine.sanitizer is not None:      # --sanitize attached one
        machine.sanitizer.detach()
    sanitizer = InvariantSanitizer(machine).attach()

    def stray():
        yield machine.sim.signal("x")

    machine.sim.spawn(stray(), name="stray")
    machine.sim.run()
    gc.collect()
    with pytest.raises(InvariantViolation, match="orphaned"):
        sanitizer.at_drain()


def _returns(value, delay=1):
    yield delay
    return value


def test_done_built_mid_run_wakes_its_waiter(backend):
    sim = kernel.Simulator()
    sim.enable_signal_registry()
    worker = sim.spawn(_returns("w", delay=10), name="worker")

    def waiter():
        yield 5
        assert "worker.done" not in [s.name for s in sim.live_signals()]
        value = yield worker.done        # first touch: built here
        return sim.now, value

    boss = sim.spawn(waiter())
    sim.run()
    assert boss.result == (10, "w")


def test_done_of_a_directly_built_process(backend):
    sim = kernel.Simulator()
    proc_type = type(sim.spawn(_returns(0)))
    proc = proc_type(sim, _returns(3), "direct")
    assert proc.done.name == "direct.done"
    assert proc.done is proc.done


def test_join_on_finished_process_returns_at_once(backend):
    """It returns the result in the same cycle and builds no ``done``."""
    sim = kernel.Simulator()
    sim.enable_signal_registry()
    worker = sim.spawn(_returns(7), name="worker")
    sim.run()
    assert worker.finished

    def boss():
        start = sim.now
        value = yield from worker.join()
        return sim.now - start, value

    joiner = sim.spawn(boss())
    sim.run()
    assert joiner.result == (0, 7)
    assert [s.name for s in sim.live_signals()] == []


def test_default_names_count_every_spawn(backend):
    sim = kernel.Simulator()
    first = sim.spawn(_returns(None))
    sim.run()
    assert first.finished and first.name == "proc0"
    del first
    gc.collect()
    assert sim.spawn(_returns(None)).name == "proc1"
    assert sim.spawn(_returns(None), name="named").name == "named"
    assert sim.spawn(_returns(None)).name == "proc3"


def test_none_name_means_no_name(backend):
    """Both kernels read a ``None`` name as no name at all."""
    sim = kernel.Simulator()
    proc = sim.spawn(_returns(None), name=None)
    assert proc.name == "proc0"
    assert kernel.Process(sim, _returns(None), None).name == "proc1"
    assert type(proc)(sim, _returns(None), None).name == ""
    sig = sim.signal(None)
    assert sig.name == ""
    assert sim.signal(name=None).name == ""
    assert kernel.Signal(sim, None).name == ""
    assert type(sig)(sim, None).name == ""


def test_startup_and_a_run_load_no_numpy():
    """The CLI, the daemon and a non-raytr run never import numpy."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "import repro.cli\n"
        "import repro.runner.service\n"
        "from repro.runner.engine import execute_spec\n"
        "from repro.runner.spec import RunSpec\n"
        "execute_spec(RunSpec.benchmark('sctr', n_cores=4, scale=0.05))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", script], cwd=repo, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
