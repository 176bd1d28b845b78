"""Fault-tolerance tests for the remote worker protocol and backend:
leases, heartbeats, the circuit breaker, and graceful worker drain."""

import pickle
import socket
import struct
import sys
import threading
import time

import pytest

from repro.runner import Engine, RunFailure, RunSpec, Supervisor
from repro.runner.engine import execute_spec
from repro.runner.cache import ResultCache
from repro.runner.remote import (LeaseExpired, RemoteBackend, RemoteRunError,
                                 WorkerClient, WorkerDied, WorkerServer)

SPEC = RunSpec.benchmark("sctr", "mcs", n_cores=8, scale=0.05)
SPECS = [RunSpec.benchmark("sctr", "mcs", n_cores=8, scale=0.05),
         RunSpec.benchmark("sctr", "glock", n_cores=8, scale=0.05),
         RunSpec.benchmark("mctr", "mcs", n_cores=8, scale=0.05)]


class _FakeWorker:
    """A scriptable TCP peer: hangs, truncates frames, or stays silent."""

    def __init__(self, behaviour):
        self.behaviour = behaviour    # called with (conn) per connection
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = "127.0.0.1:%d" % self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self.behaviour, args=(conn,),
                             daemon=True).start()

    def close(self):
        self._stop.set()
        self._sock.close()


def _read_frame(conn):
    header = b""
    while len(header) < 4:
        chunk = conn.recv(4 - len(header))
        if not chunk:
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    data = b""
    while len(data) < length:
        data += conn.recv(length - len(data))
    return pickle.loads(data)


@pytest.fixture()
def live_worker(tmp_path):
    server = WorkerServer(cache_dir=str(tmp_path / "wcache"),
                          heartbeat_interval=0.1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server, "%s:%d" % server.address
    server.shutdown()


# ---------------------------------------------------------------------- #
# WorkerClient: timeouts, WorkerDied, LeaseExpired
# ---------------------------------------------------------------------- #
def test_control_requests_carry_a_default_timeout():
    silent = _FakeWorker(lambda conn: time.sleep(30))  # accepts, never replies
    try:
        client = WorkerClient(silent.address, default_timeout=0.3)
        with pytest.raises(socket.timeout):
            client.ping(timeout=0.3)
        client.close()
        # and without an explicit per-call timeout, default_timeout rules
        client = WorkerClient(silent.address, default_timeout=0.3)
        start = time.monotonic()
        with pytest.raises(socket.timeout):
            client.request({"op": "stats"})
        assert time.monotonic() - start < 5.0
        client.close()
    finally:
        silent.close()


def test_worker_dying_mid_result_frame_raises_worker_died():
    def truncate(conn):
        request = _read_frame(conn)
        assert request["op"] == "run"
        # header promises 4096 bytes, then the "process" dies mid-frame
        conn.sendall(struct.pack(">I", 4096) + b"\x80\x04partial")
        conn.close()

    fake = _FakeWorker(truncate)
    try:
        client = WorkerClient(fake.address)
        with pytest.raises(WorkerDied) as excinfo:
            client.run_spec(SPEC, timeout=10.0, lease_timeout=10.0)
        assert fake.address in str(excinfo.value)
        assert not isinstance(excinfo.value, LeaseExpired)
        client.close()
    finally:
        fake.close()


def test_worker_closing_connection_raises_worker_died():
    fake = _FakeWorker(lambda conn: (_read_frame(conn), conn.close()))
    try:
        client = WorkerClient(fake.address)
        with pytest.raises(WorkerDied):
            client.run_spec(SPEC, timeout=10.0, lease_timeout=10.0)
        client.close()
    finally:
        fake.close()


def test_silent_worker_breaks_the_lease():
    hang = _FakeWorker(lambda conn: (_read_frame(conn), time.sleep(30)))
    try:
        client = WorkerClient(hang.address)
        start = time.monotonic()
        with pytest.raises(LeaseExpired) as excinfo:
            client.run_spec(SPEC, timeout=30.0, lease_timeout=0.3)
        assert time.monotonic() - start < 5.0
        assert excinfo.value.lease_timeout == 0.3
        client.close()
    finally:
        hang.close()


def test_heartbeats_keep_a_slow_run_alive(live_worker, tmp_path):
    server, address = live_worker
    release = threading.Event()

    def slow(spec):
        release.wait(0.5)   # several heartbeat intervals
        return execute_spec(spec)

    server.execute_fn = slow
    beats = []
    client = WorkerClient(address)
    run = client.run_spec(SPEC, timeout=30.0, lease_timeout=0.25,
                          on_heartbeat=lambda: beats.append(1))
    client.close()
    assert run.result.makespan > 0
    assert len(beats) >= 1   # lease window < run time: only beats saved it


def test_overall_budget_expires_despite_heartbeats(live_worker):
    server, address = live_worker

    def very_slow(spec):
        time.sleep(30)

    server.execute_fn = very_slow
    client = WorkerClient(address)
    with pytest.raises(TimeoutError) as excinfo:
        client.run_spec(SPEC, timeout=0.5, lease_timeout=5.0)
    assert not isinstance(excinfo.value, LeaseExpired)
    client.close()


# ---------------------------------------------------------------------- #
# RemoteBackend: lease reclaim, breaker quarantine + half-open probe
# ---------------------------------------------------------------------- #
def test_broken_lease_reclaims_spec_for_healthy_worker(tmp_path):
    hang = _FakeWorker(lambda conn: (_read_frame(conn), time.sleep(30)))
    good = WorkerServer(cache_dir=str(tmp_path / "wcache"))
    threading.Thread(target=good.serve_forever, daemon=True).start()
    try:
        backend = RemoteBackend([hang.address, "%s:%d" % good.address],
                                lease_timeout=0.3)
        engine = Engine(backend=backend, retries=1)
        runs = engine.run_specs(SPECS)
        assert all(run.result.makespan > 0 for run in runs)
        health = {h["address"]: h for h in backend.health_snapshot()}
        sick = health[hang.address]
        assert sick["lease_breaks"] >= 1
        assert sick["state"] in ("quarantined", "half-open", "retired")
        assert health["%s:%d" % good.address]["completed"] == len(SPECS)
    finally:
        hang.close()
        good.shutdown()


def test_breaker_quarantines_then_readmits_after_probe(tmp_path):
    """First run hangs (lease break -> quarantine); the half-open ping
    probe succeeds and the readmitted worker finishes the batch."""
    fail_first = threading.Event()

    def flaky(spec):
        if not fail_first.is_set():
            fail_first.set()
            time.sleep(30)      # no heartbeats: the lease must break
        return execute_spec(spec)

    server = WorkerServer(cache_dir=str(tmp_path / "wcache"),
                          execute_fn=flaky, heartbeat_interval=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        backend = RemoteBackend(["%s:%d" % server.address],
                                lease_timeout=0.3, breaker_base=0.05)
        engine = Engine(backend=backend, retries=1)
        runs = engine.run_specs(SPECS)
        assert all(run.result.makespan > 0 for run in runs)
        (health,) = backend.health_snapshot()
        assert health["quarantines"] >= 1
        assert health["probes"] >= 1
        assert health["state"] == "healthy"
        assert health["completed"] == len(SPECS)
    finally:
        server.shutdown()


def test_exhausted_retries_surface_the_lease_break(tmp_path):
    hang = _FakeWorker(lambda conn: (_read_frame(conn), time.sleep(30)))
    try:
        backend = RemoteBackend([hang.address], lease_timeout=0.25,
                                breaker_base=0.05, max_strikes=2)
        engine = Engine(backend=backend, retries=0)
        with pytest.raises(RunFailure) as excinfo:
            engine.run_specs([SPEC])
        assert isinstance(excinfo.value.cause, LeaseExpired)
    finally:
        hang.close()


def test_remote_spec_failure_does_not_trip_breaker(tmp_path):
    def explode(spec):
        raise RuntimeError("boom")

    server = WorkerServer(cache_dir=str(tmp_path / "wcache"),
                          execute_fn=explode)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        backend = RemoteBackend(["%s:%d" % server.address])
        engine = Engine(backend=backend, retries=0)
        with pytest.raises(RunFailure) as excinfo:
            engine.run_specs([SPEC])
        assert isinstance(excinfo.value.cause, RemoteRunError)
        (health,) = backend.health_snapshot()
        assert health["state"] == "healthy"       # the spec is sick, not
        assert health["quarantines"] == 0         # the worker
    finally:
        server.shutdown()


def test_backend_validates_breaker_parameters():
    with pytest.raises(ValueError, match="lease_timeout"):
        RemoteBackend(["127.0.0.1:9"], lease_timeout=0)
    with pytest.raises(ValueError, match="max_strikes"):
        RemoteBackend(["127.0.0.1:9"], max_strikes=0)


# ---------------------------------------------------------------------- #
# graceful worker drain
# ---------------------------------------------------------------------- #
def test_drain_refuses_new_runs():
    server = WorkerServer(cache_dir=None)
    worker_draining = server._handle_request({"op": "ping"}, None)[0]
    assert worker_draining["draining"] is False
    server._draining.set()
    reply, action = server._handle_request(
        {"op": "run", "spec": SPEC.to_dict()}, None)
    assert reply == {"ok": False, "kind": "draining",
                     "error": "worker is draining and admits no new specs"}
    assert action == "close"
    server._server.server_close()


def test_drain_finishes_inflight_spec_and_commits_to_cache(tmp_path):
    cache_dir = tmp_path / "wcache"
    running = threading.Event()

    def slow(spec):
        running.set()
        time.sleep(0.4)
        return execute_spec(spec)

    server = WorkerServer(cache_dir=str(cache_dir), execute_fn=slow,
                          heartbeat_interval=0.1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    address = "%s:%d" % server.address
    results = {}

    def run():
        client = WorkerClient(address)
        results["run"] = client.run_spec(SPEC, timeout=30.0,
                                         lease_timeout=5.0)
        client.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert running.wait(10.0)
    server.begin_drain()                 # SIGTERM path: admits nothing new
    thread.join(30.0)
    assert not thread.is_alive()
    assert results["run"].result.makespan > 0
    assert server.wait_drained(grace=10.0)
    # the in-flight spec was committed to the shared cache before exit
    cached = ResultCache(cache_dir).load(SPEC.digest())
    assert cached is not None
    assert cached.result.makespan == results["run"].result.makespan


# ---------------------------------------------------------------------- #
# breaker across batches, failure classes, concurrency, abandonment
# ---------------------------------------------------------------------- #
def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_retired_worker_is_probed_again_in_the_next_batch(tmp_path):
    """Retirement lasts one batch: once the address answers again, the
    next batch on the same engine runs there."""
    port = _free_port()
    backend = RemoteBackend(["127.0.0.1:%d" % port], breaker_base=0.01)
    engine = Engine(backend=backend)
    with pytest.raises(RunFailure, match="no live workers"):
        engine.run_specs([SPEC])
    (health,) = backend.health_snapshot()
    assert health["state"] == "retired"
    server = WorkerServer(port=port, cache_dir=str(tmp_path / "wcache"))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        (run,) = engine.run_specs([SPEC])
        assert run.result.makespan > 0
        (health,) = backend.health_snapshot()
        assert health["state"] == "healthy"
        assert health["completed"] == 1
        assert health["probes"] >= 1
    finally:
        engine.close()
        server.shutdown()


@pytest.mark.parametrize("status", ["deadlock", "sanitizer"])
def test_remote_failures_keep_their_failure_class(tmp_path, status):
    def fail(spec):
        if status == "deadlock":
            from repro.sim.kernel import SimDeadlockError
            raise SimDeadlockError("synthetic deadlock")
        from repro.verify.invariants import InvariantViolation
        raise InvariantViolation("synthetic violation")

    server = WorkerServer(execute_fn=fail)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    engine = Engine(backend=RemoteBackend(["%s:%d" % server.address]))
    try:
        result = Supervisor(engine, fail_policy="collect",
                            install_signal_handlers=False
                            ).run_campaign([SPEC])
        (outcome,) = result.outcomes
        assert outcome.status == status
        assert outcome.attempts == 1
    finally:
        engine.close()
        server.shutdown()


def test_remote_runs_one_spec_per_worker_whatever_jobs(tmp_path):
    """Both specs must be in flight at once to pass the barrier."""
    barrier = threading.Barrier(2, timeout=5)

    def together(spec):
        barrier.wait()
        return execute_spec(spec)

    servers = [WorkerServer(execute_fn=together) for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    engine = Engine(jobs=1, backend=RemoteBackend(
        ["%s:%d" % server.address for server in servers]))
    try:
        runs = engine.run_specs(SPECS[:2])
        assert all(run.result.makespan > 0 for run in runs)
        assert not barrier.broken
    finally:
        engine.close()
        for server in servers:
            server.shutdown()


def test_collect_campaign_with_no_reachable_worker_fails_every_spec():
    engine = Engine(backend=RemoteBackend(["127.0.0.1:%d" % _free_port()],
                                          breaker_base=0.01))
    result = Supervisor(engine, fail_policy="collect",
                        install_signal_handlers=False).run_campaign(SPECS)
    assert [o.status for o in result.outcomes] == ["error"] * len(SPECS)
    for outcome in result.outcomes:
        assert outcome.attempts == 0
        assert "no live workers" in outcome.error
    engine.close()


def test_worker_lost_between_batches_costs_no_attempt(tmp_path):
    """Each batch connects afresh: a worker that went away while idle
    is struck at connect time and the batch runs on the survivor."""
    servers = [WorkerServer(cache_dir=str(tmp_path / ("wcache%d" % i)))
               for i in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    addresses = ["%s:%d" % server.address for server in servers]
    backend = RemoteBackend(addresses, breaker_base=0.01)
    engine = Engine(backend=backend, retries=0)
    try:
        engine.run_specs(SPECS[:2])
        servers[0].shutdown()
        runs = engine.run_specs(SPECS[2:])
        assert runs[0].result.makespan > 0
        assert engine.stats.retries == 0 and engine.stats.failures == 0
        lost = backend.health_snapshot()[0]
        assert lost["state"] != "healthy" and lost["deaths"] == 0
    finally:
        engine.close()
        servers[1].shutdown()


def test_spec_over_budget_costs_one_attempt_and_frees_its_worker():
    """The budget runs from submission, as in the pool; the stuck spec
    is charged once and nothing restarts on the other worker."""
    release = threading.Event()

    def slow_mctr(spec):
        if spec.workload == "mctr":
            release.wait(30)   # heartbeats keep its lease alive
        return execute_spec(spec)

    servers = [WorkerServer(execute_fn=slow_mctr, heartbeat_interval=0.1)
               for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    backend = RemoteBackend(["%s:%d" % server.address for server in servers])
    engine = Engine(backend=backend, timeout=2.0)
    try:
        start = time.monotonic()
        result = Supervisor(engine, fail_policy="collect",
                            install_signal_handlers=False
                            ).run_campaign(SPECS)
        assert time.monotonic() - start < 15
        assert [o.status for o in result.outcomes] == ["ok", "ok", "timeout"]
        assert result.outcomes[2].attempts == 1
        assert sum(s.stats["requests"] for s in servers) == len(SPECS)
        for health in backend.health_snapshot():
            assert health["state"] == "healthy"
            assert health["current"] is None
    finally:
        release.set()
        engine.close()
        for server in servers:
            server.shutdown()


def test_leases_stay_consistent_under_thread_stress():
    """More workers than cores, a tiny switch interval, and every lease
    outcome at once (result, spec failure, budget cancel): each spec
    lands once and every worker ends idle."""
    seen = set()
    seen_lock = threading.Lock()

    def flaky(spec):
        index = dict(spec.workload_params)["i"]
        with seen_lock:
            first = index not in seen
            seen.add(index)
        if first and index % 7 == 1:
            raise RuntimeError("first attempt fails")
        if first and index % 7 == 2:
            time.sleep(2.5)      # past the budget: cancelled, retried
        time.sleep(0.001 * (index % 3))
        return "run-%d" % index

    servers = [WorkerServer(execute_fn=flaky, heartbeat_interval=0.05)
               for _ in range(4)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    specs = [RunSpec(workload="synth", workload_params={"i": i})
             for i in range(28)]
    backend = RemoteBackend(["%s:%d" % s.address for s in servers])
    engine = Engine(backend=backend, timeout=1.0, retries=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = Supervisor(engine, fail_policy="collect",
                            install_signal_handlers=False
                            ).run_campaign(specs)
    finally:
        sys.setswitchinterval(interval)
        engine.close()
        for server in servers:
            server.shutdown()
    assert [o.run for o in result.outcomes] == [
        "run-%d" % i for i in range(28)]
    assert engine.stats.retries == 8 and engine.stats.failures == 0
    health = backend.health_snapshot()
    assert sum(h["completed"] for h in health) == 28
    assert all(h["current"] is None and h["state"] == "healthy"
               for h in health)
