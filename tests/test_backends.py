"""Tests for the pluggable execution backends (inline / pool / remote)."""

import gc
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.runner import (Engine, RunFailure, RunSpec, Supervisor,
                          make_backend)
from repro.runner.backends import (BACKEND_NAMES, InlineBackend,
                                   ProcessPoolBackend)
from repro.runner.fingerprint import result_fingerprint
from repro.runner.remote import (RemoteBackend, RemoteRunError, WorkerClient,
                                 WorkerServer, parse_address)
from tests.procs import HAVE_PROC_CHILDREN, running, still_running

SPECS = [RunSpec.benchmark("sctr", "mcs", n_cores=8, scale=0.05),
         RunSpec.benchmark("sctr", "glock", n_cores=8, scale=0.05),
         RunSpec.benchmark("mctr", "mcs", n_cores=8, scale=0.05)]


@pytest.fixture(scope="module")
def inline_fingerprints():
    engine = Engine()
    return [result_fingerprint(run.result) for run in engine.run_specs(SPECS)]


@pytest.fixture()
def worker_pair(tmp_path):
    """Two live workers sharing one cache directory."""
    servers = [WorkerServer(cache_dir=str(tmp_path / "wcache"))
               for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    addresses = [f"{host}:{port}" for host, port in
                 (server.address for server in servers)]
    yield servers, addresses
    for server in servers:
        server.shutdown()


def test_backend_names_registry():
    assert BACKEND_NAMES == ("auto", "inline", "process-pool", "remote")
    assert make_backend("auto") is None
    assert isinstance(make_backend("inline"), InlineBackend)
    assert isinstance(make_backend("process-pool", jobs=2),
                      ProcessPoolBackend)
    with pytest.raises(ValueError, match="worker addresses"):
        make_backend("remote")
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("carrier-pigeon")


def test_auto_selection_matches_classic_behaviour():
    assert Engine(jobs=1).backend_name == "inline"
    assert Engine(jobs=4).backend_name == "process-pool"
    assert Engine(jobs=4, backend="inline").backend_name == "inline"


def test_summary_reports_backend_identity():
    engine = Engine(jobs=2, backend="process-pool")
    assert "backend=process-pool" in engine.summary()
    assert "jobs=2" in engine.summary()


def test_explicit_backends_match_inline_fingerprints(inline_fingerprints):
    for backend in ("inline", "process-pool"):
        engine = Engine(jobs=2, backend=backend)
        runs = engine.run_specs(SPECS)
        assert [result_fingerprint(r.result) for r in runs] \
            == inline_fingerprints, backend


# --------------------------------------------------------------------- #
# process pool: workers kept across batches
# --------------------------------------------------------------------- #
def _pid_execute(spec):
    """Pool worker: returns its pid; ``kill`` dies, ``hang`` never returns."""
    params = dict(spec.workload_params)
    if params.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(120 if params.get("hang") else 0.2)
    return os.getpid()


def _pid_specs(batch, n=4, **params):
    return [RunSpec(workload="synth",
                    workload_params={"batch": batch, "idx": i, **params})
            for i in range(n)]


def test_pool_workers_are_kept_across_batches():
    engine = Engine(jobs=2, execute_fn=_pid_execute)
    try:
        first = set(engine.run_specs(_pid_specs(0)))
        second = set(engine.run_specs(_pid_specs(1)))
    finally:
        engine.close()
    assert len(first) == 2
    assert second == first


def _ppid_execute(spec):
    return os.getppid()


def test_pool_workers_fork_whatever_the_default_start_method():
    """Workers exit when their parent's pid is no longer their parent,
    so they must be this process's own children even where the default
    start method is forkserver (the default from Python 3.14)."""
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    engine = Engine(jobs=2, retries=0, execute_fn=_ppid_execute)
    try:
        parents = set(engine.run_specs(_pid_specs(0)))
    finally:
        engine.close()
        multiprocessing.set_start_method(default, force=True)
    assert parents == {os.getpid()}


def test_worker_death_rebuilds_the_kept_pool():
    """A death mid-batch rebuilds the pool as it always has; the next
    batch runs on the rebuilt workers, not the dead pool's."""
    engine = Engine(jobs=2, retries=0, execute_fn=_pid_execute)
    sup = Supervisor(engine, fail_policy="collect", backoff_base=0.01,
                     backoff_cap=0.02, install_signal_handlers=False)
    try:
        before = set(sup.run_campaign(_pid_specs(0)).runs())
        killer = _pid_specs(1, n=1, kill=1)[0]
        outcomes = sup.run_campaign([killer, *_pid_specs(2, n=1)]).outcomes
        after = set(sup.run_campaign(_pid_specs(3)).runs())
    finally:
        engine.close()
    assert [o.status for o in outcomes] == ["quarantined", "ok"]
    # an ambiguous death, then the killer dies alone twice; no rebuild
    # follows the last death, and the next batch's fork is not one
    assert (sup.pool_deaths, sup.rebuilds) == (3, 2)
    assert len(after) == 2
    assert not after & before


@pytest.mark.skipif(not HAVE_PROC_CHILDREN, reason="needs Linux /proc")
def test_worker_that_died_idle_costs_no_spec_anything():
    """A kept worker killed between batches is replaced before the next
    batch submits: no kill, death or rebuild lands on that batch."""
    engine = Engine(jobs=2, retries=0, execute_fn=_pid_execute)
    sup = Supervisor(engine, fail_policy="collect",
                     install_signal_handlers=False)
    try:
        workers = set(sup.run_campaign(_pid_specs(0)).runs())
        victim = min(workers)
        os.kill(victim, signal.SIGKILL)
        assert not still_running({victim}, within=5.0)
        (outcome,) = sup.run_campaign(_pid_specs(1, n=1)).outcomes
    finally:
        engine.close()
    assert (outcome.ok, outcome.attempts, outcome.kills) == (True, 1, 0)
    assert (sup.pool_deaths, sup.rebuilds) == (0, 0)
    assert outcome.run not in workers


@pytest.mark.skipif(not HAVE_PROC_CHILDREN, reason="needs Linux /proc")
def test_aborted_batch_kills_the_kept_pool():
    """A batch that ends in RunFailure leaves none of its workers
    running, so nothing of it reaches the next batch, which succeeds."""
    engine = Engine(jobs=2, timeout=1.0, retries=0, execute_fn=_pid_execute)
    try:
        workers = set(engine.run_specs(_pid_specs(0)))
        hung = _pid_specs(1, n=1, hang=1)
        with pytest.raises(RunFailure):
            engine.run_specs(hung + _pid_specs(2, n=1))
        assert not still_running(workers, within=5.0)
        after = set(engine.run_specs(_pid_specs(3)))
    finally:
        engine.close()
    assert len(after) == 2
    assert not after & workers


@pytest.mark.skipif(not HAVE_PROC_CHILDREN, reason="needs Linux /proc")
def test_closed_or_dropped_engine_leaves_no_worker_running():
    closed = Engine(jobs=2, execute_fn=_pid_execute)
    workers = set(closed.run_specs(_pid_specs(0)))
    assert all(running(pid) for pid in workers)
    closed.close()
    assert not still_running(workers, within=5.0)

    dropped = Engine(jobs=2, execute_fn=_pid_execute)
    workers = set(dropped.run_specs(_pid_specs(1)))
    assert all(running(pid) for pid in workers)
    del dropped
    gc.collect()
    assert not still_running(workers, within=5.0)


def test_remote_backend_matches_inline_fingerprints(worker_pair,
                                                    inline_fingerprints):
    _, addresses = worker_pair
    engine = Engine(backend=RemoteBackend(addresses))
    runs = engine.run_specs(SPECS)
    assert [result_fingerprint(r.result) for r in runs] \
        == inline_fingerprints
    assert engine.stats.executed == len(SPECS)
    assert engine.backend_name == "remote"


def test_remote_workers_share_their_cache(worker_pair):
    servers, addresses = worker_pair
    Engine(backend=RemoteBackend(addresses)).run_specs(SPECS)
    Engine(backend=RemoteBackend(addresses)).run_specs(SPECS)
    executed = sum(server.stats["executed"] for server in servers)
    hits = sum(server.stats["cache_hits"] for server in servers)
    assert executed == len(SPECS)  # second engine fully served warm
    assert hits == len(SPECS)


def test_remote_run_error_carries_failure_kind(worker_pair):
    _, addresses = worker_pair
    client = WorkerClient(addresses[0])
    try:
        with pytest.raises(RemoteRunError) as excinfo:
            client.run_spec(RunSpec(workload="synth",
                                    workload_params={"bogus_param": 1}))
        assert excinfo.value.kind == "error"
    finally:
        client.close()


def test_remote_backend_raises_runfailure_when_no_workers():
    backend = RemoteBackend(["127.0.0.1:1"])  # nothing listens there
    engine = Engine(backend=backend)
    with pytest.raises(RunFailure, match="no live workers"):
        engine.run_specs([SPECS[0]])


def test_remote_ping_and_stats(worker_pair):
    _, addresses = worker_pair
    client = WorkerClient(addresses[0])
    try:
        pong = client.ping()
        assert pong["role"] == "repro-sim-worker"
        assert client.stats()["requests"] >= 0
    finally:
        client.close()


def test_parse_address():
    assert parse_address("10.0.0.2:19301") == ("10.0.0.2", 19301)
    assert parse_address(":19301") == ("127.0.0.1", 19301)
    assert parse_address("19301") == ("127.0.0.1", 19301)
    with pytest.raises(ValueError):
        parse_address("nonsense")
    with pytest.raises(ValueError):
        parse_address("host:99999")


def test_remote_backend_needs_an_address():
    with pytest.raises(ValueError, match="at least one worker"):
        RemoteBackend([])
