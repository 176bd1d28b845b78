#!/usr/bin/env python
"""Distributed chaos harness for the serving layer.

Four seeded fault schedules exercise the journal, lease/heartbeat and
circuit-breaker machinery end to end, each asserting the two serving
invariants:

- **zero lost, zero duplicated** — every spec of the campaign lands
  exactly once (one record per digest in the published file, one
  ``spec_landed`` per digest in the journal);
- **byte identity** — the published JSONL is identical to an
  uninterrupted inline run of the same campaign, whatever was killed,
  hung, or delayed along the way.

Schedules (``--schedule`` runs one, default all):

- ``kill-worker``   — SIGKILL one of two remote workers mid-campaign;
  the survivor absorbs the re-dispatched leases.
- ``hang-worker``   — one "worker" accepts specs and never replies;
  its leases break and the breaker retires it.
- ``kill-daemon``   — SIGKILL the campaign daemon mid-job, restart with
  ``--resume-journal``; only never-landed specs re-execute.  Runs once
  inline and once with ``--jobs 2``, where the killed daemon's pool
  workers must exit with it.
- ``slow-network``  — a delaying TCP proxy sits between the backend and
  its worker; heartbeats keep leases alive despite the latency.

``--seed`` makes the kill timing and proxy delays reproducible.  Exit 0
and a final ``CHAOS SERVICE OK`` line mean every schedule held.
Usage::

    PYTHONPATH=src python scripts/chaos_service.py [--seed N] [--schedule S]
"""

import argparse
import json
import os
import pathlib
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(1, str(REPO))

from repro.runner import Engine  # noqa: E402
from repro.runner.config import expand_campaign  # noqa: E402
from repro.runner.journal import replay_journal  # noqa: E402
from repro.runner.publisher import SamplePublisher  # noqa: E402
from repro.runner.remote import RemoteBackend  # noqa: E402
from repro.runner.service import (http_get_json, http_get_text,  # noqa: E402
                                  http_submit)
from tests.procs import children, still_running  # noqa: E402

CAMPAIGN = """
campaign: chaos-service
defaults: {scale: 0.4, cores: [16]}
matrix:
  - benchmarks: [sctr, mctr, dbll]
    locks: [mcs, glock]
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return env


def _start(argv, marker):
    proc = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv],
                            cwd=REPO, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise RuntimeError(f"subprocess died on startup: {argv}")
        if marker in line:
            return proc, line
    proc.kill()
    raise RuntimeError(f"never saw {marker!r} from {argv}")


def start_worker(cache_dir):
    proc, line = _start(["worker", "--port", "0",
                         "--cache-dir", str(cache_dir),
                         "--heartbeat-interval", "0.2"],
                        "worker listening")
    address = line.split("listening on ")[1].split()[0]
    return proc, address


def inline_reference(workdir, campaign):
    """The published JSONL of an uninterrupted inline run."""
    path = workdir / "inline.jsonl"
    publisher = SamplePublisher(path)
    publisher.expect(campaign.digests())
    engine = Engine()
    engine.observers.append(publisher)
    engine.run_specs(campaign.specs)
    publisher.close()
    return path.read_text()


def check_published(published, campaign, reference, label):
    digests = campaign.digests()
    lines = published.splitlines()
    assert len(lines) == len(digests), (
        f"{label}: {len(lines)} records for {len(digests)} specs "
        f"(lost or duplicated work)")
    seen = [json.loads(line)["digest"] for line in lines]
    assert len(set(seen)) == len(seen), f"{label}: duplicated digests"
    assert set(seen) == set(digests), f"{label}: wrong digests published"
    assert published == reference, (
        f"{label}: published JSONL differs from the inline run")


def run_remote_campaign(workdir, campaign, addresses, reference, label,
                        lease_timeout=1.0):
    """Run the campaign over RemoteBackend, then assert the invariants."""
    path = workdir / f"{label}.jsonl"
    backend = RemoteBackend(addresses, lease_timeout=lease_timeout,
                            breaker_base=0.1)
    engine = Engine(backend=backend, retries=3)
    publisher = SamplePublisher(path)
    publisher.expect(campaign.digests())
    engine.observers.append(publisher)
    engine.run_specs(campaign.specs)
    publisher.close()
    check_published(path.read_text(), campaign, reference, label)
    return backend


# ---------------------------------------------------------------------- #
# schedules
# ---------------------------------------------------------------------- #
def schedule_kill_worker(workdir, campaign, reference, rng):
    cache = workdir / "kill-worker-cache"
    workers = [start_worker(cache) for _ in range(2)]
    procs = [p for p, _ in workers]
    addresses = [a for _, a in workers]
    victim = rng.randrange(2)
    delay = rng.uniform(0.2, 0.6)

    def kill():
        time.sleep(delay)
        procs[victim].send_signal(signal.SIGKILL)

    killer = threading.Thread(target=kill, daemon=True)
    killer.start()
    try:
        backend = run_remote_campaign(workdir, campaign, addresses,
                                      reference, "kill-worker")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=15)
    killer.join()
    health = {h["address"]: h for h in backend.health_snapshot()}
    dead = health[addresses[victim]]
    print(f"  kill-worker ok: killed worker {victim} after {delay:.2f}s "
          f"(state={dead['state']}, deaths={dead['deaths']}, "
          f"survivor completed "
          f"{health[addresses[1 - victim]]['completed']})")


def schedule_hang_worker(workdir, campaign, reference, rng):
    # a fake worker that accepts connections, reads, and never replies
    hang_sock = socket.socket()
    hang_sock.bind(("127.0.0.1", 0))
    hang_sock.listen(8)
    hang_addr = "127.0.0.1:%d" % hang_sock.getsockname()[1]
    stop = threading.Event()

    def black_hole():
        hang_sock.settimeout(0.2)
        conns = []
        while not stop.is_set():
            try:
                conn, _ = hang_sock.accept()
                conns.append(conn)      # hold open, never answer
            except socket.timeout:
                continue
            except OSError:
                break
        for conn in conns:
            conn.close()

    threading.Thread(target=black_hole, daemon=True).start()
    cache = workdir / "hang-worker-cache"
    proc, address = start_worker(cache)
    try:
        backend = run_remote_campaign(
            workdir, campaign, [hang_addr, address], reference,
            "hang-worker", lease_timeout=0.5)
    finally:
        stop.set()
        hang_sock.close()
        proc.terminate()
        proc.wait(timeout=15)
    health = {h["address"]: h for h in backend.health_snapshot()}
    hung = health[hang_addr]
    assert hung["lease_breaks"] >= 1, "the hung worker never broke a lease"
    print(f"  hang-worker ok: hung worker broke {hung['lease_breaks']} "
          f"lease(s), state={hung['state']}, healthy worker completed "
          f"{health[address]['completed']}")


def schedule_kill_daemon(workdir, campaign, reference, rng):
    for jobs in (1, 2):
        kill_daemon(workdir / f"kill-daemon-jobs{jobs}", jobs, campaign,
                    reference)


def kill_daemon(tmp, jobs, campaign, reference):
    tmp.mkdir()
    journal_path = tmp / "journal.jsonl"
    serve_args = ["serve", "--port", "0", "--cache-dir", str(tmp / "cache"),
                  "--results-dir", str(tmp / "results"),
                  "--journal", str(journal_path), "--jobs", str(jobs)]
    daemon, line = _start(serve_args, "campaign service listening")
    url = line.split("listening on ")[1].split()[0]
    try:
        reply = http_submit(url, CAMPAIGN)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if (journal_path.exists()
                    and "spec_landed" in journal_path.read_text()):
                break
            time.sleep(0.01)
        workers = children(daemon.pid)
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=15)
    finally:
        if daemon.poll() is None:
            daemon.kill()
    if jobs > 1:
        assert workers, "the pooled daemon had no worker processes"
    orphans = still_running(workers, within=5.0)
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans, (
        f"pool workers {sorted(orphans)} outlived the killed daemon")

    job_id = reply["job"]
    crashed = replay_journal(journal_path)[job_id]
    assert not crashed.finished, "daemon finished before the kill landed"
    landed_before = len(crashed.landed)

    daemon, line = _start(serve_args + ["--resume-journal"],
                          "campaign service listening")
    url = line.split("listening on ")[1].split()[0]
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = http_get_json(url, f"/jobs/{job_id}")
            if status["status"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert status["status"] == "done", f"recovered job: {status}"
        assert status["executed"] == len(reply["digests"]) - landed_before, (
            f"recovery must execute exactly the never-landed specs: "
            f"{status} (landed_before={landed_before})")
        published = http_get_text(url, f"/jobs/{job_id}/results")
    finally:
        daemon.terminate()
        daemon.wait(timeout=30)
    check_published(published, campaign, reference, "kill-daemon")
    landed_records = [line for line in journal_path.read_text().splitlines()
                      if '"spec_landed"' in line]
    assert len(landed_records) == len(reply["digests"]), (
        "journal must hold exactly one spec_landed per digest")
    print(f"  kill-daemon ok (--jobs {jobs}): killed after "
          f"{landed_before} landings, {len(workers)} pool worker(s) exited "
          f"with the daemon, recovery executed {status['executed']} "
          f"(cache_hits={status['cache_hits']})")


def schedule_slow_network(workdir, campaign, reference, rng):
    cache = workdir / "slow-network-cache"
    proc, address = start_worker(cache)
    host, port = address.split(":")
    upstream = (host, int(port))
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    proxy_addr = "127.0.0.1:%d" % listener.getsockname()[1]
    stop = threading.Event()
    delays = [rng.uniform(0.02, 0.12) for _ in range(64)]

    def pump(src, dst, lane):
        i = 0
        while True:
            try:
                data = src.recv(65536)
            except OSError:
                break
            if not data:
                break
            time.sleep(delays[(lane + i) % len(delays)])
            i += 1
            try:
                dst.sendall(data)
            except OSError:
                break
        for sock in (src, dst):
            try:
                sock.close()
            except OSError:
                pass

    def proxy():
        listener.settimeout(0.2)
        while not stop.is_set():
            try:
                client, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                server = socket.create_connection(upstream, timeout=5.0)
            except OSError:
                client.close()
                continue
            threading.Thread(target=pump, args=(client, server, 0),
                             daemon=True).start()
            threading.Thread(target=pump, args=(server, client, 1),
                             daemon=True).start()

    threading.Thread(target=proxy, daemon=True).start()
    try:
        backend = run_remote_campaign(
            workdir, campaign, [proxy_addr], reference, "slow-network",
            lease_timeout=2.0)
    finally:
        stop.set()
        listener.close()
        proc.terminate()
        proc.wait(timeout=15)
    (health,) = backend.health_snapshot()
    print(f"  slow-network ok: completed {health['completed']} specs "
          f"through the delaying proxy "
          f"(heartbeats={health['heartbeats']}, state={health['state']})")


SCHEDULES = {
    "kill-worker": schedule_kill_worker,
    "hang-worker": schedule_hang_worker,
    "kill-daemon": schedule_kill_daemon,
    "slow-network": schedule_slow_network,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--schedule", choices=sorted(SCHEDULES),
                        default=None, help="run one schedule (default: all)")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: a fresh temp dir); "
                             "journals land here for CI artifact upload")
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir
                           or tempfile.mkdtemp(prefix="chaos-service-"))
    workdir.mkdir(parents=True, exist_ok=True)
    campaign = expand_campaign(CAMPAIGN)
    print(f"chaos-service: {len(campaign.specs)} specs per schedule, "
          f"seed={args.seed}, workdir={workdir}")
    reference = inline_reference(workdir, campaign)

    names = [args.schedule] if args.schedule else sorted(SCHEDULES)
    for name in names:
        rng = random.Random(args.seed ^ hash(name) & 0xFFFF)
        start = time.monotonic()
        SCHEDULES[name](workdir, campaign, reference, rng)
        print(f"  [{name}] held in {time.monotonic() - start:.1f}s")
    print("CHAOS SERVICE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
