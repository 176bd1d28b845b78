"""The ``service`` workload's client side: daemon lifecycle and rounds.

``run.py`` is the only client: one thread, one connection at a time.
Each request opens a fresh connection, as the repository's own client
helpers (``repro.runner.service.http_submit`` and friends) do: on a
kept-alive connection every response of this daemon stalls about 40 ms,
because it sends headers and body in two writes and the second waits
for the client's delayed ACK (Nagle's algorithm).

Each round POSTs the round's 8-cell campaign (cold: its ``seeds:`` value
is new to the daemon), polls ``/jobs/<id>`` every 2 ms and fetches the
results, then resubmits the same YAML (warm: served from the daemon's
memo).  Latency runs from the POST until the results body has arrived.
This module imports nothing from the program under test.
"""

from __future__ import annotations

import http.client
import json
import re
import time
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from tracing import Tracer

__all__ = ["ServiceClient", "check_submission", "daemon_command",
           "daemon_peak_rss_mb", "parse_daemon_url", "wait_idle"]

POLL_INTERVAL_S = 0.002
OP_TIMEOUT_S = 60.0
#: the daemon's pool workers: one per vCPU of the 2-vCPU host
POOL_JOBS = 2

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def daemon_command(python: str, cache_dir: str) -> List[str]:
    """``repro-sim serve`` on a free loopback port with a fresh cache (the
    journal defaults to ``<cache-dir>/service-journal.jsonl``)."""
    return [python, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
            "--port", "0", "--jobs", str(POOL_JOBS), "--cache-dir",
            cache_dir]


def parse_daemon_url(line: str) -> Optional[Tuple[str, int]]:
    match = _LISTENING.search(line)
    return (match.group(1), int(match.group(2))) if match else None


def cpu_seconds(pid: int) -> float:
    """CPU time process ``pid`` has used so far, all its threads included
    (Linux's per-process CPU-time clock); 0 once the process is gone."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return 0.0


def wait_idle(pid: int, window_s: float = 0.005,
              timeout_s: float = 0.5) -> None:
    """Return once ``pid`` has used under 5% of a CPU for ``window_s``.

    A job's results reach the client before the daemon has finished with
    it (journal record, collector pauses); on a 2-vCPU host that work
    would slow a calibration run on the sibling vCPU.
    """
    deadline = perf_counter() + timeout_s
    before = cpu_seconds(pid)
    while perf_counter() < deadline:
        time.sleep(window_s)
        after = cpu_seconds(pid)
        if after - before < 0.05 * window_s:
            return
        before = after


def daemon_peak_rss_mb(pid: int) -> float:
    """The daemon's resident-set high-water mark (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServiceClient:
    """Requests to one daemon, each on its own short-lived connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/yaml"} if body else {}
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=OP_TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def healthy(self) -> bool:
        status, body = self.request("GET", "/healthz")
        return status == 200 and body.strip() == b"ok"

    def submission(self, yaml_text: str, tracer: Optional[Tracer] = None,
                   kind: str = "") -> Tuple[float, Dict, bytes]:
        """POST a campaign and fetch its results: ``(seconds, job, body)``."""
        span = tracer.span if tracer is not None else _no_span
        start = perf_counter()
        deadline = start + OP_TIMEOUT_S
        with span("op", kind=kind):
            with span("service.submit"):
                status, body = self.request("POST", "/campaigns",
                                            yaml_text.encode("utf-8"))
            if status != 202:
                raise RuntimeError(f"submit answered {status}: "
                                   f"{body[:200]!r}")
            accepted = json.loads(body)
            job_id = accepted["job"]
            with span("service.wait"):
                while True:
                    status, body = self.request("GET", f"/jobs/{job_id}")
                    job = json.loads(body)
                    if finished(job, accepted["specs"]):
                        break
                    if perf_counter() > deadline:
                        raise TimeoutError(f"{job_id} not done after "
                                           f"{OP_TIMEOUT_S:.0f} s")
                    time.sleep(POLL_INTERVAL_S)
            with span("service.results"):
                status, results = self.request("GET",
                                               f"/jobs/{job_id}/results")
        seconds = perf_counter() - start
        if status != 200:
            raise RuntimeError(f"results answered {status}")
        return seconds, job, results


def _no_span(name: str, **attrs):
    return nullcontext()


def finished(job: Dict, specs: int) -> bool:
    """Whether a job's status is final, counters included.

    The daemon marks a job ``done`` before it fills in the job's
    ``executed``/``cache_hits`` counters, so for a moment a done job
    reports 0/0; every spec of a finished job counts as one or the other.
    """
    if job.get("status") == "failed":
        return True
    return (job.get("status") == "done"
            and job.get("executed", 0) + job.get("cache_hits", 0) >= specs)


def check_submission(job: Dict, body: bytes, expected: Dict[str, str],
                     executed: int, cache_hits: int) -> List[str]:
    """Problems with one submission: job status and counters, and every
    published record's fingerprint against the expected one."""
    problems = []
    if job.get("status") != "done":
        problems.append(f"job {job.get('status')}: {job.get('error')}")
    if (job.get("executed"), job.get("cache_hits")) != (executed, cache_hits):
        problems.append(f"executed/cache_hits {job.get('executed')}/"
                        f"{job.get('cache_hits')}, expected "
                        f"{executed}/{cache_hits}")
    records = [json.loads(line) for line in body.decode("utf-8").splitlines()
               if line.strip()]
    if len(records) != len(expected):
        problems.append(f"{len(records)} records, expected {len(expected)}")
    for record in records:
        key = f"{record['workload']}[{record['locks']}]"
        if record.get("fingerprint") != expected.get(key):
            problems.append(f"{key} fingerprint "
                            f"{str(record.get('fingerprint'))[:12]} != "
                            f"{str(expected.get(key))[:12]}")
    return problems
