"""The campaign service: a long-lived daemon serving sweeps over HTTP.

``repro-sim serve`` starts one :class:`CampaignService`: a stdlib
``http.server`` front end, a bounded FIFO job queue, and a single
executor thread running submitted campaigns **sequentially over one
shared Engine** — so every client's sweep sees the same in-process memo
and digest-keyed disk cache.  Two users submitting overlapping matrices
pay for the overlap once; a re-submitted campaign is served entirely
warm (0 specs executed).

The service is crash-recovering and load-shedding (see the "Fault
tolerance" section of ``docs/campaign-service.md``):

- every submission and per-spec transition is appended to a durable
  write-ahead **journal** (:mod:`repro.runner.journal`) before it is
  acknowledged, so ``repro-sim serve --resume-journal`` after a crash
  re-enqueues unfinished jobs and — results being digest-keyed in the
  cache — re-executes only the specs that never landed;
- the job queue is **bounded** (``max_queue``); a full queue answers
  ``429 Too Many Requests`` with a ``Retry-After`` hint instead of
  accepting load it cannot serve;
- SIGTERM puts the daemon in **drain mode**: admission stops (``503``),
  the in-flight job finishes and flushes its publisher, still-queued
  jobs stay journaled for the next ``--resume-journal``, and the
  process exits 0.

API (JSON in/out unless noted):

- ``POST /campaigns`` — body is campaign YAML (the same file
  ``repro-sim campaign run`` takes).  Returns 202 with the job id and
  the expanded digests; 400 with a one-line error on an invalid config;
  429 + ``Retry-After`` when the queue is full; 503 + ``Retry-After``
  while draining.  ``?format=csv`` selects the published sample format
  (default JSONL).
- ``GET /jobs/<id>`` — job status: queued/running/done/failed, spec
  counts, per-job cache-hit/executed deltas once finished.
- ``GET /jobs/<id>/results`` — the published sample file as it stands
  (streamed records appear as results land; complete once the job is
  done).
- ``GET /status`` — daemon status: queue depth and bound, drain state,
  job table, engine summary line, per-worker health for the remote
  backend.
- ``GET /healthz`` — liveness probe, plain ``ok``.

Everything is stdlib (``http.server``, ``urllib``): no new deps.  Like
the remote worker protocol this is trusted-network plumbing — bind to
loopback or a private interface.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.runner.config import Campaign, ConfigError, expand_campaign
from repro.runner.engine import Engine, RunFailure
from repro.runner.journal import JobJournal, replay_journal
from repro.runner.publisher import PUBLISH_FORMATS, SamplePublisher

__all__ = ["CampaignService", "Job", "QueueFull", "ServiceDraining",
           "http_get_json", "http_get_text", "http_submit"]

log = logging.getLogger("repro.runner")


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity (HTTP 429)."""


class ServiceDraining(RuntimeError):
    """The service is draining and admits no new jobs (HTTP 503)."""


@dataclass
class Job:
    """One submitted campaign in the service's FIFO queue."""

    id: str
    campaign: Campaign
    fmt: str = "jsonl"
    #: the submitted YAML, journaled so a restart can re-expand the job
    source: str = ""
    status: str = "queued"      # queued | running | done | failed
    error: Optional[str] = None
    #: engine-stat deltas attributed to this job (set when finished)
    executed: int = 0
    cache_hits: int = 0
    results_path: Optional[Path] = None
    #: re-enqueued from the journal by ``--resume-journal``
    recovered: bool = False
    #: digests whose ``spec_landed`` is already journaled (recovery must
    #: not re-log them: one landing record per digest per job, ever)
    already_landed: frozenset = frozenset()
    done_event: threading.Event = field(default_factory=threading.Event)

    def to_dict(self) -> Dict[str, object]:
        data = {
            "job": self.id,
            "campaign": self.campaign.name,
            "status": self.status,
            "specs": len(self.campaign.specs),
            "format": self.fmt,
        }
        if self.recovered:
            data["recovered"] = True
        if self.status in ("done", "failed"):
            data["executed"] = self.executed
            data["cache_hits"] = self.cache_hits
        if self.error is not None:
            data["error"] = self.error
        return data


class CampaignService:
    """FIFO campaign executor with an HTTP submit/status/results API.

    Args:
        engine: the shared :class:`Engine` every job runs on (its memo
            and cache_dir are the service's warm cache).
        results_dir: where published sample files land
            (``<results_dir>/<job-id>.jsonl``).
        host / port: bind address (``port=0`` picks a free port).
        journal_path: durable write-ahead journal location; ``None``
            disables journaling (a crash then loses queued jobs).
        max_queue: bound on *queued* (not yet running) jobs; ``None``
            is unbounded.  A full queue rejects submissions with
            :class:`QueueFull` (HTTP 429 + ``Retry-After``).
        retry_after: the ``Retry-After`` hint, in seconds, sent with
            429/503 responses.
    """

    def __init__(self, engine: Engine, results_dir, host: str = "127.0.0.1",
                 port: int = 0, journal_path=None,
                 max_queue: Optional[int] = None,
                 retry_after: float = 5.0) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine
        self.results_dir = Path(results_dir)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.journal = (JobJournal(journal_path)
                        if journal_path is not None else None)
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "Queue[Optional[Job]]" = Queue()
        self._queued = 0            # jobs admitted but not yet running
        self._lock = threading.Lock()
        self._job_seq = 0
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._started = False
        self._worker = threading.Thread(target=self._run_jobs,
                                        name="campaign-executor", daemon=True)
        service = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body go out in two writes; with Nagle on, the
            # body waits for the client's delayed ACK on kept-alive
            # connections
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # route through logging
                log.debug("[serve] %s", fmt % args)

            def do_GET(self) -> None:
                service._handle_get(self)

            def do_POST(self) -> None:
                service._handle_post(self)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self):
        """The bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def serve_forever(self) -> None:
        """Run until :meth:`shutdown`/:meth:`drain` (blocks the caller)."""
        if self._draining.is_set() or self._stop.is_set():
            return  # a signal landed before the loop started
        self._started = True
        self._worker.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._stop.set()
            self._queue.put(None)

    def start(self) -> None:
        """Start HTTP + executor threads in the background (tests)."""
        self._started = True
        self._worker.start()
        threading.Thread(target=self._httpd.serve_forever,
                         kwargs={"poll_interval": 0.1}, daemon=True).start()

    def shutdown(self) -> None:
        """Stop immediately (tests); queued jobs stay journaled."""
        self._stop.set()
        self._queue.put(None)
        if self._started:
            # shutdown() on a server whose serve_forever never ran would
            # wait forever for an acknowledgement that cannot come
            self._httpd.shutdown()
        self._httpd.server_close()
        if self.journal is not None:
            self.journal.close()

    def drain(self, grace: Optional[float] = None) -> bool:
        """Graceful shutdown: finish the running job, keep the rest.

        Admission stops at once (submissions get 503).  The executor
        finishes (and publishes) the job it is currently running, then
        exits without starting queued jobs — those remain in the
        journal as unfinished and are recovered by the next
        ``--resume-journal``.  Returns ``True`` when the executor
        drained within ``grace`` seconds (``None`` waits forever).
        """
        self._draining.set()
        self._queue.put(None)       # unblock an idle executor promptly
        if self._worker.is_alive():
            self._worker.join(grace)
        drained = not self._worker.is_alive()
        with self._lock:
            left_behind = [jid for jid in self._order
                           if self.jobs[jid].status == "queued"]
        if left_behind:
            log.warning("[serve] drained with %d queued job(s) left "
                        "journaled for --resume-journal: %s",
                        len(left_behind), ", ".join(left_behind))
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self.journal is not None:
            self.journal.close()
        return drained

    # ------------------------------------------------------------------ #
    # submission, recovery, and the executor thread
    # ------------------------------------------------------------------ #
    def submit(self, campaign: Campaign, fmt: str = "jsonl",
               source: str = "") -> Job:
        """Queue a campaign; returns its :class:`Job` immediately.

        Raises :class:`ServiceDraining` once :meth:`drain` has begun and
        :class:`QueueFull` when ``max_queue`` jobs are already waiting.
        The job is journaled before it is acknowledged, so an accepted
        submission survives a daemon crash.
        """
        if self._draining.is_set():
            raise ServiceDraining("service is draining; resubmit to the "
                                  "restarted daemon")
        with self._lock:
            if self.max_queue is not None and self._queued >= self.max_queue:
                raise QueueFull(f"job queue is full "
                                f"({self._queued}/{self.max_queue} queued)")
            self._job_seq += 1
            job = Job(id=f"job-{self._job_seq:04d}", campaign=campaign,
                      fmt=fmt, source=source)
            self.jobs[job.id] = job
            self._order.append(job.id)
            self._queued += 1
        if self.journal is not None:
            self.journal.job_submitted(job.id, campaign.name, source,
                                       fmt, campaign.digests())
        self._queue.put(job)
        return job

    def resume_journal(self) -> List[Job]:
        """Replay the journal; re-enqueue unfinished jobs (call before
        :meth:`start`/:meth:`serve_forever`).

        Finished jobs are restored to the job table (status, counters
        and results files stay queryable); unfinished jobs are
        re-expanded from their journaled YAML and queued again with
        their original ids.  Recovery is idempotent: landed specs are
        served from the digest-keyed cache, so a recovered job only
        executes the specs that never landed.  Returns the re-enqueued
        jobs.
        """
        if self.journal is None:
            raise ValueError("resume_journal needs a journal_path")
        recovered: List[Job] = []
        replayed = replay_journal(self.journal.path)
        for state in replayed.values():
            seq = _job_seq_of(state.id)
            if seq is not None:
                self._job_seq = max(self._job_seq, seq)
            try:
                campaign = expand_campaign(state.source,
                                           source=f"<journal:{state.id}>")
            except ConfigError as exc:
                log.error("[serve] journaled job %s no longer expands "
                          "(%s); marking failed", state.id, exc)
                campaign = Campaign(name=state.campaign or state.id,
                                    specs=[])
                job = Job(id=state.id, campaign=campaign, fmt=state.fmt,
                          source=state.source, status="failed",
                          error=f"unrecoverable from journal: {exc}",
                          recovered=True)
                job.done_event.set()
                self.jobs[job.id] = job
                self._order.append(job.id)
                self.journal.job_done(job.id, "failed", 0, 0, job.error)
                continue
            job = Job(id=state.id, campaign=campaign, fmt=state.fmt,
                      source=state.source, recovered=True,
                      already_landed=frozenset(state.landed))
            suffix = "csv" if state.fmt == "csv" else "jsonl"
            job.results_path = self.results_dir / f"{state.id}.{suffix}"
            self.jobs[job.id] = job
            self._order.append(job.id)
            if state.finished:
                job.status = state.status
                job.executed = state.executed
                job.cache_hits = state.cache_hits
                job.error = state.error
                job.done_event.set()
                continue
            job.status = "queued"
            with self._lock:
                self._queued += 1
            recovered.append(job)
            self._queue.put(job)
        if recovered:
            log.info("[serve] resumed %d unfinished job(s) from %s: %s",
                     len(recovered), self.journal.path,
                     ", ".join(j.id for j in recovered))
        return recovered

    def _run_jobs(self) -> None:
        while not self._stop.is_set():
            if self._draining.is_set():
                return
            try:
                job = self._queue.get(timeout=0.2)
            except Empty:
                continue
            if job is None:
                if self._draining.is_set() or self._stop.is_set():
                    return
                continue
            if self._draining.is_set():
                return  # leave the job journaled for --resume-journal
            with self._lock:
                self._queued -= 1
            self._run_one(job)

    def _run_one(self, job: Job) -> None:
        job.status = "running"
        suffix = "csv" if job.fmt == "csv" else "jsonl"
        job.results_path = self.results_dir / f"{job.id}.{suffix}"
        publisher = SamplePublisher(job.results_path, fmt=job.fmt, sync=True)
        digests = [spec.digest() for spec in job.campaign.specs]
        publisher.expect(digests)
        journal = self.journal
        if journal is not None:
            journal.job_started(job.id)
            cache = self.engine.cache
            pending = (cache.missing(digests) if cache is not None
                       else list(dict.fromkeys(digests)))
            journal.spec_dispatched(job.id, pending)
        landed: set = set(job.already_landed)

        def observe(digest: str, run) -> None:
            publisher(digest, run)
            if journal is not None and digest not in landed:
                landed.add(digest)
                journal.spec_landed(job.id, digest)

        before_exec = self.engine.stats.executed
        before_hits = (self.engine.stats.memo_hits
                       + self.engine.stats.disk_hits)
        self.engine.observers.append(observe)
        status = "failed"
        try:
            self.engine.run_specs(job.campaign.specs)
            status = "done"
        except RunFailure as exc:
            job.error = str(exc)
            if journal is not None:
                journal.spec_failed(job.id, exc.spec.digest(),
                                    repr(exc.cause))
            log.warning("[serve] %s failed: %s", job.id, exc)
        except Exception as exc:  # the executor thread must survive
            job.error = repr(exc)
            log.warning("[serve] %s crashed: %r", job.id, exc)
        finally:
            self.engine.observers.remove(observe)
            publisher.close()
            job.executed = self.engine.stats.executed - before_exec
            job.cache_hits = (self.engine.stats.memo_hits
                              + self.engine.stats.disk_hits - before_hits)
            # last: a reader that sees the job finished sees its counters
            job.status = status
            if journal is not None:
                journal.job_done(job.id, job.status, job.executed,
                                 job.cache_hits, job.error)
            job.done_event.set()

    # ------------------------------------------------------------------ #
    # HTTP handlers
    # ------------------------------------------------------------------ #
    def _handle_post(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(request.path)
        if parsed.path != "/campaigns":
            _send_json(request, 404, {"error": f"no such endpoint "
                                               f"{parsed.path!r}"})
            return
        fmt = parse_qs(parsed.query).get("format", ["jsonl"])[0]
        if fmt not in PUBLISH_FORMATS:
            _send_json(request, 400, {
                "error": f"unknown format {fmt!r}; choose from "
                         f"{', '.join(PUBLISH_FORMATS)}"})
            return
        length = int(request.headers.get("Content-Length", 0))
        body = request.rfile.read(length).decode("utf-8", "replace")
        try:
            campaign = expand_campaign(body, source="<submitted>")
        except ConfigError as exc:
            _send_json(request, 400, {"error": str(exc)})
            return
        try:
            job = self.submit(campaign, fmt=fmt, source=body)
        except QueueFull as exc:
            _send_json(request, 429, {"error": str(exc),
                                      "retry_after": self.retry_after},
                       retry_after=self.retry_after)
            return
        except ServiceDraining as exc:
            _send_json(request, 503, {"error": str(exc),
                                      "retry_after": self.retry_after},
                       retry_after=self.retry_after)
            return
        _send_json(request, 202, {
            "job": job.id,
            "campaign": campaign.name,
            "specs": len(campaign.specs),
            "digests": campaign.digests(),
            "results": f"/jobs/{job.id}/results",
        })

    def _handle_get(self, request: BaseHTTPRequestHandler) -> None:
        path = urlparse(request.path).path
        if path == "/healthz":
            _send_text(request, 200, "ok\n")
            return
        if path == "/status":
            with self._lock:
                jobs = [self.jobs[jid].to_dict() for jid in self._order]
                queued = self._queued
            status = {
                "queue_depth": queued,
                "max_queue": self.max_queue,
                "draining": self.draining,
                "journal": (str(self.journal.path)
                            if self.journal is not None else None),
                "jobs": jobs,
                "engine": self.engine.summary(),
                "backend": self.engine.backend_name,
            }
            backend = self.engine.backend
            if backend is not None and hasattr(backend, "health_snapshot"):
                status["workers"] = backend.health_snapshot()
            _send_json(request, 200, status)
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                _send_json(request, 404, {"error": f"no such job "
                                                   f"{parts[1]!r}"})
                return
            if len(parts) == 2:
                _send_json(request, 200, job.to_dict())
                return
            if len(parts) == 3 and parts[2] == "results":
                if job.results_path is None or not job.results_path.exists():
                    _send_json(request, 409, {
                        "error": f"{job.id} has no results yet "
                                 f"(status: {job.status})"})
                    return
                content_type = ("text/csv" if job.fmt == "csv"
                                else "application/x-ndjson")
                _send_text(request, 200, job.results_path.read_text(),
                           content_type=content_type)
                return
        _send_json(request, 404, {"error": f"no such endpoint {path!r}"})


def _job_seq_of(job_id: str) -> Optional[int]:
    """The numeric suffix of a ``job-NNNN`` id (None when absent)."""
    _, _, tail = job_id.rpartition("-")
    try:
        return int(tail)
    except ValueError:
        return None


def _send_json(request: BaseHTTPRequestHandler, code: int, data,
               retry_after: Optional[float] = None) -> None:
    _send_text(request, code, json.dumps(data, sort_keys=True) + "\n",
               content_type="application/json", retry_after=retry_after)


def _send_text(request: BaseHTTPRequestHandler, code: int, text: str,
               content_type: str = "text/plain",
               retry_after: Optional[float] = None) -> None:
    payload = text.encode("utf-8")
    request.send_response(code)
    request.send_header("Content-Type", content_type)
    request.send_header("Content-Length", str(len(payload)))
    if retry_after is not None:
        request.send_header("Retry-After", str(int(max(1, retry_after))))
    request.end_headers()
    request.wfile.write(payload)


# ---------------------------------------------------------------------- #
# tiny stdlib client helpers (tests, CI smoke, scripts)
# ---------------------------------------------------------------------- #
def http_submit(base_url: str, campaign_yaml: str,
                fmt: str = "jsonl", timeout: float = 30.0) -> Dict:
    """POST a campaign; returns the decoded response (raises on non-2xx
    with the server's one-line error in the exception message)."""
    url = f"{base_url}/campaigns"
    if fmt != "jsonl":
        url += f"?format={fmt}"
    req = urllib.request.Request(
        url, data=campaign_yaml.encode("utf-8"),
        headers={"Content-Type": "application/yaml"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        try:
            detail = json.loads(detail).get("error", detail)
        except (ValueError, AttributeError):
            pass
        error = RuntimeError(f"submit failed ({exc.code}): {detail}")
        error.code = exc.code
        error.retry_after = exc.headers.get("Retry-After")
        raise error from None


def http_get_json(base_url: str, path: str, timeout: float = 30.0) -> Dict:
    with urllib.request.urlopen(f"{base_url}{path}",
                                timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def http_get_text(base_url: str, path: str, timeout: float = 30.0) -> str:
    with urllib.request.urlopen(f"{base_url}{path}",
                                timeout=timeout) as resp:
        return resp.read().decode("utf-8")
