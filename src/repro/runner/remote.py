"""Remote execution: socket-protocol workers sharing the result cache.

A **worker** (``repro-sim worker --port P --cache-dir D``) is a small
TCP server wrapping :func:`repro.runner.engine.execute_spec`.  It speaks
a length-prefixed pickle frame protocol, checks its digest-keyed
:class:`~repro.runner.cache.ResultCache` before simulating, and stores
fresh results back — so any number of workers pointed at one shared
cache directory (NFS, a shared volume) collectively behave like one
warm cache.

The :class:`RemoteBackend` is the matching
:class:`~repro.runner.backends.ExecutionBackend`: it fans a batch of
specs over a fixed set of worker addresses (one dispatch thread per
worker pulling from the batch's shared queue) and reports every landing
and failed attempt to the batch's
:class:`~repro.runner.backends.RetryLedger`, like every backend.

**Leases and heartbeats** make the backend self-healing.  Every
dispatched spec holds a *lease*: the worker must produce a frame — a
periodic ``{"heartbeat": true}`` while it simulates, or the final
result — within ``lease_timeout`` seconds, or the backend reclaims the
spec and re-dispatches it to a healthy worker.  Heartbeats distinguish
*slow-but-alive* (lease keeps extending; only the engine's overall
``timeout`` budget can expire it) from *dead or hung* (silence; lease
breaks).  A worker that breaks leases or drops connections trips a
per-worker **circuit breaker**: it is quarantined for an exponentially
growing backoff, then probed half-open with a cheap no-op (``ping``)
before readmission; ``max_strikes`` consecutive failures retire it for
the rest of the batch.  The batch fails only when a spec exhausts its
retry budget or every worker has been retired.

Specs travel as their JSON-safe ``to_dict()`` form (version-checked by
``RunSpec.from_dict``); results travel as pickled
:class:`~repro.runner.engine.BenchmarkRun` payloads, exactly what a
process-pool worker would have returned.  Simulations are deterministic
pure functions of their spec, so remote results are byte-identical to
inline ones.

The protocol is trusted-network plumbing (pickle over TCP, no
authentication) — bind workers to loopback or a private interconnect,
never a public interface.
"""

from __future__ import annotations

import logging
import os
import pickle
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.backends import ExecutionBackend
from repro.runner.cache import CacheCorruption, ResultCache
from repro.runner.spec import RunSpec

__all__ = ["PROTOCOL_VERSION", "LeaseExpired", "RemoteBackend",
           "RemoteRunError", "WorkerClient", "WorkerDied", "WorkerHealth",
           "WorkerServer", "parse_address"]

log = logging.getLogger("repro.runner")

#: bump when the frame or request/response layout changes
PROTOCOL_VERSION = 2

_HEADER = struct.Struct(">I")
#: refuse frames beyond this size (corrupt header / wrong peer)
_MAX_FRAME = 256 * 1024 * 1024

#: how often idle dispatch threads re-check for reclaimed work (seconds)
_POLL = 0.05


class RemoteRunError(RuntimeError):
    """A spec failed *inside* a worker (the worker itself is healthy).

    ``kind`` carries the worker-side classification from
    :func:`repro.runner.outcome.classify_failure` so campaign outcome
    taxonomy survives the wire even though the original exception
    object does not.
    """

    def __init__(self, kind: str, error: str) -> None:
        super().__init__(f"remote {kind}: {error}")
        self.kind = kind
        self.error = error


class WorkerDied(ConnectionError):
    """The worker's connection failed mid-request (process died, was
    killed, or vanished from the network) — distinguishable from a
    worker-side spec failure (:class:`RemoteRunError`) and from a bare
    ``EOFError``/unpickling crash on a truncated result frame."""

    def __init__(self, address: str, detail: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(f"worker {address} died: {detail}")
        self.address = address
        self.detail = detail
        self.cause = cause


class LeaseExpired(WorkerDied):
    """No frame (heartbeat or result) within the lease window: the
    worker is hung or silently dead, and its spec has been reclaimed."""

    def __init__(self, address: str, lease_timeout: float) -> None:
        super().__init__(address, f"no heartbeat within the "
                                  f"{lease_timeout:g}s lease window")
        self.lease_timeout = lease_timeout


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` (or ``":port"`` / bare port) -> ``(host, port)``."""
    text = address.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad worker address {address!r}; "
                         f"expected host:port") from None
    if not 0 < port < 65536:
        raise ValueError(f"bad worker port in {address!r}")
    return host, port


# ---------------------------------------------------------------------- #
# frame protocol
# ---------------------------------------------------------------------- #
def send_frame(sock: socket.socket, payload: Dict) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """One frame, or ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise ConnectionError(f"oversized frame ({length} bytes); "
                              f"wrong peer or corrupt stream")
    data = _recv_exact(sock, length, eof_ok=False)
    return pickle.loads(data)


def _recv_exact(sock: socket.socket, n: int, *,
                eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------- #
# the worker (server) side
# ---------------------------------------------------------------------- #
class WorkerServer:
    """A ``repro-sim worker``: executes specs shipped over TCP.

    While a spec simulates, the worker emits a ``{"heartbeat": true}``
    frame every ``heartbeat_interval`` seconds so the coordinator's
    lease keeps extending for slow-but-alive runs (``0`` disables
    heartbeats — the run executes synchronously and a long spec will
    look identical to a hang).

    Args:
        host / port: bind address (``port=0`` picks a free port;
            read it back from :attr:`address`).
        cache_dir: digest-keyed result cache shared with other workers
            and coordinators; ``None`` executes every request.
        execute_fn: spec runner, overridable for tests.
        heartbeat_interval: seconds between heartbeat frames during a
            run (default 1.0).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir: Optional[str] = None,
                 execute_fn: Optional[Callable] = None,
                 heartbeat_interval: float = 1.0) -> None:
        from repro.runner.engine import execute_spec
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.execute_fn = execute_fn or execute_spec
        self.heartbeat_interval = heartbeat_interval
        self.stats = {"requests": 0, "executed": 0, "cache_hits": 0,
                      "errors": 0, "heartbeats": 0}
        self._stats_lock = threading.Lock()
        self._draining = threading.Event()
        self._inflight = 0
        self._idle = threading.Condition()
        worker = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # one connection, many requests
                while True:
                    try:
                        request = recv_frame(self.request)
                    except (ConnectionError, OSError, pickle.PickleError,
                            EOFError):
                        return
                    if request is None:
                        return
                    try:
                        reply, action = worker._handle_request(request,
                                                               self.request)
                    except Exception as exc:  # never kill the worker
                        reply, action = {"ok": False, "kind": "error",
                                         "error": repr(exc)}, "keep"
                    try:
                        send_frame(self.request, reply)
                    except (ConnectionError, OSError):
                        return  # client vanished; the cache kept the result
                    if action == "shutdown":
                        threading.Thread(target=worker.shutdown,
                                         daemon=True).start()
                        return
                    if action == "close" or worker._draining.is_set():
                        return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop at once (the classic ``shutdown`` op / test teardown)."""
        self._server.shutdown()
        self._server.server_close()

    # graceful drain (SIGINT/SIGTERM on ``repro-sim worker``) ---------- #
    def begin_drain(self) -> None:
        """Stop admitting work; safe to call from a signal handler.

        New ``run`` requests are refused with ``kind="draining"``, the
        accept loop stops (``serve_forever`` returns), and the spec
        currently simulating is left to finish and commit to the cache
        — :meth:`wait_drained` picks up from there.
        """
        self._draining.set()
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def wait_drained(self, grace: Optional[float] = None) -> bool:
        """Block until in-flight requests finish, then close the socket.

        Returns ``True`` when the worker drained cleanly within
        ``grace`` seconds (``None`` waits forever).
        """
        with self._idle:
            drained = self._idle.wait_for(lambda: self._inflight == 0,
                                          timeout=grace)
        self._server.server_close()
        return drained

    # ------------------------------------------------------------------ #
    def _handle_request(self, request: Dict,
                        sock: socket.socket) -> Tuple[Dict, str]:
        """One request -> ``(reply, action)`` with action in
        ``keep`` / ``close`` / ``shutdown``."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "role": "repro-sim-worker",
                    "protocol": PROTOCOL_VERSION, "pid": os.getpid(),
                    "draining": self._draining.is_set()}, "keep"
        if op == "stats":
            with self._stats_lock:
                return {"ok": True, "stats": dict(self.stats)}, "keep"
        if op == "shutdown":
            return {"ok": True}, "shutdown"
        if op == "run":
            if self._draining.is_set():
                return {"ok": False, "kind": "draining",
                        "error": "worker is draining and admits no new "
                                 "specs"}, "close"
            return self._run_with_heartbeats(request, sock), "keep"
        return {"ok": False, "kind": "error",
                "error": f"unknown op {op!r}"}, "keep"

    def _run_with_heartbeats(self, request: Dict,
                             sock: socket.socket) -> Dict:
        """Execute a run while streaming heartbeats on its connection.

        The run executes on a helper thread; this (handler) thread owns
        the socket and emits one heartbeat frame per interval until the
        result is ready.  If a heartbeat send fails the client is gone
        — the run still finishes so its result lands in the shared
        cache for whoever re-dispatches the spec.
        """
        with self._idle:
            self._inflight += 1
        try:
            if not self.heartbeat_interval or self.heartbeat_interval <= 0:
                return self._serve_run(request)
            box: Dict[str, Dict] = {}

            def work() -> None:
                box["reply"] = self._serve_run(request)

            thread = threading.Thread(target=work, name="worker-run",
                                      daemon=True)
            thread.start()
            beating = True
            while True:
                thread.join(self.heartbeat_interval if beating else None)
                if not thread.is_alive():
                    break
                if beating:
                    try:
                        send_frame(sock, {"heartbeat": True})
                        with self._stats_lock:
                            self.stats["heartbeats"] += 1
                    except (ConnectionError, OSError):
                        beating = False  # client gone; finish for the cache
            return box.get("reply", {"ok": False, "kind": "error",
                                     "error": "worker run thread died"})
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _serve_run(self, request: Dict) -> Dict:
        with self._stats_lock:
            self.stats["requests"] += 1
        try:
            spec = RunSpec.from_dict(request["spec"])
        except Exception as exc:
            with self._stats_lock:
                self.stats["errors"] += 1
            return {"ok": False, "kind": "error",
                    "error": f"undecodable spec: {exc!r}"}
        digest = spec.digest()
        if self.cache is not None:
            try:
                run = self.cache.load(digest)
            except CacheCorruption:
                run = None
            if run is not None:
                with self._stats_lock:
                    self.stats["cache_hits"] += 1
                return {"ok": True, "run": run, "cached": True}
        try:
            run = self.execute_fn(spec)
        except Exception as exc:
            from repro.runner.outcome import classify_failure
            with self._stats_lock:
                self.stats["errors"] += 1
            return {"ok": False, "kind": classify_failure(exc),
                    "error": repr(exc)}
        with self._stats_lock:
            self.stats["executed"] += 1
        if self.cache is not None:
            self.cache.store(digest, run, spec.to_dict())
        return {"ok": True, "run": run, "cached": False}


# ---------------------------------------------------------------------- #
# the coordinator (client) side
# ---------------------------------------------------------------------- #
class WorkerClient:
    """One persistent connection to a worker.

    Every request carries a socket timeout: ``default_timeout`` for the
    control ops (ping/stats/shutdown), and a per-frame lease window for
    ``run`` (see :meth:`run_spec`) — a worker can hang without ever
    hanging the coordinator.
    """

    def __init__(self, address: str, connect_timeout: float = 10.0,
                 default_timeout: float = 30.0) -> None:
        self.address = address
        self.default_timeout = default_timeout
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout)
        self._sock.settimeout(None)

    def request(self, payload: Dict,
                timeout: Optional[float] = None) -> Dict:
        """Send one frame, return the first non-heartbeat reply.

        ``timeout`` bounds each frame (defaults to ``default_timeout``);
        a connection failure mid-request raises :class:`WorkerDied`
        rather than a bare ``EOFError``/``ConnectionError``/unpickling
        crash.
        """
        if timeout is None:
            timeout = self.default_timeout
        self._sock.settimeout(timeout)
        try:
            self._send(payload)
            while True:
                reply = self._recv()
                if not (isinstance(reply, dict) and reply.get("heartbeat")):
                    return reply
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - socket already dead
                pass

    def ping(self, timeout: float = 10.0) -> Dict:
        return self.request({"op": "ping"}, timeout=timeout)

    def stats(self) -> Dict:
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        try:
            self.request({"op": "shutdown"})
        finally:
            self.close()

    def run_spec(self, spec: RunSpec, timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None,
                 on_heartbeat: Optional[Callable[[], None]] = None) -> object:
        """Execute ``spec`` remotely under a heartbeat-extended lease.

        - ``timeout`` is the *overall* wall-clock budget for the run
          (the engine's per-spec budget); exceeding it raises
          ``TimeoutError`` even while heartbeats keep arriving.
        - ``lease_timeout`` bounds the silence between frames; a worker
          producing neither a heartbeat nor a result within it raises
          :class:`LeaseExpired` (hung or silently dead).
        - a dropped connection (including mid-result-frame) raises
          :class:`WorkerDied`; a spec failure *inside* a healthy worker
          raises :class:`RemoteRunError`.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        self._sock.settimeout(lease_timeout if lease_timeout is not None
                              else timeout)
        try:
            self._send({"op": "run", "spec": spec.to_dict()})
            while True:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"exceeded {timeout}s budget on {self.address}")
                    if lease_timeout is not None:
                        self._sock.settimeout(min(lease_timeout, remaining))
                    else:
                        self._sock.settimeout(remaining)
                try:
                    reply = self._recv()
                except socket.timeout:
                    if (deadline is not None
                            and time.monotonic() >= deadline):
                        raise TimeoutError(
                            f"exceeded {timeout}s budget on "
                            f"{self.address}") from None
                    raise LeaseExpired(
                        self.address,
                        lease_timeout if lease_timeout is not None
                        else timeout or 0.0) from None
                if isinstance(reply, dict) and reply.get("heartbeat"):
                    if on_heartbeat is not None:
                        on_heartbeat()
                    continue
                break
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - socket already dead
                pass
        if not reply.get("ok"):
            raise RemoteRunError(reply.get("kind", "error"),
                                 reply.get("error", "unknown remote error"))
        return reply["run"]

    # low-level frame IO with WorkerDied wrapping ---------------------- #
    def _send(self, payload: Dict) -> None:
        try:
            send_frame(self._sock, payload)
        except (ConnectionError, OSError) as exc:
            if isinstance(exc, socket.timeout):
                raise
            raise WorkerDied(self.address, f"send failed: {exc!r}",
                             exc) from exc

    def _recv(self) -> Dict:
        try:
            reply = recv_frame(self._sock)
        except socket.timeout:
            raise
        except (ConnectionError, OSError, EOFError,
                pickle.PickleError) as exc:
            # includes a worker dying mid-result-frame: a truncated
            # stream surfaces as WorkerDied, never an unpickling crash
            raise WorkerDied(self.address, f"receive failed: {exc!r}",
                             exc) from exc
        if reply is None:
            raise WorkerDied(self.address, "closed the connection")
        return reply

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# per-worker health: the circuit breaker state machine
# ---------------------------------------------------------------------- #
#: breaker states
HEALTHY, QUARANTINED, HALF_OPEN, RETIRED = ("healthy", "quarantined",
                                            "half-open", "retired")


@dataclass
class WorkerHealth:
    """One worker's breaker state and telemetry (see ``/status``)."""

    address: str
    state: str = HEALTHY
    consecutive_failures: int = 0
    lease_breaks: int = 0       # leases that expired on this worker
    deaths: int = 0             # connection failures / dead mid-run
    completed: int = 0          # specs this worker landed
    heartbeats: int = 0         # heartbeat frames received
    probes: int = 0             # half-open readmission probes sent
    quarantines: int = 0        # times the breaker tripped
    backoff_until: float = 0.0  # monotonic instant quarantine ends
    current: Optional[str] = None   # digest currently leased, if any

    def snapshot(self) -> Dict[str, object]:
        return {
            "address": self.address,
            "state": self.state,
            "completed": self.completed,
            "lease_breaks": self.lease_breaks,
            "deaths": self.deaths,
            "heartbeats": self.heartbeats,
            "quarantines": self.quarantines,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "current": self.current,
        }


class RemoteBackend(ExecutionBackend):
    """Execute specs on ``repro-sim worker`` processes over sockets.

    Args:
        workers: worker addresses (``host:port``).  One dispatch thread
            per address pulls specs from a shared queue, so faster
            workers naturally take more of the batch.
        connect_timeout: seconds to wait for a worker to accept.
        lease_timeout: max silence (no heartbeat, no result) before a
            dispatched spec's lease breaks and it is reclaimed for
            re-dispatch.  Keep this a few multiples of the workers'
            ``heartbeat_interval``.
        breaker_base / breaker_cap: quarantine backoff after the n-th
            consecutive failure is ``min(cap, base * 2**(n-1))``
            seconds, followed by a half-open ``ping`` probe.
        max_strikes: consecutive failures (lease breaks, deaths,
            unreachable connects, failed probes) after which a worker
            is retired from the batch for good.
    """

    name = "remote"

    def __init__(self, workers: Sequence[str],
                 connect_timeout: float = 10.0,
                 lease_timeout: float = 10.0,
                 breaker_base: float = 0.25,
                 breaker_cap: float = 8.0,
                 max_strikes: int = 4) -> None:
        addresses = [w.strip() for w in workers if w and w.strip()]
        if not addresses:
            raise ValueError("remote backend needs at least one worker "
                             "address (host:port)")
        for address in addresses:
            parse_address(address)  # fail fast on typos
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        self.addresses = addresses
        self.connect_timeout = connect_timeout
        self.lease_timeout = lease_timeout
        self.breaker_base = breaker_base
        self.breaker_cap = breaker_cap
        self.max_strikes = max_strikes
        self.health: Dict[str, WorkerHealth] = {
            address: WorkerHealth(address) for address in addresses}

    def health_snapshot(self) -> List[Dict[str, object]]:
        """Per-worker breaker state + telemetry (service ``/status``)."""
        return [self.health[address].snapshot()
                for address in self.addresses]

    # ------------------------------------------------------------------ #
    def execute(self, ledger, *, tick=None):
        todo, queue = ledger.todo, ledger.queue
        lock = threading.Lock()
        abort: List[BaseException] = []  # raised by a ledger hook
        # the lease, not this overall budget, catches dead workers; the
        # budget only expires genuinely over-long runs
        timeout = ledger.engine.timeout
        io_timeout = timeout + 1.0 if timeout is not None else None

        def finished() -> bool:
            # caller holds `lock`
            return bool(abort) or len(ledger.settled) == len(todo)

        def report(method, digest: str, value) -> None:
            """Land or charge under the lock.  A hook that raises (the
            default ``fail`` does) stops the batch; the calling thread
            re-raises it once the dispatch threads are done."""
            with lock:
                try:
                    method(digest, value)
                except BaseException as exc:
                    abort.append(exc)

        def trip(health: WorkerHealth, why: str) -> None:
            """One strike: quarantine with exponential backoff, or retire."""
            health.consecutive_failures += 1
            health.current = None
            if health.consecutive_failures >= self.max_strikes:
                health.state = RETIRED
                log.warning("[remote] retiring worker %s after %d "
                            "consecutive failures (%s)", health.address,
                            health.consecutive_failures, why)
                return
            health.quarantines += 1
            backoff = min(self.breaker_cap,
                          self.breaker_base
                          * (2 ** (health.consecutive_failures - 1)))
            health.backoff_until = time.monotonic() + backoff
            health.state = QUARANTINED
            log.warning("[remote] quarantining worker %s for %.2gs (%s; "
                        "strike %d/%d)", health.address, backoff, why,
                        health.consecutive_failures, self.max_strikes)

        def probe(health: WorkerHealth) -> bool:
            """Half-open readmission: a cheap no-op must succeed."""
            health.state = HALF_OPEN
            health.probes += 1
            try:
                client = WorkerClient(health.address,
                                      connect_timeout=self.connect_timeout)
                try:
                    client.ping(timeout=min(5.0, self.lease_timeout))
                finally:
                    client.close()
            except (WorkerDied, OSError):
                return False
            health.state = HEALTHY
            return True

        def dispatch(address: str) -> None:
            health = self.health[address]
            client: Optional[WorkerClient] = None

            def drop_client() -> None:
                nonlocal client
                if client is not None:
                    client.close()
                    client = None

            def on_heartbeat() -> None:
                health.heartbeats += 1

            try:
                while True:
                    with lock:
                        if finished() or health.state == RETIRED:
                            return
                    if health.state in (QUARANTINED, HALF_OPEN):
                        if time.monotonic() < health.backoff_until:
                            time.sleep(_POLL)
                            continue
                        if not probe(health):
                            trip(health, "half-open probe failed")
                        continue
                    with lock:
                        if finished():
                            return
                        if not queue:
                            in_flight = len(todo) - len(ledger.settled)
                        else:
                            in_flight = 0
                            digest = queue.popleft()
                            health.current = digest
                    if in_flight:
                        # unresolved specs are leased elsewhere; linger in
                        # case a lease breaks and the spec is reclaimed
                        time.sleep(_POLL)
                        continue
                    if client is None:
                        try:
                            client = WorkerClient(
                                address, connect_timeout=self.connect_timeout)
                        except OSError as exc:
                            # unreachable: hand the spec back uncharged
                            # (the worker never saw it) and strike
                            with lock:
                                queue.appendleft(digest)
                            trip(health, f"unreachable: {exc}")
                            continue
                    try:
                        run = client.run_spec(
                            todo[digest], timeout=io_timeout,
                            lease_timeout=self.lease_timeout,
                            on_heartbeat=on_heartbeat)
                    except RemoteRunError as exc:
                        # the worker answered: it is healthy, the spec is
                        # not
                        health.current = None
                        health.consecutive_failures = 0
                        report(ledger.charge, digest, exc)
                    except LeaseExpired as exc:
                        health.lease_breaks += 1
                        log.warning("[remote] lease broken by %s on %s: %s",
                                    address, digest[:12], exc)
                        drop_client()
                        report(ledger.charge, digest, exc)
                        trip(health, "lease expired")
                    except WorkerDied as exc:
                        health.deaths += 1
                        log.warning("[remote] lost worker %s: %s",
                                    address, exc)
                        drop_client()
                        report(ledger.charge, digest, exc)
                        trip(health, "connection died")
                    except TimeoutError as exc:
                        # the spec blew its overall budget; the worker may
                        # still be grinding on it, so abandon this
                        # connection (no strike: heartbeats kept arriving)
                        health.current = None
                        drop_client()
                        report(ledger.charge, digest, exc)
                    except (OSError, pickle.PickleError, EOFError) as exc:
                        health.deaths += 1
                        log.warning("[remote] worker %s I/O error: %r",
                                    address, exc)
                        drop_client()
                        report(ledger.charge, digest, exc)
                        trip(health, f"I/O error: {exc!r}")
                    else:
                        health.current = None
                        health.completed += 1
                        health.consecutive_failures = 0
                        report(ledger.land, digest, run)
            finally:
                drop_client()

        threads = [threading.Thread(target=dispatch, args=(address,),
                                    name=f"remote-{address}", daemon=True)
                   for address in self.addresses]
        for thread in threads:
            thread.start()
        while any(t.is_alive() for t in threads):
            if tick is not None:
                tick()
            for thread in threads:
                thread.join(timeout=0.1)
        if tick is not None:
            tick()
        if abort:
            raise abort[0]
        owed = len(todo) - len(ledger.settled)
        if owed:
            # every worker was retired with work still owed
            ledger.abandon(ConnectionError(
                f"no live workers left (of {len(self.addresses)}) with "
                f"{owed} specs still owed"))
        return ledger.out
