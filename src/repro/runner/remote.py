"""Remote execution: socket-protocol workers sharing the result cache.

A **worker** (``repro-sim worker --port P --cache-dir D``) is a small
TCP server wrapping :func:`repro.runner.engine.execute_spec`.  It speaks
a length-prefixed pickle frame protocol, checks its digest-keyed
:class:`~repro.runner.cache.ResultCache` before simulating, and stores
fresh results back — so any number of workers pointed at one shared
cache directory (NFS, a shared volume) collectively behave like one
warm cache.

The :class:`RemoteBackend` runs a batch under the process-pool
backend's dispatch loop, as that loop's executor: it leases each spec
to a worker its breaker admits, so deadlines, retries and every ledger
hook behave as for the pool.  A leased worker must produce a frame — a
``{"heartbeat": true}`` while it simulates, or the result — within
``lease_timeout`` seconds, or the lease breaks and the spec is charged
and re-dispatched: heartbeats tell *slow-but-alive* (only the engine's
``timeout`` expires it) from *dead or hung*.  A worker that breaks a
lease or drops its connection trips a per-worker **circuit breaker**:
it is quarantined for an exponentially growing backoff, then probed
half-open with a ``ping`` before readmission; ``max_strikes``
consecutive failures retire it for the rest of the batch.  The batch
fails only when a spec exhausts its retry budget or every worker has
been retired.

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

import contextlib
import logging
import os
import pickle
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.backends import _POLL_INTERVAL, ProcessPoolBackend
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
                        self._count("heartbeats")
                    except (ConnectionError, OSError):
                        beating = False  # client gone; finish for the cache
            return box.get("reply", {"ok": False, "kind": "error",
                                     "error": "worker run thread died"})
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _count(self, key: str) -> None:
        with self._stats_lock:
            self.stats[key] += 1

    def _serve_run(self, request: Dict) -> Dict:
        self._count("requests")
        try:
            spec = RunSpec.from_dict(request["spec"])
        except Exception as exc:
            self._count("errors")
            return {"ok": False, "kind": "error",
                    "error": f"undecodable spec: {exc!r}"}
        digest = spec.digest()
        if self.cache is not None:
            try:
                run = self.cache.load(digest)
            except CacheCorruption:
                run = None
            if run is not None:
                self._count("cache_hits")
                return {"ok": True, "run": run, "cached": True}
        try:
            run = self.execute_fn(spec)
        except Exception as exc:
            from repro.runner.outcome import classify_failure
            self._count("errors")
            return {"ok": False, "kind": classify_failure(exc),
                    "error": repr(exc)}
        self._count("executed")
        if self.cache is not None:
            self.cache.store(digest, run, spec.to_dict())
        return {"ok": True, "run": run, "cached": False}


# ---------------------------------------------------------------------- #
# the coordinator (client) side
# ---------------------------------------------------------------------- #
class WorkerClient:
    """One persistent connection to a worker.

    Every request is bounded: control ops (ping/stats/shutdown) by
    ``default_timeout``, a ``run`` by its lease (see :meth:`run_spec`)
    — a worker can hang without ever hanging the coordinator.
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
        """Send one frame, return the first non-heartbeat reply within
        ``timeout`` seconds (default ``default_timeout``)."""
        return self._exchange(payload, self.default_timeout
                              if timeout is None else timeout)

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

        - ``timeout`` is the *overall* wall-clock budget for the run;
          exceeding it raises ``TimeoutError`` even while heartbeats
          keep arriving.
        - ``lease_timeout`` bounds the silence between frames; a worker
          producing neither a heartbeat nor a result within it raises
          :class:`LeaseExpired` (hung or silently dead).
        - a dropped connection (including mid-result-frame) raises
          :class:`WorkerDied`; a spec failure *inside* a healthy worker
          raises :class:`RemoteRunError`.
        """
        reply = self._exchange({"op": "run", "spec": spec.to_dict()},
                               timeout, lease_timeout, on_heartbeat)
        if not reply.get("ok"):
            raise RemoteRunError(reply.get("kind", "error"),
                                 reply.get("error", "unknown remote error"))
        return reply["run"]

    def _exchange(self, payload: Dict, timeout: Optional[float],
                  lease_timeout: Optional[float] = None,
                  on_heartbeat: Optional[Callable[[], None]] = None) -> Dict:
        deadline = None if timeout is None else time.monotonic() + timeout
        self._sock.settimeout(lease_timeout or timeout)
        try:
            self._send(payload)
            while True:
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError(
                            f"exceeded {timeout}s budget on {self.address}")
                    self._sock.settimeout(min(left, lease_timeout or left))
                try:
                    reply = self._recv()
                except socket.timeout:
                    if lease_timeout is not None and (
                            deadline is None or time.monotonic() < deadline):
                        raise LeaseExpired(self.address,
                                           lease_timeout) from None
                    continue  # the budget ran out: raised above
                if not (isinstance(reply, dict) and reply.get("heartbeat")):
                    return reply
                if on_heartbeat is not None:
                    on_heartbeat()
        finally:
            with contextlib.suppress(OSError):  # the socket may be closed
                self._sock.settimeout(None)

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
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked reader
        self._sock.close()


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
    completed: int = 0          # specs this worker landed
    lease_breaks: int = 0       # leases that expired on this worker
    deaths: int = 0             # connection failures / dead mid-run
    heartbeats: int = 0         # heartbeat frames received
    quarantines: int = 0        # times the breaker tripped
    probes: int = 0             # half-open readmission probes sent
    consecutive_failures: int = 0
    current: Optional[str] = None   # digest currently leased, if any
    backoff_until: float = 0.0  # monotonic instant quarantine ends

    def snapshot(self) -> Dict[str, object]:
        """Every field but the breaker's clock."""
        snap = asdict(self)
        del snap["backoff_until"]
        return snap


class _Lease(Future):
    """A spec on one worker.  It stays pending while the worker runs it,
    so the loop's deadline can cancel it, which frees the worker."""

    def __init__(self, backend: "RemoteBackend", health: WorkerHealth):
        super().__init__()
        self.backend, self.health = backend, health

    def cancel(self) -> bool:
        with self.backend._changed:
            if not super().cancel():
                return False
            self.backend._release(self.health, drop=True)
        return True


class RemoteBackend(ProcessPoolBackend):
    """Execute specs on ``repro-sim worker`` processes over sockets.

    The executor of the pool loop: :meth:`submit` leases a spec to an
    idle worker the breaker admits, so one spec runs per live worker
    whatever the engine's ``jobs``, and faster workers take more.

    Args:
        workers: worker addresses (``host:port``).
        connect_timeout: seconds to wait for a worker to accept.
        lease_timeout: max silence (no heartbeat, no result) before a
            leased spec is reclaimed; keep it a few multiples of the
            workers' ``heartbeat_interval``.
        breaker_base / breaker_cap: quarantine backoff after the n-th
            consecutive failure is ``min(cap, base * 2**(n-1))``
            seconds, followed by a half-open ``ping`` probe.
        max_strikes: consecutive failures (lease breaks, deaths, failed
            connects and probes) that retire a worker for the batch.
    """

    name = "remote"

    def __init__(self, workers: Sequence[str],
                 connect_timeout: float = 10.0,
                 lease_timeout: float = 10.0,
                 breaker_base: float = 0.25,
                 breaker_cap: float = 8.0,
                 max_strikes: int = 4) -> None:
        super().__init__()
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
        self._changed = threading.Condition()  # guards the state below
        #: address -> open connection (None while one is being opened)
        self._clients: Dict[str, Optional[WorkerClient]] = {}
        self._leases: Dict[str, _Lease] = {}   # address -> its running spec

    def health_snapshot(self) -> List[Dict[str, object]]:
        """Per-worker breaker state + telemetry (service ``/status``)."""
        with self._changed:
            return [self.health[address].snapshot()
                    for address in self.addresses]

    def close(self) -> None:
        """Free every worker and close its connection."""
        with self._changed:
            for lease in list(self._leases.values()):
                lease.cancel()
            for address in [a for a, c in self._clients.items() if c]:
                self._clients.pop(address).close()

    def _open(self, max_workers: int) -> "RemoteBackend":
        """Fresh connections each batch; a retired worker is probed again."""
        self.close()  # a worker that died idle then costs no spec
        with self._changed:
            for health in self.health.values():
                if health.state == RETIRED:
                    health.state, health.backoff_until = QUARANTINED, 0.0
        return self

    def _width(self, policy, max_workers: int) -> int:
        """One spec per connected worker; connects those admitted."""
        with self._changed:
            for health in self.health.values():
                probe = (health.state == QUARANTINED
                         and time.monotonic() >= health.backoff_until)
                if probe or (health.state == HEALTHY
                             and health.address not in self._clients):
                    self._clients[health.address] = None  # connecting
                    if probe:
                        health.state = HALF_OPEN
                        health.probes += 1
                    threading.Thread(target=self._connect, daemon=True,
                                     args=(health, probe)).start()
            return sum(client is not None
                       for client in self._clients.values())

    def _stalled(self) -> Optional[BaseException]:
        """All workers retired ends the batch; else wait to connect one."""
        with self._changed:
            if all(h.state == RETIRED for h in self.health.values()):
                return ConnectionError(
                    f"no live workers left (of {len(self.addresses)})")
            if not any(self._clients.values()):
                self._changed.wait(_POLL_INTERVAL)  # for a connection
        return None

    def submit(self, fn, spec: RunSpec) -> Future:
        """Lease ``spec`` to an idle connected worker (``fn`` goes
        unused: a worker runs its own ``execute_spec``)."""
        with self._changed:
            address, client = next((a, c) for a, c in self._clients.items()
                                   if c and a not in self._leases)
            health = self.health[address]
            lease = self._leases[address] = _Lease(self, health)
            health.current = spec.digest()
        threading.Thread(target=self._run, daemon=True,
                         args=(lease, client, spec)).start()
        return lease

    def _run(self, lease: _Lease, client: WorkerClient,
             spec: RunSpec) -> None:
        """Run one lease to its end; settle its worker with the breaker."""
        health = lease.health

        def on_heartbeat() -> None:
            health.heartbeats += 1

        try:
            result = client.run_spec(spec, lease_timeout=self.lease_timeout,
                                     on_heartbeat=on_heartbeat)
        except Exception as exc:
            result = exc
        # a RemoteRunError means the worker answered: the spec is sick
        failed = (isinstance(result, Exception)
                  and not isinstance(result, RemoteRunError))
        with self._changed:
            if lease.cancelled():
                return  # over budget: the loop charged it, freed the worker
            self._release(health, drop=failed)
            if failed:
                if isinstance(result, LeaseExpired):
                    health.lease_breaks += 1
                else:
                    health.deaths += 1
                self._trip(health, f"lost {spec.describe()}: {result!r}")
            else:
                health.consecutive_failures = 0
            if isinstance(result, Exception):
                lease.set_exception(result)
            else:
                health.completed += 1
                lease.set_result(result)

    def _release(self, health: WorkerHealth, drop: bool) -> None:
        """Free a leased worker (lock held); ``drop`` also disconnects."""
        del self._leases[health.address]
        health.current = None
        if drop:
            self._clients.pop(health.address).close()

    def _connect(self, health: WorkerHealth, probe: bool) -> None:
        """Connect a worker; a half-open one must answer a ping too."""
        client = None
        try:
            client = WorkerClient(health.address,
                                  connect_timeout=self.connect_timeout)
            if probe:
                client.ping(timeout=min(5.0, self.lease_timeout))
        except OSError as exc:
            if client is not None:
                client.close()
            client, why = None, f"{'probe' if probe else 'connect'}: {exc!r}"
        with self._changed:
            if client is None:
                del self._clients[health.address]
                self._trip(health, why)
            else:
                self._clients[health.address] = client
                health.state = HEALTHY
            self._changed.notify_all()

    def _trip(self, health: WorkerHealth, why: str) -> None:
        """One strike (caller holds the lock): quarantine, or retire."""
        health.consecutive_failures += 1
        strikes = health.consecutive_failures
        if strikes >= self.max_strikes:
            health.state = RETIRED
        else:
            health.state = QUARANTINED
            health.quarantines += 1
            health.backoff_until = time.monotonic() + min(
                self.breaker_cap, self.breaker_base * 2 ** (strikes - 1))
        log.warning("[remote] worker %s %s after strike %d/%d (%s)",
                    health.address, health.state, strikes, self.max_strikes,
                    why)
