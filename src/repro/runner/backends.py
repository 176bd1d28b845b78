"""Pluggable execution backends for the experiment engine.

The :class:`~repro.runner.engine.Engine` owns *what* to run (memo and
disk-cache misses) and the bookkeeping of results; a backend owns *how*
the remaining specs execute:

- :class:`InlineBackend` — in this process, one spec at a time (the
  classic ``jobs=1`` path);
- :class:`ProcessPoolBackend` — the runner's one dispatch loop, fanned
  over a :class:`~concurrent.futures.ProcessPoolExecutor` kept across
  batches, with per-run deadlines and the :class:`PoolPolicy` for
  worker deaths (the classic ``jobs>1`` path, and every supervised
  campaign);
- :class:`~repro.runner.remote.RemoteBackend` — the same loop over
  socket-protocol workers started with ``repro-sim worker``, sharing
  the digest-keyed result cache (lives in :mod:`repro.runner.remote`).

Every backend reports to one :class:`RetryLedger`, created once per
batch, so caching, retries, the campaign supervisor's outcome taxonomy
and manifests behave identically whichever backend executes:

``execute(ledger, *, tick=None)``

- ``ledger.land(digest, run)`` — a result arrived.  Backends report it
  the moment it lands (never batched at the end), so an abort later in
  the batch can never discard finished, cacheable work.
- ``ledger.charge(digest, exc)`` — an attempt failed; the ledger
  requeues the spec while ``engine.retries`` lasts.
- ``ledger.kill(digest, exc)`` — the spec's worker died while it ran
  alone in the pool.
- ``tick()`` — polled between scheduling steps so a supervising caller
  can checkpoint and raise on SIGINT/SIGTERM.

The ledger's ``land`` hook defaults to committing the run to the
engine's memo/disk cache; its ``fail`` hook, called once for a spec that
exhausts its budget, defaults to raising
:class:`~repro.runner.engine.RunFailure` (the engine's classic
fail-fast contract).  A collect-mode supervisor records an outcome
instead and the batch keeps going.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import random
import signal as _signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, List, Optional

log = logging.getLogger("repro.runner")

__all__ = [
    "BACKEND_NAMES", "ExecutionBackend", "InlineBackend", "PoolPolicy",
    "ProcessPoolBackend", "RetryLedger", "make_backend", "new_pool",
    "kill_workers", "drain_finished", "pool_worker_init",
]

#: the names ``make_backend`` (and the CLI ``--backend`` flag) accept
BACKEND_NAMES = ("auto", "inline", "process-pool", "remote")

#: how often the pool loop polls for signals and deadlines (seconds)
_POLL_INTERVAL = 0.1

#: how often a pool worker checks that its parent is still alive (seconds)
_PARENT_POLL = 0.5

LandFn = Callable[[str, object], None]
FailFn = Callable[[str, BaseException], None]
TickFn = Callable[[], None]


# ---------------------------------------------------------------------- #
# process-pool plumbing
# ---------------------------------------------------------------------- #
def pool_worker_init(parent: int) -> None:
    """Set up a pool worker: default signals, and exit with ``parent``.

    Workers fork from a process that may have the campaign supervisor's
    SIGINT/SIGTERM checkpoint handlers installed; inheriting those would
    make a worker swallow ``terminate()`` and survive
    :func:`kill_workers`, so the defaults go back.

    Workers also outlive batches (see :class:`ProcessPoolBackend`), so a
    SIGKILLed parent would orphan them, idle on the call queue for good.
    A daemon thread polls ``os.getppid()`` and exits the worker once
    ``parent`` is no longer its parent.
    """
    for signum in (_signal.SIGINT, _signal.SIGTERM):
        try:
            _signal.signal(signum, _signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     name="exit-with-parent", daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL)
    os._exit(1)


def new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A pool of workers forked from this process.

    The start method is pinned to fork whatever the platform default
    (forkserver from Python 3.14): :func:`pool_worker_init` watches for
    this process's pid as the worker's parent, and a fork server's
    children would see it missing at once and exit.
    """
    return ProcessPoolExecutor(max_workers=max_workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=pool_worker_init,
                               initargs=(os.getpid(),))


def kill_workers(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's workers, so shutdown() cannot hang on a stuck one.

    SIGKILL, not SIGTERM: a worker that inherited (or installed) a
    termination handler must still die.  Workers are killed *before*
    ``shutdown()``: the kill trips the executor's broken-pool detection
    (worker sentinels), whose cleanup path reaps everything.  Shutting
    down first parks the manager thread on a result that will never
    arrive, deadlocking interpreter exit.
    """
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _lost_a_worker(pool: ProcessPoolExecutor) -> bool:
    """True when the pool broke or one of its workers has exited.

    A worker's sentinel is ready as soon as it has exited, before the
    executor notices and marks the pool broken; reading it reaps nothing.
    """
    sentinels = [proc.sentinel for proc in pool._processes.values()]
    return bool(pool._broken) or bool(
        multiprocessing.connection.wait(sentinels, timeout=0))


def drain_finished(inflight: Dict[object, str],
                   deadlines: Dict[object, Optional[float]],
                   land: Callable[[str, object], None]) -> List[str]:
    """Split in-flight futures after a pool death: finished work lands.

    A ``BrokenProcessPool`` poisons every *pending* future, but futures
    that already completed successfully still hold their results —
    discarding them would blame (and possibly fail) a spec that
    actually succeeded.  ``land`` receives each finished
    ``(digest, result)``; the digests genuinely lost with the pool are
    returned.  Clears ``inflight``/``deadlines``.
    """
    lost: List[str] = []
    for future, digest in list(inflight.items()):
        if future.done() and future.exception() is None:
            land(digest, future.result())
        else:
            lost.append(digest)
    inflight.clear()
    deadlines.clear()
    return lost


# ---------------------------------------------------------------------- #
# pool-death policy and the retry ledger
# ---------------------------------------------------------------------- #
class PoolPolicy:
    """How the pool loop meets worker deaths, plus its health telemetry.

    A plain engine gets a fresh default policy per batch; a
    :class:`~repro.runner.supervisor.Supervisor` *is* a policy and hands
    itself to every batch it runs, so its telemetry spans campaigns.

    Args:
        jobs: the admission window's ceiling (the engine's ``jobs``).
        quarantine_threshold: worker kills after which a spec is given
            up on (>= 1).
        backoff_base / backoff_cap / backoff_jitter / seed: the pool
            rebuild delay is ``min(cap, base * 2**(deaths-1))`` scaled
            by ``1 + jitter * U(0, 1)`` from a :class:`random.Random`
            seeded with ``seed`` — deterministic for tests.
        halve_after: consecutive pool deaths before the admission
            window halves (concurrency shedding, in the spirit of Dice
            & Kogan's *Avoiding Scalability Collapse by Restricting
            Concurrency*).
        heal_after: consecutive clean landings before the window doubles
            back toward ``jobs``.
        sleep_fn: injected for tests (receives the backoff seconds).
    """

    def __init__(self, jobs: int, *, quarantine_threshold: int = 2,
                 backoff_base: float = 0.25, backoff_cap: float = 8.0,
                 backoff_jitter: float = 0.5, seed: int = 0,
                 halve_after: int = 2, heal_after: int = 8,
                 sleep_fn: Callable[[float], None] = time.sleep) -> None:
        if quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        self.quarantine_threshold = quarantine_threshold
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.halve_after = max(1, halve_after)
        self.heal_after = max(1, heal_after)
        self.sleep_fn = sleep_fn
        self._rng = random.Random(seed)
        self.ceiling = max(1, jobs)
        self.window = self.ceiling              # current admission window
        self.min_window = self.window           # lowest the window sank
        self.pool_deaths = 0                    # workers lost to crashes
        self.timeout_kills = 0                  # pools killed for hangs
        self.rebuilds = 0
        self.backoff_log: List[float] = []      # slept delays, in order
        self._consecutive_deaths = 0
        self._clean_streak = 0

    def pool_died(self) -> None:
        """Count a death; repeated ones halve the admission window."""
        self.pool_deaths += 1
        self._consecutive_deaths += 1
        self._clean_streak = 0
        if self._consecutive_deaths >= self.halve_after and self.window > 1:
            self.window = max(1, self.window // 2)
            self.min_window = min(self.min_window, self.window)
            log.warning("[pool] %d consecutive pool deaths: admission "
                        "window halved to %d", self._consecutive_deaths,
                        self.window)

    def landed(self) -> None:
        """A clean landing; a sustained streak doubles the window back."""
        self._consecutive_deaths = 0
        self._clean_streak += 1
        if self._clean_streak >= self.heal_after and self.window < self.ceiling:
            self.window = min(self.ceiling, self.window * 2)
            self._clean_streak = 0
            log.info("[pool] sustained health: admission window restored "
                     "to %d", self.window)

    def backoff(self) -> None:
        """Sleep before a rebuild: exponential in consecutive deaths."""
        exponent = min(max(0, self._consecutive_deaths - 1), 16)
        delay = min(self.backoff_cap, self.backoff_base * (2 ** exponent))
        delay *= 1.0 + self.backoff_jitter * self._rng.random()
        self.backoff_log.append(delay)
        self.sleep_fn(delay)


class RetryLedger:
    """One batch's attempts and kills: the runner's only retry ledger.

    Backends take work from :attr:`queue` and report every landing,
    failed attempt and worker kill here.  A failed spec is requeued
    while ``engine.retries`` lasts; a killed one may run again (alone)
    until it reaches ``policy.quarantine_threshold`` kills.  After that
    the ``fail`` hook settles it, exactly once.

    Args:
        todo: digest -> spec for the batch.
        engine: supplies ``retries``, ``stats`` and the default hooks.
        land: ``(digest, run)`` per landed result; defaults to the
            engine's memo/disk-cache commit.
        fail: ``(digest, exc)`` per exhausted spec; defaults to raising
            :class:`~repro.runner.engine.RunFailure`.
        policy: the :class:`PoolPolicy` for worker deaths; defaults to a
            fresh one sized to ``engine.jobs``.
    """

    def __init__(self, todo: Dict[str, object], engine, *,
                 land: Optional[LandFn] = None,
                 fail: Optional[FailFn] = None,
                 policy: Optional[PoolPolicy] = None) -> None:
        self.todo = todo
        self.engine = engine
        self.policy = policy if policy is not None else PoolPolicy(engine.jobs)
        self.queue: Deque[str] = deque(todo)    # digests awaiting a run
        self.attempts: Dict[str, int] = dict.fromkeys(todo, 0)  # failed
        self.kills: Dict[str, int] = dict.fromkeys(todo, 0)
        self.out: Dict[str, object] = {}        # landed runs
        self.settled: set = set()               # landed or given up on
        self._land = land if land is not None else engine._commit
        self._fail = fail if fail is not None else self._raise

    def land(self, digest: str, run) -> None:
        self._land(digest, run)
        self.out[digest] = run
        self.settled.add(digest)

    def charge(self, digest: str, exc: BaseException) -> None:
        """A failed attempt: requeue while the retry budget lasts."""
        self.attempts[digest] += 1
        if self.attempts[digest] > self.engine.retries:
            self._exhaust(digest, exc)
            return
        self.engine.stats.retries += 1
        log.warning("[retries] resubmitting %s (%s) attempt %d/%d with a "
                    "fresh %ss budget after %r", digest[:12],
                    self.todo[digest].describe(), self.attempts[digest] + 1,
                    self.engine.retries + 1, self.engine.timeout, exc)
        self.queue.append(digest)

    def kill(self, digest: str, exc: BaseException) -> bool:
        """The spec's worker died under it; True while it may run again."""
        self.kills[digest] += 1
        log.warning("[pool] %s killed its worker (%d/%d)", digest[:12],
                    self.kills[digest], self.policy.quarantine_threshold)
        if self.kills[digest] < self.policy.quarantine_threshold:
            return True
        self._exhaust(digest, exc)
        return False

    def abandon(self, exc: BaseException) -> None:
        """Give up on every spec not yet settled (no executor left)."""
        self.queue.clear()
        for digest in self.todo:
            if digest not in self.settled:
                self._exhaust(digest, exc)

    def _exhaust(self, digest: str, exc: BaseException) -> None:
        self.engine.stats.failures += 1
        self.settled.add(digest)
        self._fail(digest, exc)

    def _raise(self, digest: str, exc: BaseException) -> None:
        from repro.runner.engine import RunFailure
        raise RunFailure(self.todo[digest], exc) from exc


# ---------------------------------------------------------------------- #
# the backend interface
# ---------------------------------------------------------------------- #
class ExecutionBackend:
    """Executes a batch of cache-miss specs on behalf of an engine.

    Subclasses implement :meth:`execute`, reporting to the batch's
    :class:`RetryLedger` as documented in the module docstring.
    """

    #: stable identity, reported in ``Engine.summary()`` and manifests
    name = "abstract"

    def execute(self, ledger: RetryLedger, *,
                tick: Optional[TickFn] = None) -> Dict[str, object]:
        """Run every spec in ``ledger.todo``; return the landed runs.

        The returned dict maps digest -> result for the specs that
        landed; with the default ``fail`` hook the first exhausted spec
        raises :class:`~repro.runner.engine.RunFailure` instead.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (connections, pools).  Idempotent."""


class InlineBackend(ExecutionBackend):
    """Execute specs serially in the calling process.

    The per-run ``timeout`` cannot be enforced here (there is no worker
    to kill); the engine emits its one-time ``RuntimeWarning`` when a
    timeout is configured but a batch executes inline.
    """

    name = "inline"

    def execute(self, ledger, *, tick=None):
        execute_fn = ledger.engine._execute_fn
        while ledger.queue:
            if tick is not None:
                tick()
            digest = ledger.queue.popleft()
            try:
                run = execute_fn(ledger.todo[digest])
            except Exception as exc:
                ledger.charge(digest, exc)
            else:
                ledger.land(digest, run)
        return ledger.out


class ProcessPoolBackend(ExecutionBackend):
    """Fan specs over a process pool: the runner's one dispatch loop.

    The pool lives as long as the backend: the first batch that needs it
    forks ``jobs`` workers and every later batch reuses them.  It is
    killed (and forked again while work remains) after a worker death
    or a stuck-worker kill, and when a batch ends by an exception
    (``RunFailure``, ``CampaignInterrupted``, an aborting hook), so no
    spec still running crosses into the next batch.  A worker that died
    while the pool sat idle is noticed before the next batch submits
    anything, so it costs no spec an attempt.  :meth:`close` kills the
    pool, and workers exit by themselves when this process dies (see
    :func:`pool_worker_init`).

    Workers fork once, so state this process changes after the first
    batch (``kernel.set_backend``, environment variables) does not
    reach them; a new backend forks new workers.  A backend runs one
    batch at a time.

    Collection is ``wait()``-driven, so finished futures land the moment
    they complete — one slow or hung spec never head-of-line-blocks the
    others.  Each (re)submission gets its own wall-clock deadline
    measured from submission.  Worker deaths follow the ledger's
    :class:`PoolPolicy`:

    - a death with several specs in flight cannot name the killer, so
      the lost specs re-run alone, uncharged;
    - a death with one spec in flight is that spec's kill, and
      ``quarantine_threshold`` kills exhaust it (a supervised campaign
      reports it ``quarantined``);
    - every rebuild after a death backs off with seeded jitter, repeated
      deaths halve the admission window and clean landings heal it;
    - a worker stuck past its deadline costs its spec an attempt and the
      pool is killed; the innocent in-flight specs are requeued
      uncharged.

    :class:`~repro.runner.remote.RemoteBackend` runs under this loop
    too: it overrides :meth:`_open`, :meth:`_width` and :meth:`_stalled`.

    Args:
        jobs: worker processes; ``None`` uses the engine's ``jobs``.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Kill the workers; a later batch forks new ones."""
        if self._pool is not None:
            kill_workers(self._pool)
            self._pool = None

    def _open(self, max_workers: int):
        """The batch's executor (``submit(fn, spec)`` -> ``Future``); a
        worker that died idle is replaced first, unblamed."""
        if self._pool is not None and _lost_a_worker(self._pool):
            self.close()
        if self._pool is None:
            self._pool = new_pool(max_workers)
        return self._pool

    def _width(self, policy: PoolPolicy, max_workers: int) -> int:
        """How many specs may be in flight now."""
        return min(policy.window, max_workers)

    def _stalled(self) -> Optional[BaseException]:
        """Nothing admitted or in flight: wait, or say why it stays so."""
        return None

    def execute(self, ledger, *, tick=None):
        engine, policy, todo = ledger.engine, ledger.policy, ledger.todo
        max_workers = self.jobs or engine.jobs
        timeout = engine.timeout
        queue = ledger.queue
        solo: Deque[str] = deque()                # specs that must run alone
        alone = None                              # the future running alone
        inflight: Dict[object, str] = {}          # future -> digest
        deadlines: Dict[object, Optional[float]] = {}
        executor = self._open(max_workers)

        def submit(source: Deque[str]):
            digest = source.popleft()
            try:
                future = executor.submit(engine._execute_fn, todo[digest])
            except BrokenProcessPool:
                source.appendleft(digest)  # it never reached a worker
                raise
            inflight[future] = digest
            deadlines[future] = (time.monotonic() + timeout
                                 if timeout is not None else None)
            return future

        def land(digest: str, run) -> None:
            ledger.land(digest, run)
            policy.landed()

        def restart(backoff: bool) -> None:
            """Kill the pool; rebuild it (after a backoff) if work remains."""
            nonlocal executor
            self.close()
            if queue or solo:
                if backoff:
                    policy.backoff()
                policy.rebuilds += 1
                executor = self._open(max_workers)

        def died(exc: BaseException) -> None:
            """The pool is dead: land what finished, blame what was lost."""
            lost = drain_finished(inflight, deadlines, land)
            policy.pool_died()
            if len(lost) == 1:
                if ledger.kill(lost[0], exc):
                    solo.append(lost[0])
            else:
                solo.extend(lost)  # ambiguous: each re-runs alone, uncharged
            restart(backoff=True)

        def expire() -> None:
            """Charge over-deadline futures; kill the pool if one is stuck."""
            now = time.monotonic()
            cause = FuturesTimeout(f"exceeded {timeout}s budget")
            stuck = False
            for future in [f for f in inflight if now >= deadlines[f]]:
                if future.done():
                    continue  # finished in the race; collected next wait()
                if not future.cancel():
                    if future.done():
                        # completed between the done() check and cancel();
                        # leave it in flight for the next wait() to collect
                        continue
                    stuck = True  # running: only killing the pool frees it
                deadlines.pop(future)
                ledger.charge(inflight.pop(future), cause)
            if stuck:
                # a hung worker holds the pool hostage: kill it and requeue
                # the innocent in-flight specs (fresh deadline, no charge)
                policy.timeout_kills += 1
                innocents = list(inflight.values())
                inflight.clear()
                deadlines.clear()
                if innocents:
                    log.info("[pool] resubmitting %d in-flight specs after "
                             "killing a stuck worker", len(innocents))
                queue.extendleft(innocents)
                restart(backoff=False)

        try:
            while queue or solo or inflight:
                if tick is not None:
                    tick()
                try:
                    if solo or alone in inflight:
                        if not inflight:
                            alone = submit(solo)
                    else:
                        window = self._width(policy, max_workers)
                        while queue and len(inflight) < window:
                            submit(queue)
                except BrokenProcessPool as exc:
                    died(exc)  # a worker died between waits
                    continue
                if not inflight:  # nothing admitted: wait, or give up
                    dead = self._stalled()
                    if dead is not None:
                        ledger.abandon(dead)
                    continue
                wait_for = _POLL_INTERVAL
                if timeout is not None:
                    wait_for = min(wait_for, max(0.0, min(
                        deadlines.values()) - time.monotonic()))
                done, _ = wait(set(inflight), timeout=wait_for,
                               return_when=FIRST_COMPLETED)
                # successes first: a concurrent crash must not discard
                # finished work
                broken: Optional[BaseException] = None
                for future in sorted(done,
                                     key=lambda f: f.exception() is not None):
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        broken = exc  # stays in flight for died() to blame
                        continue
                    digest = inflight.pop(future)
                    deadlines.pop(future, None)
                    if exc is None:
                        land(digest, future.result())
                    else:
                        ledger.charge(digest, exc)
                if broken is not None:
                    died(broken)
                elif timeout is not None and inflight:
                    expire()
        except BaseException:
            # whatever is still running must not land in the next batch
            self.close()
            raise
        return ledger.out


def make_backend(name: str, *, jobs: Optional[int] = None,
                 workers=None,
                 lease_timeout: Optional[float] = None
                 ) -> Optional[ExecutionBackend]:
    """Build a backend from its CLI name.

    ``"auto"`` returns ``None`` — the engine then picks inline or
    process-pool per batch from its ``jobs`` (the classic behaviour).
    ``"remote"`` requires ``workers``, a list of ``host:port`` worker
    addresses started with ``repro-sim worker``; ``lease_timeout``
    tunes its heartbeat lease window (``None`` keeps the default).
    """
    if name == "auto":
        return None
    if name == "inline":
        return InlineBackend()
    if name == "process-pool":
        return ProcessPoolBackend(jobs=jobs)
    if name == "remote":
        if not workers:
            raise ValueError(
                "remote backend needs worker addresses (host:port); start "
                "them with 'repro-sim worker' and pass --workers")
        from repro.runner.remote import RemoteBackend
        if lease_timeout is not None:
            return RemoteBackend(workers, lease_timeout=lease_timeout)
        return RemoteBackend(workers)
    raise ValueError(f"unknown backend {name!r}; choose from "
                     f"{', '.join(BACKEND_NAMES)}")
