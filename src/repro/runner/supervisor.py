"""Campaign supervisor: failure isolation, crash recovery, resume.

The :class:`~repro.runner.engine.Engine` is deliberately fail-fast: a
spec that exhausts its retry budget raises
:class:`~repro.runner.engine.RunFailure` and the batch dies.  That is
the right default for unit tests, but a figure-suite campaign of
hundreds of simulator runs must survive a single bad spec, a worker
killed by the OS, or a Ctrl-C half-way through.  The
:class:`Supervisor` wraps an engine with exactly that survivability:

- **failure isolation** — ``fail_policy="collect"`` resolves *every*
  spec to a :class:`~repro.runner.outcome.RunOutcome` (ok / timeout /
  crash / deadlock / sanitizer / error / quarantined) instead of
  aborting on the first failure; ``"abort"`` reproduces the engine's
  classic die-on-first-failure contract.
- **crash recovery** — the supervisor is the batch's
  :class:`~repro.runner.backends.PoolPolicy`: the runner's one pool
  loop rebuilds a dead pool after an exponential backoff with seeded
  jitter, and repeated consecutive pool deaths shed concurrency (the
  admission *window* halves, never below 1) in the spirit of Dice &
  Kogan's *Avoiding Scalability Collapse by Restricting Concurrency*; a
  sustained healthy streak restores it.
- **poison quarantine** — specs that were in flight when a pool died
  re-run alone, where blame is unambiguous.  A spec that kills its
  worker ``quarantine_threshold`` times is parked: its outcome becomes
  ``quarantined``, it is recorded in the manifest and the quarantine
  file with its digest and last failure, and it is never resubmitted
  for the rest of the campaign (including resumed passes).
- **checkpoint / resume** — when given a ``manifest_path`` the
  supervisor writes an atomically-replaced JSON manifest (pending /
  done / failed / quarantined digests + engine stats) every time a
  result lands.  Results themselves land in the engine's disk cache the
  moment they complete, so ``--resume <manifest>`` re-executes only the
  specs that were not yet done.  SIGINT/SIGTERM flush the manifest and
  raise :class:`CampaignInterrupted` instead of tearing the process
  down mid-write.

The supervisor reaches into the engine's internal ``_lookup`` /
``_commit`` / ``_auto_pool`` on purpose: they are the engine's caching
contract, and the two classes live in the same package and release
train.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from repro.runner.backends import PoolPolicy, RetryLedger
from repro.runner.cache import atomic_write
from repro.runner.engine import BenchmarkRun, Engine, RunFailure
from repro.runner.outcome import (OK, QUARANTINED, RunOutcome,
                                  classify_failure, summarize_outcomes)
from repro.runner.spec import RunSpec

__all__ = ["CampaignInterrupted", "CampaignManifest", "CampaignResult",
           "Supervisor", "MANIFEST_VERSION"]

log = logging.getLogger("repro.runner")

#: bump when the manifest JSON layout changes
MANIFEST_VERSION = 1


class CampaignInterrupted(RuntimeError):
    """A signal stopped the campaign after a clean checkpoint flush."""

    def __init__(self, signum: int, manifest_path: Optional[str]) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - exotic signal numbers
            name = str(signum)
        where = manifest_path or "no manifest configured"
        super().__init__(f"campaign interrupted by {name} "
                         f"(checkpoint: {where})")
        self.signum = signum
        self.manifest_path = manifest_path


class CampaignManifest:
    """Atomic JSON checkpoint of a campaign's progress.

    Layout (``version`` = :data:`MANIFEST_VERSION`)::

        {"version": 1,
         "campaign":    {...engine/supervisor configuration...},
         "specs":       {digest: human-readable label},
         "pending":     [digest, ...],
         "done":        [digest, ...],
         "failed":      {digest: {status, error, attempts, spec}},
         "quarantined": {digest: {kills, error, spec}},
         "stats":       {...engine + supervisor counters...}}

    Every :meth:`flush` writes a temp file and ``os.replace``\\ s it, so
    a campaign killed mid-checkpoint never leaves a torn manifest.
    """

    def __init__(self, path: os.PathLike,
                 data: Optional[Dict] = None) -> None:
        self.path = Path(path)
        self.data: Dict = data if data is not None else {
            "version": MANIFEST_VERSION,
            "campaign": {},
            "specs": {},
            "pending": [],
            "done": [],
            "failed": {},
            "quarantined": {},
            "stats": {},
        }

    @classmethod
    def load(cls, path: os.PathLike) -> "CampaignManifest":
        with open(path) as fh:
            data = json.load(fh)
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(f"unsupported campaign manifest version "
                             f"{data.get('version')!r} in {path}")
        return cls(path, data)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def note_spec(self, digest: str, label: str) -> None:
        self.data["specs"][digest] = label

    def mark_pending(self, digest: str) -> None:
        if (digest not in self.data["pending"]
                and digest not in self.data["done"]):
            self.data["pending"].append(digest)

    def _unpend(self, digest: str) -> None:
        if digest in self.data["pending"]:
            self.data["pending"].remove(digest)

    def mark_done(self, digest: str) -> None:
        self._unpend(digest)
        self.data["failed"].pop(digest, None)
        if digest not in self.data["done"]:
            self.data["done"].append(digest)

    def mark_failed(self, digest: str, status: str, error: str,
                    attempts: int, spec_dict: Optional[Dict]) -> None:
        self._unpend(digest)
        self.data["failed"][digest] = {"status": status, "error": error,
                                       "attempts": attempts,
                                       "spec": spec_dict}

    def mark_quarantined(self, digest: str, kills: int, error: str,
                         spec_dict: Optional[Dict]) -> None:
        self._unpend(digest)
        self.data["quarantined"][digest] = {"kills": kills, "error": error,
                                            "spec": spec_dict}

    @property
    def done(self) -> List[str]:
        return list(self.data["done"])

    @property
    def quarantined(self) -> Dict[str, Dict]:
        return dict(self.data["quarantined"])

    def flush(self) -> None:
        """Atomically persist the manifest (temp file + ``os.replace``)."""
        atomic_write(self.path, lambda fh: json.dump(self.data, fh, indent=1,
                                                     sort_keys=True))


@dataclass
class CampaignResult:
    """Per-spec outcomes of one :meth:`Supervisor.run_campaign` call."""

    outcomes: List[RunOutcome]

    @property
    def ok(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[RunOutcome]:
        return [o for o in self.outcomes
                if not o.ok and o.status != QUARANTINED]

    @property
    def quarantined(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.status == QUARANTINED]

    def runs(self) -> List[Optional[BenchmarkRun]]:
        """Results aligned to the submitted specs (None where not ok)."""
        return [o.run if o.ok else None for o in self.outcomes]


class Supervisor(PoolPolicy):
    """Failure-isolating, crash-recovering campaign executor.

    The supervisor is the :class:`~repro.runner.backends.PoolPolicy` of
    every batch it runs, so its pool-health telemetry (``pool_deaths``,
    ``timeout_kills``, ``rebuilds``, ``window``, ``min_window``,
    ``backoff_log``) spans its campaigns.

    Args:
        engine: the configured :class:`Engine` whose caches, timeout,
            retry budget, ``jobs`` and backend the campaign uses.
            Without an explicit backend the supervisor runs the
            engine's process pool even for ``jobs=1`` (a one-worker
            pool), so crashes and hangs stay isolated from the campaign
            process.
        fail_policy: ``"collect"`` (default) records failures as
            outcomes and keeps going; ``"abort"`` raises
            :class:`RunFailure` on the first exhausted spec.
        quarantine_threshold: unambiguous worker kills after which a
            spec is quarantined (>= 1).
        backoff_base / backoff_cap / backoff_jitter / seed /
        halve_after / heal_after / sleep_fn: the pool-death policy (see
            :class:`~repro.runner.backends.PoolPolicy`).
        manifest_path: where to checkpoint campaign progress (JSON);
            ``None`` disables checkpointing.
        resume_from: path of a previous campaign's manifest; its
            quarantined specs are skipped and its results are served
            from the engine's disk cache.  Defaults ``manifest_path`` to
            the same file so the resumed pass keeps checkpointing.
        quarantine_path: where quarantined specs are parked (defaults to
            ``<manifest_path>.quarantine.json`` when a manifest is set).
        on_checkpoint: optional callable invoked with the supervisor
            after every landed result (progress hooks, tests).
        install_signal_handlers: install SIGINT/SIGTERM checkpoint
            handlers for the duration of each campaign (main thread
            only; no-op elsewhere).
    """

    def __init__(self, engine: Engine, *, fail_policy: str = "collect",
                 quarantine_threshold: int = 2,
                 backoff_base: float = 0.25, backoff_cap: float = 8.0,
                 backoff_jitter: float = 0.5, seed: int = 0,
                 halve_after: int = 2, heal_after: int = 8,
                 manifest_path: Optional[os.PathLike] = None,
                 resume_from: Optional[os.PathLike] = None,
                 quarantine_path: Optional[os.PathLike] = None,
                 sleep_fn: Callable[[float], None] = time.sleep,
                 on_checkpoint: Optional[Callable[["Supervisor"], None]] = None,
                 install_signal_handlers: bool = True) -> None:
        if fail_policy not in ("abort", "collect"):
            raise ValueError(f"unknown fail_policy {fail_policy!r}")
        super().__init__(engine.jobs,
                         quarantine_threshold=quarantine_threshold,
                         backoff_base=backoff_base, backoff_cap=backoff_cap,
                         backoff_jitter=backoff_jitter, seed=seed,
                         halve_after=halve_after, heal_after=heal_after,
                         sleep_fn=sleep_fn)
        self.engine = engine
        self.fail_policy = fail_policy
        self.on_checkpoint = on_checkpoint
        self.install_signal_handlers = install_signal_handlers

        # resume state --------------------------------------------------
        self._resume_quarantined: Dict[str, Dict] = {}
        if resume_from is not None:
            loaded = CampaignManifest.load(resume_from)
            self._resume_quarantined = loaded.quarantined
            if manifest_path is None or Path(manifest_path) == loaded.path:
                manifest_path, self.manifest = loaded.path, loaded
            else:
                self.manifest = CampaignManifest(manifest_path)
        else:
            self.manifest = (CampaignManifest(manifest_path)
                             if manifest_path is not None else None)
        if quarantine_path is None and manifest_path is not None:
            quarantine_path = str(manifest_path) + ".quarantine.json"
        self.quarantine_path = quarantine_path

        #: every outcome across this supervisor's campaigns, in order
        self.outcomes: List[RunOutcome] = []
        self._interrupt: Optional[int] = None
        self._old_handlers: Dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run_specs(self, specs: Iterable[RunSpec]
                  ) -> List[Optional[BenchmarkRun]]:
        """Engine-compatible batch API: results aligned to ``specs``.

        Under ``fail_policy="collect"`` failed/quarantined specs yield
        ``None`` (harnesses skip them); under ``"abort"`` the first
        exhausted spec raises :class:`RunFailure`, like the engine.
        """
        return self.run_campaign(specs).runs()

    def run_campaign(self, specs: Iterable[RunSpec]) -> CampaignResult:
        """Run a batch to completion, whatever happens to the workers."""
        specs = list(specs)
        self._install_handlers()
        try:
            by_digest: Dict[str, RunOutcome] = {}
            order: List[str] = []
            todo: Dict[str, RunSpec] = {}
            for spec in specs:
                digest = spec.digest()
                order.append(digest)
                self.engine.stats.scheduled += 1
                if digest in by_digest or digest in todo:
                    continue
                if digest in self._resume_quarantined:
                    info = self._resume_quarantined[digest]
                    by_digest[digest] = RunOutcome(
                        spec, digest, QUARANTINED,
                        error=info.get("error"), kills=info.get("kills", 0))
                    continue
                run = self.engine._lookup(digest)
                if run is not None:
                    by_digest[digest] = RunOutcome(spec, digest, OK, run=run)
                    if self.manifest is not None:
                        self.manifest.note_spec(digest, spec.describe())
                        self.manifest.mark_done(digest)
                    continue
                todo[digest] = spec
            if self.manifest is not None:
                for digest, spec in todo.items():
                    self.manifest.note_spec(digest, spec.describe())
                    self.manifest.mark_pending(digest)
                self._flush_manifest()
            if todo:
                self._execute(todo, by_digest)
            self._flush_manifest()
            outcomes = [by_digest[digest] for digest in order]
            self.outcomes.extend(outcomes)
            return CampaignResult(outcomes=outcomes)
        finally:
            self._restore_handlers()

    def summary(self) -> str:
        """One grep-friendly line mirroring ``Engine.summary()``."""
        counts = summarize_outcomes(self.outcomes)
        failed = sum(n for status, n in counts.items()
                     if status not in (OK, QUARANTINED))
        return (f"[campaign] ok={counts.get(OK, 0)} failed={failed} "
                f"quarantined={counts.get(QUARANTINED, 0)} "
                f"pool_deaths={self.pool_deaths} "
                f"timeout_kills={self.timeout_kills} "
                f"rebuilds={self.rebuilds} "
                f"window={self.window}/{self.ceiling} "
                f"backoffs={len(self.backoff_log)} "
                f"policy={self.fail_policy}")

    # ------------------------------------------------------------------ #
    # execution: the engine's backend runs the batch, we keep the books
    # ------------------------------------------------------------------ #
    def _execute(self, todo: Dict[str, RunSpec],
                 by_digest: Dict[str, RunOutcome]) -> None:
        """Run ``todo`` on the engine's backend, one outcome per spec.

        The batch's :class:`~repro.runner.backends.RetryLedger` counts
        attempts and kills and calls ``fail`` once per exhausted spec,
        where the fail-policy decides between aborting and recording a
        classified (or quarantined) outcome.
        """
        engine = self.engine
        backend = (engine.backend if engine.backend is not None
                   else engine._auto_pool)

        def land(digest: str, run: BenchmarkRun) -> None:
            engine._commit(digest, run)
            by_digest[digest] = RunOutcome(
                todo[digest], digest, OK, run=run,
                attempts=ledger.attempts[digest] + 1,
                kills=ledger.kills[digest])
            if self.manifest is not None:
                self.manifest.mark_done(digest)
                self._flush_manifest()
            if self.on_checkpoint is not None:
                self.on_checkpoint(self)

        def fail(digest: str, exc: BaseException) -> None:
            spec, kills = todo[digest], ledger.kills[digest]
            if self.fail_policy == "abort":
                self._flush_manifest()
                raise RunFailure(spec, exc) from exc
            status = (QUARANTINED if kills >= self.quarantine_threshold
                      else classify_failure(exc))
            outcome = by_digest[digest] = RunOutcome(
                spec, digest, status, error=repr(exc),
                attempts=ledger.attempts[digest], kills=kills)
            if status == QUARANTINED:
                log.error("[quarantine] %s parked after %d worker kills: "
                          "%r", digest[:12], kills, exc)
                if self.manifest is not None:
                    self.manifest.mark_quarantined(digest, kills, repr(exc),
                                                   spec.to_dict())
                self._append_quarantine_file(digest, spec, kills, exc)
            else:
                log.warning("[campaign] %s", outcome.describe())
                if self.manifest is not None:
                    self.manifest.mark_failed(digest, status, repr(exc),
                                              outcome.attempts,
                                              spec.to_dict())
            self._flush_manifest()

        ledger = RetryLedger(todo, engine, land=land, fail=fail, policy=self)
        backend.execute(ledger, tick=self._check_interrupt)

    def _append_quarantine_file(self, digest: str, spec: RunSpec,
                                kills: int, error: BaseException) -> None:
        if self.quarantine_path is None:
            return
        path = Path(self.quarantine_path)
        entries: List[Dict] = []
        if path.exists():
            try:
                with open(path) as fh:
                    entries = json.load(fh)
            except (OSError, ValueError):
                entries = []
        entries = [e for e in entries if e.get("digest") != digest]
        entries.append({"digest": digest, "spec": spec.to_dict(),
                        "kills": kills, "last_failure": repr(error)})
        atomic_write(path, lambda fh: json.dump(entries, fh, indent=1))

    # ------------------------------------------------------------------ #
    # checkpointing and signals
    # ------------------------------------------------------------------ #
    def _flush_manifest(self) -> None:
        if self.manifest is None:
            return
        cache = self.engine.cache
        self.manifest.data["campaign"] = {
            "jobs": self.engine.jobs,
            "backend": self.engine.backend_name,
            "fail_policy": self.fail_policy,
            "timeout": self.engine.timeout,
            "retries": self.engine.retries,
            "quarantine_threshold": self.quarantine_threshold,
            "cache_dir": str(cache.root) if cache is not None else None,
        }
        self.manifest.data["stats"] = {
            **asdict(self.engine.stats),
            "pool_deaths": self.pool_deaths,
            "timeout_kills": self.timeout_kills,
            "rebuilds": self.rebuilds,
            "window": self.window,
            "min_window": self.min_window,
            "backoffs": len(self.backoff_log),
        }
        backend = self.engine.backend
        if backend is not None and hasattr(backend, "health_snapshot"):
            # remote campaigns checkpoint per-worker breaker state too,
            # so a resumed run knows which workers were misbehaving
            self.manifest.data["stats"]["workers"] = backend.health_snapshot()
        self.manifest.flush()

    def _on_signal(self, signum, frame) -> None:
        self._interrupt = signum

    def _check_interrupt(self) -> None:
        """Raise :class:`CampaignInterrupted` after a checkpoint flush."""
        if self._interrupt is None:
            return
        signum, self._interrupt = self._interrupt, None
        self._flush_manifest()
        raise CampaignInterrupted(
            signum, str(self.manifest.path) if self.manifest else None)

    def _install_handlers(self) -> None:
        self._old_handlers = {}
        if not self.install_signal_handlers:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[signum] = signal.signal(signum,
                                                           self._on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _restore_handlers(self) -> None:
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._old_handlers = {}
