"""Declarative experiment engine.

The three pieces (see ``docs/running-experiments.md``):

- :class:`RunSpec` / :class:`MachineSpec` — one benchmark execution as
  frozen, hashable data (``repro.runner.spec``);
- :class:`Engine` — executes spec batches over a process pool with an
  in-process memo and a persistent content-addressed result cache
  (``repro.runner.engine`` / ``repro.runner.cache``);
- the **active engine** — a process-wide engine that the experiment
  harnesses submit to, so the CLI can swap in a parallel/caching engine
  (``--jobs``, ``--cache-dir``) without threading it through 13 call
  sites.

Typical use::

    from repro.runner import Engine, RunSpec, run_specs, use_engine

    specs = [RunSpec.benchmark("sctr", kind, n_cores=32)
             for kind in ("mcs", "glock")]
    with use_engine(Engine(jobs=4, cache_dir="~/.cache/repro-sim")):
        mcs, gl = run_specs(specs)
    print(gl.makespan / mcs.makespan)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, List, Optional

from repro.faults.plan import FaultPlan
from repro.runner.backends import (BACKEND_NAMES, ExecutionBackend,
                                   InlineBackend, ProcessPoolBackend,
                                   make_backend)
from repro.runner.cache import CacheCorruption, CacheStats, ResultCache
from repro.runner.config import (Campaign, ConfigError, expand_campaign,
                                 load_campaign, parse_campaign)
from repro.runner.engine import (BenchmarkRun, Engine, EngineStats,
                                 RunFailure, execute_spec)
from repro.runner.journal import JobJournal, JournalJob, replay_journal
from repro.runner.outcome import (FAILURE_STATUSES, RunOutcome,
                                  classify_failure, summarize_outcomes)
from repro.runner.publisher import SamplePublisher
from repro.runner.spec import MachineSpec, RunSpec, canonical_json
from repro.runner.supervisor import (CampaignInterrupted, CampaignManifest,
                                     CampaignResult, Supervisor)

__all__ = [
    "BACKEND_NAMES", "BenchmarkRun", "CacheCorruption", "CacheStats",
    "Campaign", "CampaignInterrupted", "CampaignManifest", "CampaignResult",
    "ConfigError", "Engine", "EngineStats", "ExecutionBackend",
    "FAILURE_STATUSES", "FaultPlan", "InlineBackend", "JobJournal",
    "JournalJob", "MachineSpec", "ProcessPoolBackend", "ResultCache",
    "RunFailure", "RunOutcome", "RunSpec", "SamplePublisher", "Supervisor",
    "active_engine", "active_supervisor", "canonical_json",
    "classify_failure", "execute_spec", "expand_campaign", "load_campaign",
    "make_backend", "parse_campaign", "replay_journal", "run_spec",
    "run_specs", "set_active_engine", "set_active_supervisor",
    "summarize_outcomes", "use_engine", "use_supervisor",
]

_active: Optional[Engine] = None
_default: Optional[Engine] = None
_active_supervisor: Optional[Supervisor] = None


def active_engine() -> Engine:
    """The engine harnesses submit to.

    The installed engine if :func:`set_active_engine`/:func:`use_engine`
    is in effect, else a lazily-created process-wide default (serial, no
    disk cache) whose memo returns the identical run for a repeated
    spec.
    """
    global _default
    if _active is not None:
        return _active
    if _default is None:
        _default = Engine()
    return _default


def set_active_engine(engine: Optional[Engine]) -> None:
    """Install ``engine`` process-wide (``None`` restores the default)."""
    global _active
    _active = engine


@contextmanager
def use_engine(engine: Engine):
    """Temporarily install ``engine`` as the active engine."""
    global _active
    previous = _active
    _active = engine
    try:
        yield engine
    finally:
        _active = previous


def active_supervisor() -> Optional[Supervisor]:
    """The installed campaign supervisor, if any (``None`` = engine only)."""
    return _active_supervisor


def set_active_supervisor(supervisor: Optional[Supervisor]) -> None:
    """Install ``supervisor`` process-wide (``None`` removes it)."""
    global _active_supervisor
    _active_supervisor = supervisor


@contextmanager
def use_supervisor(supervisor: Supervisor):
    """Route :func:`run_specs` through a campaign supervisor.

    While in effect, harness batches gain failure isolation and crash
    recovery: under ``fail_policy="collect"`` a failed or quarantined
    spec yields ``None`` in the returned list instead of raising, and
    harnesses render the partial sweep.
    """
    global _active_supervisor
    previous = _active_supervisor
    _active_supervisor = supervisor
    try:
        yield supervisor
    finally:
        _active_supervisor = previous


def run_spec(spec: RunSpec) -> BenchmarkRun:
    """Run one spec on the active engine."""
    return active_engine().run_spec(spec)


def run_specs(specs: Iterable[RunSpec]) -> List[Optional[BenchmarkRun]]:
    """Run a batch (order-preserving) on the active supervisor or engine.

    With a supervisor installed (:func:`use_supervisor`) and
    ``fail_policy="collect"``, entries for failed or quarantined specs
    are ``None``; otherwise every entry is a :class:`BenchmarkRun`.
    """
    if _active_supervisor is not None:
        return _active_supervisor.run_specs(specs)
    return active_engine().run_specs(specs)
