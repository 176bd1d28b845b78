"""Per-spec campaign outcomes and the failure taxonomy.

Under ``fail_policy="collect"`` the campaign supervisor
(:mod:`repro.runner.supervisor`) never lets one bad spec abort a sweep:
every submitted spec resolves to a :class:`RunOutcome` whose ``status``
names what happened.  The taxonomy:

========== ==========================================================
status     meaning
========== ==========================================================
ok         the run completed (``outcome.run`` holds the result)
timeout    the run exceeded its wall-clock budget on every attempt
crash      the worker process died (segfault / OOM / ``os._exit``)
deadlock   the simulator raised :class:`~repro.sim.kernel.SimDeadlockError`
sanitizer  the runtime invariant sanitizer flagged a violation
error      any other in-run Python exception
quarantined the spec killed its worker ``quarantine_threshold`` times
           and was parked (never resubmitted this campaign)
========== ==========================================================

:func:`classify_failure` maps an exception to its taxonomy bucket.  It
matches on class *names* as well as types because exceptions that cross
a ``ProcessPoolExecutor`` boundary are re-pickled and occasionally
degrade to base classes.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import List, Optional

from repro.runner.spec import RunSpec

__all__ = [
    "OK", "TIMEOUT", "CRASH", "DEADLOCK", "SANITIZER", "ERROR",
    "QUARANTINED", "FAILURE_STATUSES", "RunOutcome", "classify_failure",
    "summarize_outcomes",
]

OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
DEADLOCK = "deadlock"
SANITIZER = "sanitizer"
ERROR = "error"
QUARANTINED = "quarantined"

#: every non-ok status a collect-mode campaign can report
FAILURE_STATUSES = (TIMEOUT, CRASH, DEADLOCK, SANITIZER, ERROR, QUARANTINED)


def classify_failure(exc: BaseException) -> str:
    """Map an execution failure to its taxonomy bucket (never ``ok``)."""
    if isinstance(exc, (FuturesTimeout, TimeoutError)):
        return TIMEOUT
    if isinstance(exc, BrokenExecutor):
        return CRASH
    names = {cls.__name__ for cls in type(exc).__mro__}
    if "RemoteRunError" in names and exc.kind in FAILURE_STATUSES:
        return exc.kind  # classified on the worker
    if "SimDeadlockError" in names:
        return DEADLOCK
    if "InvariantViolation" in names:
        return SANITIZER
    if "BrokenProcessPool" in names or "BrokenExecutor" in names:
        return CRASH
    return ERROR


@dataclass
class RunOutcome:
    """What happened to one spec during a supervised campaign."""

    spec: RunSpec
    digest: str
    status: str
    #: the result, present iff ``status == "ok"``
    run: Optional[object] = None
    #: ``repr()`` of the last failure (None when ok)
    error: Optional[str] = None
    #: execution attempts consumed (cache hits report 0)
    attempts: int = 0
    #: unambiguous worker kills attributed to this spec
    kills: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def describe(self) -> str:
        """One grep-friendly line (the CLI's per-spec failure summary)."""
        line = (f"{self.status.upper():<11} {self.digest[:12]} "
                f"{self.spec.describe()}")
        if self.error:
            line += f": {self.error}"
        return line


def summarize_outcomes(outcomes: List[RunOutcome]) -> dict:
    """Status -> count over ``outcomes`` (always includes ``ok``)."""
    counts = {OK: 0}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts
