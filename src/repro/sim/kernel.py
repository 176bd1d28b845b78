"""Backend-selecting facade over the event kernel.

Two interchangeable implementations of the deterministic event kernel
live behind this module:

* ``pure`` — :mod:`repro.sim._kernel_pure`, the reference pure-Python
  kernel.  Always available.
* ``compiled`` — :mod:`repro.sim._ckernel`, a CPython C extension built
  (optionally) at install time by ``setup.py``.  Present only when a C
  compiler was available at build time; its absence is silent.

Both produce **bit-identical** schedules: events run in ``(time, seq)``
order and every behavioural detail of the pure kernel (error messages,
signal wakeup ordering, the deadlock watchdog, the signal registry) is
replicated by the C backend, which is held to the determinism goldens in
``tests/test_kernel_determinism.py``.

Selection
---------

The active backend is chosen at import time from the
``REPRO_SIM_BACKEND`` environment variable (``pure`` | ``compiled`` |
``auto``, default ``auto`` = compiled when built, else pure) and can be
switched at runtime with :func:`set_backend` — the CLI's
``repro-sim run --backend=...`` knob does exactly that.  Setting
``REPRO_SIM_DISABLE_CEXT=1`` hides a built extension entirely, which is
how the fallback path is exercised in tests without uninstalling it.

Because callers construct kernels via ``Simulator(...)`` /
``Signal(sim, ...)`` imported from this module, those names are exported
as *factories* that late-bind to the active backend; ``isinstance``
checks against processes must use :data:`PROCESS_TYPES`, which covers
both implementations.

Component accelerators
----------------------

The extension also carries C twins of the memory system's components:
the cache tag array (``repro.mem.cache.tag_array``); the mesh core,
which routes, reserves links and delivers every message
(``repro.noc.topology.Mesh``); and ``L1Core`` and ``DirCore``, which
interpret the MESI transition table (``repro.mem.protocol.ROWS``,
handed over once by ``configure_protocol``) for each ``L1Cache`` and
``L2DirectorySlice`` and build each protocol message as a C ``Message``
record, so protocol messages, directory steps and their timers run as
kernel events without entering Python.  A component picks
its twin once, when it is built, from the type of the simulator it is
built on, using :func:`compiled_impl`.  Nothing rebinds when the backend
switches, so a pure simulator's machine is all Python even when the
extension is built, and ``repro.mem.cache.TagArray``,
``repro.noc.messages.Message`` and ``repro.mem.protocol.make_msg`` always
name the Python implementations.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.sim import _kernel_pure as _pure
from repro.sim._kernel_pure import SimDeadlockError, SimulationError

__all__ = [
    "Simulator", "Signal", "Process", "SimulationError", "SimDeadlockError",
    "BackendUnavailableError", "PROCESS_TYPES", "SIGNAL_TYPES",
    "active_backend", "available_backends", "set_backend",
    "resolve_backend",
]

#: environment knob consulted at import (and exported to worker processes
#: by the CLI so process-pool runs inherit the selection)
BACKEND_ENV = "REPRO_SIM_BACKEND"
#: set to any non-empty value to pretend the C extension was never built
DISABLE_ENV = "REPRO_SIM_DISABLE_CEXT"

_ckernel = None
if not os.environ.get(DISABLE_ENV):
    try:
        from repro.sim import _ckernel  # type: ignore[no-redef]
    except ImportError:
        _ckernel = None


class BackendUnavailableError(RuntimeError):
    """A backend was requested that is not built on this machine."""


_IMPLS = {"pure": _pure}
if _ckernel is not None:
    _IMPLS["compiled"] = _ckernel

#: classes a live process may be an instance of (for ``isinstance`` in
#: verification code — both backends define a type named ``Process``)
PROCESS_TYPES = tuple(impl.Process for impl in _IMPLS.values())
#: same for signals (waiter-list introspection in the sanitizer)
SIGNAL_TYPES = tuple(impl.Signal for impl in _IMPLS.values())


def available_backends() -> List[str]:
    """Names of the backends importable on this machine."""
    return list(_IMPLS)


def resolve_backend(name: str) -> str:
    """Map a requested backend name (including ``auto``) to a concrete one.

    Raises :class:`BackendUnavailableError` for an explicit request that
    cannot be satisfied, and ``ValueError`` for an unknown name.
    """
    if name == "auto":
        return "compiled" if "compiled" in _IMPLS else "pure"
    if name not in ("pure", "compiled"):
        raise ValueError(
            f"unknown simulator backend {name!r}; "
            f"choose from pure, compiled, auto")
    if name not in _IMPLS:
        raise BackendUnavailableError(
            "compiled simulator backend is not built on this machine "
            "(build it with `python setup.py build_ext --inplace`, or use "
            "--backend=pure/auto)")
    return name


_active = resolve_backend(os.environ.get(BACKEND_ENV, "auto") or "auto")


def active_backend() -> str:
    """The backend new :func:`Simulator` instances will use."""
    return _active


def set_backend(name: str) -> str:
    """Switch the active backend; returns the concrete backend selected.

    Existing simulators, and the components built on them, keep their
    implementation; only subsequently constructed simulators change.
    """
    global _active
    _active = resolve_backend(name)
    return _active


# --------------------------------------------------------------------- #
# late-binding constructors
# --------------------------------------------------------------------- #
def Simulator(profile=None):
    """Construct an event kernel using the active backend."""
    return _IMPLS[_active].Simulator(profile=profile)


def Signal(sim, name: str = ""):
    """Construct a signal on ``sim`` (whatever backend ``sim`` uses)."""
    return sim.signal(name)


def Process(sim, gen, name: Optional[str] = None):
    """Construct a process on ``sim`` (normally via ``sim.spawn``)."""
    return sim.spawn(gen, name=name)


def compiled_impl():
    """The compiled backend module, or ``None`` when not built (or hidden).

    Components use it to reach their C twins (``MeshCore``, ``TagArray``,
    ``L1Core``, ``DirCore``) and take them only when their simulator is
    the compiled ``Simulator``.
    """
    return _ckernel
