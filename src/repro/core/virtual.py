"""Dynamic GLock virtualization — the conclusions' second future-work item.

The paper provisions a small fixed number of physical GLock networks and
notes that multiprogrammed workloads would need them "statically or
dynamically shared".  :class:`DynamicGLockManager` implements the dynamic
variant: program-level :class:`VirtualGLock` handles bind to a physical
device on first use, and an unbound lock may *steal* an idle device (one
whose token is parked with no holder and no outstanding requests) from a
lock that has gone quiet.  When every device is busy, the virtual lock
falls back to its embedded TATAS lock in shared memory — the hybrid
degrades, it never blocks.

The binding table models a small hardware mapping table consulted on each
``GL_Lock``; a lookup costs :data:`BIND_LATENCY` cycles.  Stealing is only
permitted from a quiescent network (no holder and no registered waiters —
a REQ registers its waiter synchronously before any signal travels, so
"no waiters" really means no request anywhere in flight).  Each physical
network therefore serves one lock at a time and mutual exclusion is
preserved unconditionally, which the test suite asserts under adversarial
schedules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.glock import GLockDevice, GLockPool
from repro.locks.base import Lock
from repro.locks.tatas import TatasLock
from repro.mem.hierarchy import MemorySystem

__all__ = ["DynamicGLockManager", "VirtualGLock", "BIND_LATENCY"]

#: cycles to consult/update the lock-to-network mapping table
BIND_LATENCY = 2


class DynamicGLockManager:
    """Allocates physical GLock devices to virtual locks on demand."""

    def __init__(self, pool: GLockPool, mem: MemorySystem) -> None:
        self.devices: List[GLockDevice] = list(pool.devices)
        self.mem = mem
        self.counters = pool.counters
        self._bound: Dict[int, "VirtualGLock"] = {}  # device lock_id -> lock
        self.binds = 0
        self.steals = 0
        self.fallbacks = 0

    def make_lock(self, name: str = "") -> "VirtualGLock":
        """Create a virtual lock managed by this table."""
        return VirtualGLock(self, self.mem, name)

    # ------------------------------------------------------------------ #
    # binding (called synchronously from VirtualGLock.acquire)
    # ------------------------------------------------------------------ #
    def try_bind(self, lock: "VirtualGLock") -> Optional[GLockDevice]:
        """Bind ``lock`` to a free or stealable device, or return None.

        Tripped (unhealthy) devices are never bound or stolen: a lock
        that loses its device to a trip rebinds to a surviving one, or
        degrades to its embedded software fallback.
        """
        for device in self.devices:
            if device.healthy and device.lock_id not in self._bound:
                self._bound[device.lock_id] = lock
                self.binds += 1
                self.counters.add("vglock.binds")
                return device
        for device in self.devices:
            if device.healthy and self._quiescent(device):
                old = self._bound[device.lock_id]
                old.device = None
                self._bound[device.lock_id] = lock
                self.binds += 1
                self.steals += 1
                self.counters.add("vglock.binds")
                self.counters.add("vglock.steals")
                return device
        self.fallbacks += 1
        self.counters.add("vglock.fallbacks")
        return None

    def unbind(self, lock: "VirtualGLock") -> None:
        """Drop ``lock``'s binding (its device tripped)."""
        device = lock.device
        lock.device = None
        if device is not None and self._bound.get(device.lock_id) is lock:
            del self._bound[device.lock_id]

    @staticmethod
    def _quiescent(device: GLockDevice) -> bool:
        """True when nothing holds or waits on the device's network."""
        return device.holder is None and not device.waiters


class VirtualGLock(Lock):
    """A program lock dynamically mapped onto the physical GLock pool."""

    def __init__(self, manager: DynamicGLockManager, mem: MemorySystem,
                 name: str = "") -> None:
        super().__init__(name)
        self.manager = manager
        self.device: Optional[GLockDevice] = None
        self._fallback = TatasLock(mem, name=f"{self.name}-fallback")
        # core_id -> ("glock", device) or ("fallback", None), per holder
        self._mode: Dict[int, Tuple[str, Optional[GLockDevice]]] = {}
        # threads currently waiting on or holding the fallback lock; while
        # any exist, later acquirers MUST also take the fallback path, or a
        # fallback holder and a G-line token holder would coexist
        self._fallback_active = 0

    def acquire(self, ctx):
        yield from ctx.compute(BIND_LATENCY)  # mapping-table lookup
        # the check/bind/request sequence below runs in one synchronous step
        # of the event loop, so no other thread can interleave with it
        device = None
        if self._fallback_active == 0:
            if self.device is not None and not self.device.healthy:
                self.manager.unbind(self)  # device tripped: rebind or degrade
            device = self.device
            if device is None:
                device = self.manager.try_bind(self)
                if device is not None:
                    self.device = device
        if device is not None:
            self._mode[ctx.core_id] = ("glock", device)
            ok = yield from device.acquire(ctx.core_id)
            if ok is not False:
                return
            # the device tripped while we waited: fall through to the
            # software path (safe — a tripped device grants no tokens)
            self.manager.counters.add("faults.fallback_acquires")
        self._mode[ctx.core_id] = ("fallback", None)
        self._fallback_active += 1
        yield from self._fallback.acquire(ctx)

    def release(self, ctx):
        mode, device = self._mode.pop(ctx.core_id)
        if mode == "glock":
            yield from device.release(ctx.core_id)
        else:
            yield from self._fallback.release(ctx)
            self._fallback_active -= 1
