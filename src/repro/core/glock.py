"""The GLock device: lock_req / lock_rel register interface (Figure 5).

``GL_Lock`` is two instructions: a 1-cycle store to the per-core
``lock_req`` register followed by a local busy-wait on that register (no L1
accesses, no network traffic); the local controller raises ``REQ`` on its
G-line and resets ``lock_req`` when ``TOKEN`` arrives.  ``GL_Unlock`` is a
single 1-cycle store to ``lock_rel``.

:class:`GLockPool` models the chip's fixed hardware budget (two GLocks in
the paper's evaluation) and the future-work *virtualization* mode in which
more program locks than physical networks are statically multiplexed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, Optional

from repro.core.network import GLineNetwork
from repro.sim.config import CMPConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import CounterSet

__all__ = ["GLockDevice", "GLockPool"]


class GLockDevice:
    """One hardware GLock (one dedicated G-line network, wired on first use)."""

    # class-level defaults so stripped-down test doubles that bypass
    # __init__ still present a healthy, recovery-less device
    healthy = True
    _recovery = None

    def __init__(self, sim: Simulator, config: CMPConfig, counters: CounterSet,
                 lock_id: int = 0, levels: int = 2,
                 arbitration: str = "round_robin", faults=None) -> None:
        GLineNetwork.check(config, levels, arbitration)
        self.sim = sim
        self.config = config
        self.counters = counters
        self.lock_id = lock_id
        self.levels = levels
        self.arbitration = arbitration
        self.faults = faults
        self._holder: Optional[int] = None
        #: False once the recovery controller trips the device; unhealthy
        #: devices refuse acquires and callers use their software fallback
        self.healthy = True
        if faults is not None:
            # wired now: building the network arms its fault port, which
            # schedules the plan's explicit faults
            from repro.faults.recovery import RecoveryController
            self._recovery = RecoveryController(
                self, self.network.fault_port, faults.plan)

    @cached_property
    def network(self) -> GLineNetwork:
        """This device's G-line network, built the first time it is used."""
        return GLineNetwork(self.sim, self.config, self.counters,
                            self.lock_id, self.levels, self.arbitration,
                            faults=self.faults)

    @property
    def waiters(self) -> Dict[int, Callable[[], None]]:
        """Cores waiting for TOKEN, by core id (none while unwired)."""
        network = vars(self).get("network")
        return {} if network is None else network._token_callbacks

    # ------------------------------------------------------------------ #
    # the GL_Lock / GL_Unlock primitives
    # ------------------------------------------------------------------ #
    def acquire(self, core_id: int):
        """Coroutine: ``GL_Lock`` — returns True once TOKEN is granted.

        Returns False (without blocking) when the device is unhealthy or
        trips while this core is waiting; the caller must then take its
        software fallback path.  On a fault-free machine the result is
        always True and callers may ignore it.
        """
        if not self.healthy:
            return False
        token = self.sim.signal(f"glock{self.lock_id}-token-{core_id}")

        def on_grant(value=None) -> None:
            # runs synchronously inside the TOKEN delivery event, so
            # ``holder`` is never None while a grant is in flight to the
            # process — the recovery quiesce check relies on this
            if value is False:  # device tripped: abort, do not take the lock
                token.fire(False)
                return
            if self._holder is not None:
                raise RuntimeError(
                    f"GLock {self.lock_id}: token granted to {core_id} while "
                    f"held by {self._holder}"
                )
            self._holder = core_id
            token.fire(value)

        # "mov 1, lock_req": the store and the REQ signal overlap in the
        # same cycle (Figure 4 labels REQ as cycle 1 after a cycle-0 try)
        self.network.request(core_id, on_grant)
        self.counters.add("glock.acquires")
        if self._recovery is not None:
            self._recovery.arm_watchdog(core_id, token)
        granted = yield token  # the bnz spin on lock_req, locally in the core
        if granted is False:
            return False  # device tripped while we waited
        return True

    def release(self, core_id: int):
        """Coroutine: ``GL_Unlock`` — a single 1-cycle register store."""
        if self._holder != core_id:
            raise RuntimeError(
                f"GLock {self.lock_id}: core {core_id} released a lock held "
                f"by {self._holder}"
            )
        self._holder = None
        self.network.release(core_id)  # noqa: SIM001 — plain REL signal, not a coroutine
        self.counters.add("glock.releases")
        yield 1  # "mov 1, lock_rel"

    @property
    def holder(self) -> Optional[int]:
        """Core currently holding this GLock (None if free)."""
        return self._holder


class GLockPool:
    """The chip's fixed set of hardware GLocks.

    ``assign`` hands out physical devices to program-level locks.  With
    ``allow_sharing=False`` (the paper's static provisioning) exhausting the
    pool is an error; with ``allow_sharing=True`` further locks are
    multiplexed round-robin onto existing devices — the future-work mode for
    multiprogrammed workloads.  Sharing is safe (one token per network) but
    serializes the sharers' critical sections.
    """

    def __init__(self, sim: Simulator, config: CMPConfig, counters: CounterSet,
                 levels: int = 2, allow_sharing: bool = False,
                 arbitration: str = "round_robin", faults=None) -> None:
        self.counters = counters
        self.faults = faults
        self.devices = [
            GLockDevice(sim, config, counters, lock_id=i, levels=levels,
                        arbitration=arbitration, faults=faults)
            for i in range(config.gline.n_glocks)
        ]
        self.allow_sharing = allow_sharing
        self._assigned = 0
        # program-level locks multiplexed onto each device, by lock_id
        self._shared_devices: Dict[int, int] = {}

    def assign(self) -> GLockDevice:
        """Reserve a device for one program-level lock."""
        if self._assigned < len(self.devices):
            device = self.devices[self._assigned]
        elif self.allow_sharing:
            device = self.devices[self._assigned % len(self.devices)]
        else:
            raise RuntimeError(
                f"all {len(self.devices)} hardware GLocks are assigned; "
                "enable sharing or provision more in GLineConfig.n_glocks"
            )
        self._assigned += 1
        self._shared_devices[device.lock_id] = \
            self._shared_devices.get(device.lock_id, 0) + 1
        return device

    @property
    def fallback_kind(self) -> str:
        """Software lock flavour tripped devices degrade to (FaultPlan)."""
        if self.faults is not None:
            return self.faults.plan.fallback_kind
        return "tatas"

    @property
    def n_assigned(self) -> int:
        """Program-level locks assigned so far."""
        return self._assigned

    def device_sharers(self, lock_id: int) -> int:
        """Program-level locks currently multiplexed onto device ``lock_id``."""
        if not 0 <= lock_id < len(self.devices):
            raise ValueError(f"no GLock device {lock_id}")
        return self._shared_devices.get(lock_id, 0)

    @property
    def sharer_counts(self) -> Dict[int, int]:
        """Per-device sharer counts ``{lock_id: n_program_locks}``.

        Under the paper's static provisioning every count is 0 or 1; with
        ``allow_sharing`` the excess program locks round-robin onto devices
        and counts report the serialization pressure on each network.
        """
        return dict(self._shared_devices)
