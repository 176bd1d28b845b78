"""Raytrace proxy (SPLASH-2 ``raytrace``, teapot input).

The paper's post-mortem analysis of Raytrace reports 34 locks of which
exactly 2 are highly contended, both with SCTR-like (global counter)
access patterns, and a lock share of execution time large enough that
idealizing just those two locks recovers nearly all of the IDEAL
configuration's benefit (Figure 1).

The proxy reproduces that structure (DESIGN.md, substitution 2): threads
pull rays from a global counter under highly-contended lock L1, trace each
ray (compute + scattered read-mostly scene-memory loads), periodically
update a global shading accumulator under highly-contended lock L2, and
occasionally grab one of 32 per-grid-cell locks that see almost no
contention.
"""

from __future__ import annotations

from typing import Sequence

from repro.machine import Machine
from repro.workloads.base import Workload, WorkloadInstance

__all__ = ["RaytraceProxy"]


class RaytraceProxy(Workload):
    """Raytrace-like kernel: 34 locks, 2 highly contended."""

    name = "raytr"
    n_hc = 2
    access_pattern = "SCTR"

    def __init__(self, rays: int = 600, scene_lines: int = 512,
                 trace_compute: int = 3800, loads_per_ray: int = 16,
                 shade_every: int = 4, cell_every: int = 3,
                 seed: int = 42) -> None:
        self.rays = rays
        self.scene_lines = scene_lines
        self.trace_compute = trace_compute
        self.loads_per_ray = loads_per_ray
        self.shade_every = shade_every
        self.cell_every = cell_every
        self.seed = seed

    def build(self, machine: Machine, hc_kinds: Sequence[str],
              other_kind: str = "tatas") -> WorkloadInstance:
        # numpy loads with the first raytr build, not with the package:
        # the seeded PCG64 streams below are numpy's
        import numpy as np

        mem = machine.mem
        n = machine.config.n_cores
        ray_lock = machine.make_lock(hc_kinds[0], name="raytr-raylock")
        shade_lock = machine.make_lock(hc_kinds[1], name="raytr-shadelock")
        cell_locks = [machine.make_lock(other_kind, name=f"raytr-cell{i}")
                      for i in range(32)]
        ray_counter = mem.address_space.alloc_line()
        shade_acc = mem.address_space.alloc_line()
        cell_counters = mem.address_space.alloc_words_padded(32)
        # the scene was built by the untimed init phase -> warm in L2
        scene = mem.address_space.alloc_array(self.scene_lines * 8)
        mem.warm_l2(scene, self.scene_lines * machine.config.line_bytes)
        line_bytes = machine.config.line_bytes
        rng_master = np.random.default_rng(self.seed)
        thread_seeds = rng_master.integers(0, 2**31, size=n)

        total_rays = self.rays
        trace_compute = self.trace_compute
        loads_per_ray = self.loads_per_ray
        shade_every = self.shade_every
        cell_every = self.cell_every
        scene_lines = self.scene_lines

        def make_program(core_id):
            rng = np.random.default_rng(int(thread_seeds[core_id]))

            def program(ctx):
                while True:
                    # grab the next ray id (highly-contended lock 1)
                    yield from ctx.acquire(ray_lock)
                    ray_id = yield from ctx.load(ray_counter)
                    if ray_id >= total_rays:
                        yield from ctx.release(ray_lock)
                        return
                    yield from ctx.store(ray_counter, ray_id + 1)
                    yield from ctx.release(ray_lock)
                    # trace: compute interleaved with scene reads
                    for _ in range(loads_per_ray):
                        line = int(rng.integers(0, scene_lines))
                        # the ray walk only touches the scene line to model
                        # its cache/coherence footprint; the value is unused
                        yield from ctx.load(scene + line * line_bytes)  # noqa: SIM006
                        yield from ctx.compute(trace_compute // loads_per_ray)
                    # periodic global shading update (hc lock 2)
                    if ray_id % shade_every == 0:
                        yield from ctx.acquire(shade_lock)
                        yield from ctx.rmw(shade_acc, lambda v: v + 1)
                        yield from ctx.release(shade_lock)
                    # rare per-cell bookkeeping (low-contention locks)
                    if ray_id % cell_every == 0:
                        cell = int(rng.integers(0, 32))
                        yield from ctx.acquire(cell_locks[cell])
                        yield from ctx.rmw(cell_counters[cell], lambda v: v + 1)
                        yield from ctx.release(cell_locks[cell])

            return program

        def validate(m: Machine) -> None:
            assert m.mem.backing.read(ray_counter) == total_rays
            expected_shades = len(range(0, total_rays, shade_every))
            assert m.mem.backing.read(shade_acc) == expected_shades
            cells = sum(m.mem.backing.read(a) for a in cell_counters)
            assert cells == len(range(0, total_rays, cell_every))

        labels = {ray_lock.uid: "RAYTR-L1", shade_lock.uid: "RAYTR-L2"}
        for lk in cell_locks:
            labels[lk.uid] = "RAYTR-LR"
        return WorkloadInstance(
            name=self.name,
            programs=[make_program(c) for c in range(n)],
            locks=[ray_lock, shade_lock, *cell_locks],
            hc_locks=[ray_lock, shade_lock],
            lock_labels=labels,
            validate=validate,
        )
