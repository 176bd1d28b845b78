"""The five workloads: what each one runs, on which kernel backend.

Importing this module imports nothing from the program under test, so
``run.py`` can read the catalogue; the functions that make specs import
``repro`` when called (in the children).  ``--seed`` reaches the simulator only
as ``RunSpec.seed`` (and the service's ``seeds:`` value): workloads that
draw randomness (raytr, the serving family) get new inputs, the others
replay identically.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["ACCURACY_BENCHES", "ARRIVAL_SEEDS", "BACKENDS", "DEFAULT_SEED",
           "NAMES", "PASS_SECONDS", "SCALE_CORES", "SERVICE_BENCHES",
           "SERVICE_LOCKS", "TABLE3_BENCHES", "accuracy_specs", "build_specs",
           "pass_count", "pin_section", "service_round_seed", "service_yaml"]

#: the seed the pinned fingerprints were recorded at
DEFAULT_SEED = 0

NAMES = ("table3", "table3-pure", "scale", "overload", "service")

#: kernel backend each workload measures (REPRO_SIM_BACKEND in its child)
BACKENDS: Dict[str, str] = {
    "table3": "compiled", "table3-pure": "pure", "scale": "compiled",
    "overload": "compiled", "service": "compiled",
}

TABLE3_BENCHES = ("sctr", "mctr", "dbll", "prco", "actr", "raytr", "ocean",
                  "qsort")
#: the microbenchmarks the paper's AvgM rows average over
ACCURACY_BENCHES = ("sctr", "mctr", "dbll", "prco", "actr")
SCALE_CORES = (64, 128, 256, 512, 1024)
SERVICE_BENCHES = ("sctr", "mctr", "dbll", "prco")
SERVICE_LOCKS = ("mcs", "glock")
#: arrival draws per overload config in one run
ARRIVAL_SEEDS = 6

#: host seconds one pass takes at the reference speed of
#: ``calibrate.REFERENCE_S``.  ``--seconds S`` buys a fixed
#: ``round(S / PASS_SECONDS)`` passes, so a given ``--seconds`` always
#: does the same work whatever the host's speed.
PASS_SECONDS: Dict[str, float] = {
    "table3": 0.85, "table3-pure": 2.4, "scale": 0.5, "overload": 0.55,
    "service": 0.1,
}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _table3(seed: int, benches=TABLE3_BENCHES) -> List:
    from repro.runner.spec import RunSpec

    return [RunSpec.benchmark(name, lock, n_cores=32, scale=0.25, seed=seed)
            for name in benches for lock in ("glock", "mcs")]


def _scale(seed: int) -> List:
    from repro.runner.spec import MachineSpec, RunSpec

    specs = []
    for cores in SCALE_CORES:
        # 2-level G-line trees stop at 7 drops per row
        machine = MachineSpec.baseline(cores, glock_levels=3)
        specs.append(RunSpec(workload="sctr", scale=1.0, hc_kind="glock",
                             machine=machine, seed=seed))
        specs.append(RunSpec(
            workload="kvstore", hc_kind="cr2:tatas", machine=machine,
            workload_params={"offered_load": 6.0, "duration": 6_000,
                             "deadline": 2_500},
            seed=seed))
    return specs


def _overload(seed: int, pass_index: int) -> List:
    from repro.runner.spec import MachineSpec, RunSpec

    # a config's host time depends on its arrival draw (one msgqueue
    # config takes 2x longer under some seeds), so passes cycle through
    # ARRIVAL_SEEDS draws and a config's latency is a mean over them
    arrivals = seed * ARRIVAL_SEEDS + pass_index % ARRIVAL_SEEDS + 1
    machine = MachineSpec.baseline(64, glock_levels=3)
    return [RunSpec(workload=name, hc_kind=lock, machine=machine,
                    workload_params={"offered_load": load,
                                     "duration": 24_000, "deadline": 3_000},
                    max_cycles=30_000_000, seed=arrivals)
            for name in ("kvstore", "msgqueue", "webserver")
            for lock in ("mcs", "cr4:mcs")
            for load in (4.0, 16.0)]


def _service(seed: int) -> List:
    from repro.runner.config import expand_campaign

    return expand_campaign(service_yaml(service_round_seed(seed, 0))).specs


def pin_section(workload: str) -> str:
    """The ``fingerprints.json`` section holding ``workload``'s pins;
    ``table3-pure`` must reproduce the compiled ``table3`` results."""
    return "table3" if workload == "table3-pure" else workload


def build_specs(workload: str, seed: int, pass_index: int = 0) -> List:
    """The specs pass ``pass_index`` of ``workload`` runs, in order."""
    if workload == "overload":
        return _overload(seed, pass_index)
    make = {"table3": _table3, "table3-pure": _table3, "scale": _scale,
            "service": _service}
    return make[workload](seed)


def accuracy_specs() -> List:
    """The Figure 8/9 AvgM specs: microbenchmarks x {glock, mcs}."""
    return _table3(DEFAULT_SEED, ACCURACY_BENCHES)


def service_round_seed(seed: int, round_index: int) -> int:
    """A ``seeds:`` value unique to (``--seed``, round), so every round's
    first submission misses the daemon's caches."""
    return seed * 1_000_003 + round_index + 1


def service_yaml(round_seed: int) -> str:
    """The 8-cell campaign one service round submits (twice)."""
    return (f"campaign: bench-{round_seed}\n"
            f"defaults:\n"
            f"  scale: 0.05\n"
            f"  cores: [8]\n"
            f"  seeds: [{round_seed}]\n"
            f"matrix:\n"
            f"  - benchmarks: [{', '.join(SERVICE_BENCHES)}]\n"
            f"    locks: [{', '.join(SERVICE_LOCKS)}]\n")
