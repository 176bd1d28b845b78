#!/usr/bin/env python
"""One workload in a fresh interpreter: the process the benchmark measures.

``run.py`` starts this script for every measurement and
reads its stdout: ``ready`` once the first op is done (the end of
set-up), ``factor <x>`` with the host speed right after, and at the end
``result <json>``.  Anything the program under test prints goes to
stderr.

Modes:

- ``probe``: set-up only (imports, backend resolution, one op), then exit;
- ``measure``: a warm-up op, then the whole passes over the workload's
  specs that ``--seconds`` buys, every op's output checked (end-to-end
  metrics);
- ``trace``: a fifth as many passes untraced, as many traced, then one
  pass under ``repro.sim.profile`` (per-layer metrics);
- ``service-ref`` / ``service-replay``: the service campaign's 8 specs run
  in-process, untraced or through the traced layers including the
  runner's (expansion, digest, cache, publisher, journal).

An op is one spec through the same calls ``execute_spec`` makes.  The
traced pipeline makes them one by one inside ``perf_counter`` spans; its
fingerprints are checked like every other op's, so it cannot drift from
``execute_spec`` unnoticed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from statistics import geometric_mean, mean
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import factor_of, kernel_seconds, scale_times  # noqa: E402
from checks import Checker, load_pins  # noqa: E402
from stats import median  # noqa: E402
from tracing import Tracer, chrome_events, coverage, layer_rows  # noqa: E402
from workloads import (ACCURACY_BENCHES, BACKENDS, DEFAULT_SEED,  # noqa: E402
                       SCALE_CORES, accuracy_specs, build_specs, pass_count,
                       pin_section, service_round_seed, service_yaml)

#: an op slower than this counts as failed
OP_TIMEOUT_S = 60.0
#: profiler components reported by name (the heaviest on table3);
#: everything else is summed into ``other``
COMPONENTS = {
    "process:core": "core", "L2DirectorySlice": "L2DirectorySlice",
    "L1Cache": "L1Cache", "process:home-GetM": "home-GetM",
    "process:home-GetS": "home-GetS", "process:home-Upgrade": "home-Upgrade",
    "TokenManager": "TokenManager", "LeafPort": "LeafPort",
}
#: repeats of the replayed runner layers (medians are reported)
REPLAY_REPEATS = 5


def spec_key(spec) -> str:
    """What a spec's fingerprint is checked under: its description, plus
    its seed when it overrides the workload's own."""
    return spec.describe() + (f" seed={spec.seed}" if spec.seed else "")


def service_key(spec) -> str:
    """Service results are keyed without the per-round seed, which none
    of its benchmarks consume."""
    return f"{spec.workload}[{spec.hc_kind}]"


class Runner:
    """Runs one spec per call, untraced or traced; counts kernel events."""

    def __init__(self, summarize: bool) -> None:
        from repro.machine import Machine

        self.summarize = summarize
        self._events: List[int] = []
        run = Machine.run
        events = self._events

        def counted(machine, *args, **kwargs):
            result = run(machine, *args, **kwargs)
            events.append(machine.sim.events_executed)
            return result

        # execute_spec builds its Machine internally; wrapping run() is
        # the only way to read sim.events_executed without editing src/
        Machine.run = counted

    def _summarize(self, spec, result) -> None:
        from repro.analysis.latency import summarize_requests

        summarize_requests(result.requests, result.makespan,
                           dict(spec.workload_params).get("deadline"))

    def untraced(self, spec):
        from repro.runner.engine import execute_spec

        run = execute_spec(spec)
        if self.summarize and run.result.requests is not None:
            self._summarize(spec, run.result)
        return run, self._events.pop()

    def traced(self, spec, tracer: Tracer):
        from repro.energy import account_run
        from repro.machine import Machine
        from repro.runner.engine import BenchmarkRun, _build_workload

        with tracer.span("op", cores=spec.machine.n_cores,
                         spec=spec.describe()) as op:
            with tracer.span("machine.build"):
                machine = Machine.from_spec(spec.machine)
            with tracer.span("workloads.instantiate"):
                # the workload construction execute_spec itself uses
                workload = _build_workload(spec)
                instance = workload.instantiate(
                    machine, hc_kind=spec.hc_kind,
                    other_kind=spec.other_kind, hc_kinds=spec.hc_kinds)
            with tracer.span("sim.simulate"):
                result = machine.run(instance.programs,
                                     max_events=spec.max_events,
                                     max_cycles=spec.max_cycles)
            with tracer.span("workloads.validate"):
                instance.validate(machine)
            with tracer.span("energy.account"):
                energy = account_run(result)
            run = BenchmarkRun(
                name=spec.workload,
                hc_kinds=spec.hc_kinds or (spec.hc_kind,) * workload.n_hc,
                n_cores=machine.config.n_cores, result=result, energy=energy,
                lock_labels=dict(instance.lock_labels), spec=spec)
            if self.summarize and result.requests is not None:
                with tracer.span("analysis.summarize"):
                    self._summarize(spec, result)
        events = self._events.pop()
        op.attrs.update(
            events=events,
            l1_accesses=result.counters.get("l1.accesses", 0),
            l1_misses=result.counters.get("l1.misses", 0),
            l2_accesses=result.counters.get("l2.accesses", 0),
            noc_bytes=result.total_traffic, byte_hops=result.byte_hops)
        return run, events


def run_op(runner: Runner, spec, key: str, checker: Checker,
           tracer: Optional[Tracer] = None):
    """One checked op: ``(seconds, events, run)``, or None if it raised.

    Every op starts from a freshly collected heap, untimed.  The collector
    pauses its own allocations trigger then fall at the same points on
    every repeat and are timed with it; the garbage an earlier op left
    never lands on a later one.  A full collection inside the timing
    would instead charge each op a traversal of the whole interpreter
    heap, which in a long campaign runs only every few specs.
    """
    from repro.runner.fingerprint import result_fingerprint

    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            run, events = runner.untraced(spec)
        else:
            run, events = runner.traced(spec, tracer)
    except Exception as exc:  # counted as a failed op, the run goes on
        checker.op(key, problems=[f"raised {exc!r}"])
        return None
    elapsed = perf_counter() - start
    problems = ([f"took {elapsed:.1f} s (limit {OP_TIMEOUT_S:.0f} s)"]
                if elapsed > OP_TIMEOUT_S else [])
    checker.op(key, result_fingerprint(run.result), problems)
    return elapsed, events, run


def passes(runner: Runner, workload: str, seed: int, indices: range,
           quick: bool, checker: Checker, results: Dict,
           tracer: Optional[Tracer] = None) -> List[List[Dict]]:
    """Whole passes ``indices`` over the workload's specs (``--quick``: one
    op of the first).

    One run of the calibration kernel precedes every op, and a pass's
    speed factor comes from all of them.  Each op reports its spec's key,
    its description (``kind``: the spec less its seed), kernel events, raw
    seconds and seconds at the reference speed.  Checks are not timed.
    ``results`` keeps each key's first ``(makespan, traffic)`` for the
    accuracy metrics.
    """
    out = []
    for index in indices[:1] if quick else indices:
        specs = build_specs(workload, seed, index)
        ops, kernel_times = [], []
        for spec in specs[:1] if quick else specs:
            key = spec_key(spec)
            kernel_times.append(kernel_seconds(repeats=1))
            done = run_op(runner, spec, key, checker, tracer)
            if done is None:
                continue
            elapsed, events, run = done
            ops.append({"key": key, "kind": spec.describe(),
                        "events": events, "raw_s": elapsed})
            results.setdefault(key, (run.result.makespan,
                                     run.result.total_traffic))
        factor = factor_of(kernel_times)
        for op in ops:
            op.update(seconds=op["raw_s"] * factor, factor=factor)
        out.append(ops)
    return out


def pass_seconds(timed: List[List[Dict]], field: str = "seconds"
                 ) -> List[float]:
    return [sum(op[field] for op in ops) for ops in timed if ops]


def events_per_s(timed: List[List[Dict]], field: str = "seconds"
                 ) -> List[float]:
    return [sum(op["events"] for op in ops) / sum(op[field] for op in ops)
            for ops in timed if ops]


def accuracy(runner: Runner, results: Dict) -> Dict[str, float]:
    """|simulated - paper| GL/MCS AvgM ratios (Figures 8 and 9).

    Reuses the workload's own results where it ran the microbenchmark
    specs; the rest run here, untimed.
    """
    from repro.analysis.paper import PAPER_AVERAGES

    for spec in accuracy_specs():
        if spec_key(spec) not in results:
            run, _ = runner.untraced(spec)
            results[spec_key(spec)] = (run.result.makespan,
                                       run.result.total_traffic)
    by_name = defaultdict(dict)
    for spec in accuracy_specs():
        by_name[spec.workload][spec.hc_kind] = results[spec_key(spec)]
    time_ratio = [by_name[n]["glock"][0] / by_name[n]["mcs"][0]
                  for n in ACCURACY_BENCHES]
    traffic_ratio = [by_name[n]["glock"][1] / max(by_name[n]["mcs"][1], 1)
                     for n in ACCURACY_BENCHES]
    return {
        "fig8_avgm_err": abs(sum(time_ratio) / len(time_ratio)
                             - PAPER_AVERAGES["fig8_avgm"]),
        "fig9_avgm_err": abs(sum(traffic_ratio) / len(traffic_ratio)
                             - PAPER_AVERAGES["fig9_avgm"]),
    }


def parity(runner: Runner, specs, checker: Checker) -> str:
    """Re-run every spec the pure passes ran on the compiled backend; each
    must reproduce the pure fingerprint (one checked op per spec)."""
    from repro.runner.fingerprint import result_fingerprint
    from repro.sim import kernel

    if "compiled" not in kernel.available_backends():
        return "skipped: compiled backend not built"
    kernel.set_backend("compiled")
    for spec in specs:
        key = spec_key(spec)
        if key not in checker.first:
            continue
        run, _ = runner.untraced(spec)
        fingerprint = result_fingerprint(run.result)
        checker.op(f"parity {key}", problems=(
            [] if fingerprint == checker.first[key]
            else [f"compiled {fingerprint[:12]} != pure "
                  f"{checker.first[key][:12]}"]))
    return "checked"


def component_shares(runner: Runner, specs, checker: Checker,
                     key=spec_key) -> Dict[str, float]:
    """Host-time share per simulator component over one profiled pass."""
    from repro.sim.profile import profiling

    shares = {f"sim.component.{label}.share": 0.0
              for label in list(COMPONENTS.values()) + ["other"]}
    with profiling() as prof:
        for spec in specs:
            run_op(runner, spec, key(spec), checker)
    total = prof.total_wall_s or 1.0
    for name, comp in prof.report().items():
        label = COMPONENTS.get(name, "other")
        shares[f"sim.component.{label}.share"] += comp["wall_s"] / total
    return shares


def sim_layer_metrics(spans) -> Dict[str, float]:
    """Per-op means of each simulator layer, overall and per core count."""
    ops = [s for s in spans if s.name == "op" and s.parent is None]
    total: Dict[str, float] = defaultdict(float)
    gc_s: Dict[str, float] = defaultdict(float)
    by_cores: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        if span.root.name != "op":
            continue
        cores = span.root.attrs["cores"]
        total[span.name] += span.duration
        gc_s[span.name] += span.gc_s
        gc_s["all"] += span.gc_s
        by_cores[cores][span.name] += span.duration
        by_cores[cores]["gc"] += span.gc_s
    n = len(ops) or 1

    def per_op(value: float) -> float:
        return value / n * 1e3

    events = sum(op.attrs["events"] for op in ops)
    l1_accesses = sum(op.attrs["l1_accesses"] for op in ops)
    simulate_s = total["sim.simulate"]
    metrics = {
        "machine.build_ms": per_op(total["machine.build"]),
        "machine.build_gc_ms": per_op(gc_s["machine.build"]),
        "workloads.instantiate_ms": per_op(total["workloads.instantiate"]),
        "workloads.validate_ms": per_op(total["workloads.validate"]),
        "sim.simulate_ms": per_op(simulate_s),
        "sim.gc_ms": per_op(gc_s["sim.simulate"]),
        "sim.events": events / n,
        "sim.ns_per_event": simulate_s / events * 1e9 if events else 0.0,
        "gc.pause_ms": per_op(gc_s["all"]),
        "energy.account_ms": per_op(total["energy.account"]),
        "analysis.summarize_ms": per_op(total["analysis.summarize"]),
        "mem.l1_accesses": l1_accesses / n,
        "mem.l1_misses": sum(op.attrs["l1_misses"] for op in ops) / n,
        "mem.l2_accesses": sum(op.attrs["l2_accesses"] for op in ops) / n,
        "noc.bytes": sum(op.attrs["noc_bytes"] for op in ops) / n,
        "noc.byte_hops": sum(op.attrs["byte_hops"] for op in ops) / n,
        "sim.ns_per_l1_access": (simulate_s / l1_accesses * 1e9
                                 if l1_accesses else 0.0),
    }
    for cores in SCALE_CORES:
        count = sum(1 for op in ops if op.attrs["cores"] == cores)
        row = by_cores.get(cores, {})
        for layer, metric in (("machine.build", "machine.build_ms"),
                              ("workloads.instantiate",
                               "workloads.instantiate_ms"),
                              ("sim.simulate", "sim.simulate_ms"),
                              ("gc", "gc.pause_ms")):
            metrics[f"{metric}.c{cores}"] = (row.get(layer, 0.0) / count * 1e3
                                            if count else 0.0)
    return metrics


def replay_runner_layers(tracer: Tracer, runs, round_seed: int,
                         work_dir: str) -> Dict[str, float]:
    """Time the runner layers a service job passes through, in-process.

    Each repeat expands the round's YAML, digests its specs, pickles,
    stores and loads the 8 results in a fresh cache, publishes them
    (fsynced, as the daemon does) and journals one job's records.
    """
    from repro.runner.cache import CACHE_FORMAT, ResultCache
    from repro.runner.config import expand_campaign
    from repro.runner.journal import JobJournal
    from repro.runner.publisher import SamplePublisher

    text = service_yaml(round_seed)
    samples: Dict[str, List[float]] = defaultdict(list)
    entry_bytes: List[int] = []
    root = tempfile.mkdtemp(dir=work_dir)
    try:
        cache = ResultCache(os.path.join(root, "cache"))
        for repeat in range(REPLAY_REPEATS):
            job: Dict[str, float] = defaultdict(float)

            @contextmanager
            def timed(name: str):
                with tracer.span(name) as span:
                    yield span
                job[name] += span.duration

            with timed("config.expand"):
                campaign = expand_campaign(text)
            with timed("spec.digest"):
                digests = [spec.digest() for spec in campaign.specs]
            for digest, spec, run in zip(digests, campaign.specs, runs):
                payload = {"format": CACHE_FORMAT, "digest": digest,
                           "spec": spec.to_dict(), "run": run}
                with timed("cache.pickle"):
                    blob = pickle.dumps(payload,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                entry_bytes.append(len(blob))
                with timed("cache.store"):
                    cache.store(digest, run, spec.to_dict())
                with timed("cache.load"):
                    cache.load(digest)
            publisher = SamplePublisher(
                os.path.join(root, f"job-{repeat}.jsonl"), sync=True)
            publisher.expect(digests)
            with timed("publisher.record"):
                for digest, run in zip(digests, runs):
                    publisher(digest, run)
                publisher.close()
            journal = JobJournal(os.path.join(root, "journal.jsonl"))
            job_id = f"job-{repeat:04d}"
            with timed("journal.append"):
                journal.job_submitted(job_id, campaign.name, text, "jsonl",
                                      digests)
                journal.job_started(job_id)
                journal.spec_dispatched(job_id, [])
                for digest in digests:
                    journal.spec_landed(job_id, digest)
                journal.job_done(job_id, "done", 0, len(digests))
            journal.close()
            for name, seconds in job.items():
                samples[name].append(seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    per_job_ms = {name: median(values) * 1e3
                  for name, values in samples.items()}
    return {
        "config.expand_ms": per_job_ms["config.expand"],
        "spec.digest_us": per_job_ms["spec.digest"] * 1e3 / len(runs),
        "cache.pickle_ms": per_job_ms["cache.pickle"],
        "cache.store_ms": per_job_ms["cache.store"],
        "cache.load_ms": per_job_ms["cache.load"],
        "cache.entry_kb": sum(entry_bytes) / len(entry_bytes) / 1024,
        "publisher.record_ms": per_job_ms["publisher.record"],
        "journal.append_ms": per_job_ms["journal.append"],
    }


def service_child(args, checker: Checker) -> Dict:
    """The service campaign's specs in-process: the reference events and
    fingerprints ``run.py`` checks the daemon against, and (replay) the
    traced layers the daemon runs, host times at the reference speed."""
    runner = Runner(summarize=False)
    specs = build_specs("service", args.seed)
    keys = [service_key(spec) for spec in specs]
    replay = args.mode == "service-replay"
    tracer = Tracer() if replay else None
    factor = factor_of([kernel_seconds()])
    runs, events = [], {}
    with tracer if replay else nullcontext():
        for spec, key in zip(specs, keys):
            done = run_op(runner, spec, key, checker, tracer)
            if done is not None:
                events[key] = done[1]
                runs.append(done[2])
        out: Dict = {"events": events, "fingerprints": dict(checker.first),
                     "metrics": {}}
        if not replay:
            out["metrics"].update(accuracy(runner, {}))
            return out
        if len(runs) != len(specs):
            raise RuntimeError(f"service replay: {checker.errors}")
        metrics = sim_layer_metrics(tracer.spans)
        metrics.update(replay_runner_layers(
            tracer, runs, service_round_seed(args.seed, 0), args.work_dir))
        out["metrics"] = scale_times(metrics, factor)
        out["metrics"].update(component_shares(runner, specs, checker,
                                               key=service_key))
        out["inproc_ms"] = factor * 1e3 * sum(
            s.duration for s in tracer.spans if s.name == "op")
        out["layers"] = layer_rows(tracer.spans)
        out["wall_s"] = sum(s.duration for s in tracer.spans
                            if s.parent is None)
        out["chrome"] = chrome_events(tracer.spans, os.getpid(),
                                      "service replay", tracer.spans[0].start)
    return out


def measure(args, runner: Runner, checker: Checker, results: Dict) -> Dict:
    """The timed passes: end-to-end metrics at the reference speed.

    A spec's latency is its median over passes; an ``overload`` config's
    is the mean of that over the arrival draws its passes cycle through.
    Across the workload's configs the metric is their geometric mean.  A
    pooled percentile over configs this different would land on whichever
    config straddles its rank, and jump when a seed reorders two.
    """
    timed = passes(runner, args.workload, args.seed,
                   range(pass_count(args.workload, args.seconds)), args.quick,
                   checker, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_spec: Dict[str, List[float]] = defaultdict(list)
    kind_of: Dict[str, str] = {}
    for ops in timed:
        for op in ops:
            by_spec[op["key"]].append(op["seconds"])
            kind_of[op["key"]] = op["kind"]
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for key, values in by_spec.items():
        by_kind[kind_of[key]].append(median(values))
    kind_ms = [mean(values) * 1e3 for values in by_kind.values()]
    rates = events_per_s(timed)
    detail = {"passes": len(timed), "ops": sum(map(len, timed)),
              "pass_s": median(pass_seconds(timed)) if rates else None,
              "speed_factor": median([op["factor"] for ops in timed
                                      for op in ops]) if rates else None,
              "raw_events_per_s": (median(events_per_s(timed, "raw_s"))
                                   if rates else None)}
    if args.workload == "table3-pure":
        detail["parity"] = parity(
            runner, build_specs(args.workload, args.seed), checker)
    metrics = {
        "events_per_s": median(rates) if rates else 0.0,
        "op_ms_geomean": geometric_mean(kind_ms) if kind_ms else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(accuracy(runner, results))
    return {"metrics": metrics, "detail": detail}


def trace(args, runner: Runner, checker: Checker, results: Dict) -> Dict:
    """A fifth of the passes untraced, as many traced, one profiled:
    the per-layer metrics, host times at the reference speed.

    Untraced and traced passes alternate over the same pass indices, so
    host drift during the run does not land on one side of
    ``trace.overhead``.
    """
    count = (1 if args.quick
             else max(1, round(pass_count(args.workload, args.seconds) / 5)))
    untraced: List[List[Dict]] = []
    traced: List[List[Dict]] = []
    tracer = Tracer()
    for index in range(count):
        untraced += passes(runner, args.workload, args.seed,
                           range(index, index + 1), args.quick, checker,
                           results)
        with tracer:
            traced += passes(runner, args.workload, args.seed,
                             range(index, index + 1), args.quick, checker,
                             results, tracer)
    factor = median([op["factor"] for ops in traced for op in ops])
    metrics = scale_times(sim_layer_metrics(tracer.spans), factor)
    specs = build_specs(args.workload, args.seed)
    metrics.update(component_shares(runner, specs[:1] if args.quick
                                    else specs, checker))
    metrics["trace.coverage"] = coverage(tracer.spans)
    metrics["trace.overhead"] = (median(pass_seconds(traced))
                                 / median(pass_seconds(untraced)) - 1)
    return {
        "metrics": metrics,
        "detail": {"speed_factor": factor},
        "layers": layer_rows(tracer.spans),
        "wall_s": sum(s.duration for s in tracer.spans if s.parent is None),
        "chrome": chrome_events(tracer.spans, os.getpid(),
                                f"{args.workload} child",
                                tracer.spans[0].start),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(BACKENDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", default="measure",
                        choices=("probe", "measure", "trace", "service-ref",
                                 "service-replay"))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--fingerprints", required=True)
    parser.add_argument("--work-dir", default=tempfile.gettempdir())
    args = parser.parse_args(argv)

    channel = sys.stdout
    sys.stdout = sys.stderr

    def emit(line: str) -> None:
        channel.write(line + "\n")
        channel.flush()

    backend = BACKENDS[args.workload]
    os.environ["REPRO_SIM_BACKEND"] = backend
    try:
        from repro.sim import kernel
    except RuntimeError as exc:  # BackendUnavailableError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if kernel.active_backend() != backend:
        print(f"error: {args.workload} needs the {backend} backend, got "
              f"{kernel.active_backend()}", file=sys.stderr)
        return 2

    pins = load_pins(args.fingerprints).get(pin_section(args.workload), {})
    at_default = args.seed == DEFAULT_SEED
    if args.workload == "service":
        # none of the service benchmarks consume the seed, so their pins
        # hold under every --seed
        checker = Checker(pins, record=at_default)
        out = service_child(args, checker)
    else:
        checker = Checker(pins if at_default else None,
                          record=at_default and args.workload != "table3-pure")
        runner = Runner(summarize=args.workload == "overload")
        first = build_specs(args.workload, args.seed)[0]
        run_op(runner, first, spec_key(first), checker)   # the warm-up op
        emit("ready")
        emit(f"factor {factor_of([kernel_seconds()])!r}")
        if args.mode == "probe":
            return 1 if checker.failed else 0
        step = measure if args.mode == "measure" else trace
        out = step(args, runner, checker, {})
    out["backend"] = backend
    out["checks"] = checker.as_dict()
    emit("result " + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
