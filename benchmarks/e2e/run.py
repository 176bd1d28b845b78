#!/usr/bin/env python
"""End-to-end benchmark of the GLocks simulator, with a layered traced run.

Usage (from the repository root)::

    python benchmarks/e2e/run.py                    # all five workloads
    python benchmarks/e2e/run.py --workload table3 --seed 3 --seconds 10
    python benchmarks/e2e/run.py --trace            # per-layer metrics
    python benchmarks/e2e/run.py --quick            # one timed op each
    python benchmarks/e2e/run.py --runs 10 --out a.json
    python benchmarks/e2e/run.py --compare a.json b.json

Each workload runs in fresh child processes, one at a time (``child.py``;
the ``service`` workload's child is the ``repro-sim serve`` daemon and
this process is its only client).  Set-up time is the median of 5 fresh
children, each timed from spawn until its first op is done.  Every op's
output is checked; the run prints every metric as ``workload metric
value unit``, writes the full record as JSON (``--out``) and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Before anything is timed the compiled kernel is rebuilt
(``setup.py build_ext --inplace --force``) whenever its sources differ
from the ones the present extension was built from, so a benchmark never
measures a stale ``.so``.  A workload that names the compiled backend
exits with code 2 when the extension is missing instead of falling back.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import geometric_mean
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from calibrate import (factor_of, host_kernel_seconds,  # noqa: E402
                       scale_times)
from checks import Checker, load_pins, save_pins  # noqa: E402
from service import (POOL_JOBS, ServiceClient,  # noqa: E402
                     check_submission, daemon_command, daemon_peak_rss_mb,
                     parse_daemon_url, wait_idle)
from stats import median, percentile, quartiles, spread  # noqa: E402
from tracing import (Tracer, chrome_events, coverage,  # noqa: E402
                     format_layer_table, layer_rows)
from workloads import (BACKENDS, DEFAULT_SEED, NAMES,  # noqa: E402
                       SCALE_CORES, pass_count, pin_section,
                       service_round_seed, service_yaml)

#: set-up samples per workload run (the measuring child is the last)
SETUP_SAMPLES = 5
#: service rounds per calibration-kernel sample (one factor per run)
CALIBRATE_EVERY = 4
#: child budgets beyond 2x --seconds: imports, checks, accuracy, parity
SETUP_TIMEOUT_S = 120.0
CHILD_SLACK_S = 120.0
#: the service campaign's spec count (every submission publishes 8 records)
SERVICE_SPECS = 8
OUT_DIR = HERE / "out"
WORK_DIR = HERE / ".work"
BUILD_DIR = HERE / ".build"
DEFAULT_PINS = HERE / "fingerprints.json"


class ChildError(RuntimeError):
    """A child exited, timed out or broke the line protocol."""

    def __init__(self, message: str, returncode: Optional[int] = None):
        super().__init__(message)
        self.returncode = returncode


class Child:
    """A subprocess in its own process group whose stdout is read line by
    line.

    ``stop`` ends the whole group (a daemon's pool workers included) and
    waits for it.
    """

    def __init__(self, cmd: List[str], env: Dict[str, str]) -> None:
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, match, timeout: float) -> str:
        """The next stdout line for which ``match(line)`` is true."""
        deadline = perf_counter() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - perf_counter(),
                                                   0.0))
            except queue.Empty:
                raise ChildError(f"no answer within {timeout:.0f} s") from None
            if line is None:
                code = self.proc.wait()
                raise ChildError(f"exited with code {code}", code)
            if match(line):
                return line

    def stop(self, grace: float = 15.0) -> int:
        if self.proc.poll() is None:
            self._signal(signal.SIGTERM)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                pass
        self._signal(signal.SIGKILL)   # stragglers left in the group
        self.proc.wait()
        self._reader.join(5)
        return self.proc.returncode

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except ProcessLookupError:
            pass

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------- #
# set-up: checkout, compiled kernel, environment
# ---------------------------------------------------------------------- #
def extension_sources_digest() -> str:
    digest = hashlib.sha256((ROOT / "setup.py").read_bytes())
    for path in sorted((ROOT / "src" / "repro" / "sim").glob("*.[ch]")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def extension_present() -> bool:
    return any((ROOT / "src" / "repro" / "sim").glob("_ckernel*.so"))


def ensure_extension() -> Dict[str, bool]:
    """Rebuild the C kernel unless the present one matches its sources."""
    stamp = BUILD_DIR / "ckernel.sha256"
    wanted = extension_sources_digest()
    current = stamp.read_text().strip() if stamp.exists() else None
    built = False
    if current != wanted or not extension_present():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        stamp.unlink(missing_ok=True)
        # a failed build must leave no extension, not the stale one
        for stale in (ROOT / "src" / "repro" / "sim").glob("_ckernel*.so"):
            stale.unlink()
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--force", "--build-temp", str(BUILD_DIR / "tmp")],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        built = proc.returncode == 0 and extension_present()
        if built:
            stamp.write_text(wanted + "\n")
        else:
            sys.stderr.write(proc.stdout + proc.stderr)
    return {"present": extension_present(), "built_now": built}


def child_env(workload: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_SIM_BACKEND"] = BACKENDS[workload]
    env.pop("REPRO_SIM_DISABLE_CEXT", None)
    return env


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def import_times(env: Dict[str, str]) -> Dict[str, float]:
    """Cumulative import cost of ``repro.cli`` and of numpy under it."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import repro.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    cumulative: Dict[str, int] = {}
    for line in proc.stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]))
    return {"import.repro_cli_ms": cumulative.get("repro.cli", 0) / 1e3,
            "import.numpy_ms": cumulative.get("numpy", 0) / 1e3}


def setup_sample(child: Child) -> float:
    """Spawn-to-first-op time of a workload child, at the reference speed
    (the child calibrates right after its first op)."""
    child.expect(lambda line: line == "ready", SETUP_TIMEOUT_S)
    elapsed = perf_counter() - child.started
    line = child.expect(lambda line: line.startswith("factor "),
                        SETUP_TIMEOUT_S)
    return elapsed * float(line.split()[1])


# ---------------------------------------------------------------------- #
# one workload run
# ---------------------------------------------------------------------- #
class Run:
    """Settings shared by every workload run of one invocation."""

    def __init__(self, args, bench: Dict) -> None:
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.quick = args.quick
        self.pins_path = Path(args.fingerprints)
        self.bench = bench

    def child_cmd(self, workload: str, seed: int, mode: str) -> List[str]:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(self.seconds),
               "--mode", mode, "--fingerprints", str(self.pins_path),
               "--work-dir", str(WORK_DIR)]
        return cmd + (["--quick"] if self.quick else [])

    def child_result(self, workload: str, seed: int, mode: str,
                     setup: Optional[List[float]] = None) -> Dict:
        """Run one child to its result line; its set-up time (spawn to
        ``ready``) is appended to ``setup``."""
        with Child(self.child_cmd(workload, seed, mode),
                   child_env(workload)) as child:
            if setup is not None:
                setup.append(setup_sample(child))
            line = child.expect(lambda line: line.startswith("result "),
                                2 * self.seconds + CHILD_SLACK_S)
            return json.loads(line[len("result "):])

    def probe(self, workload: str, seed: int, counts: Checker) -> float:
        """One set-up sample from a child that exits after its first op."""
        with Child(self.child_cmd(workload, seed, "probe"),
                   child_env(workload)) as child:
            sample = setup_sample(child)
            try:
                code = child.proc.wait(SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = "a timeout"
        counts.op(f"set-up probe {workload}",
                  problems=[f"probe exited {code}"] if code else [])
        return sample

    def record_pins(self, workload: str, new_pins: Dict[str, str]) -> None:
        if not new_pins:
            return
        pins = load_pins(str(self.pins_path))
        pins.setdefault(pin_section(workload), {}).update(new_pins)
        save_pins(str(self.pins_path), pins)


def run_sim(run: Run, workload: str, seed: int) -> Dict:
    """table3, table3-pure, scale, overload: children only."""
    counts = Checker()
    if run.trace:
        result = run.child_result(workload, seed, "trace")
        metrics = result["metrics"]
        metrics.update(scale_times(import_times(child_env(workload)),
                                   factor_of([host_kernel_seconds()])))
        tables = [format_layer_table(f"{workload} layers (seed {seed})",
                                     result["layers"], result["wall_s"])]
        if workload == "scale":
            tables.append(per_core_table(metrics))
        return finish(run, workload, seed, result, counts, metrics,
                      tables=tables, chrome=result["chrome"])
    setup: List[float] = []
    for _ in range(0 if run.quick else SETUP_SAMPLES - 1):
        setup.append(run.probe(workload, seed, counts))
    result = run.child_result(workload, seed, "measure", setup)
    metrics = dict(result["metrics"], setup_s=median(setup))
    return finish(run, workload, seed, result, counts, metrics,
                  detail=dict(result["detail"], setup_samples=setup))


def per_core_table(metrics: Dict[str, float]) -> str:
    """The scale workload's per-op split of build/instantiate/simulate/GC."""
    header = (f"{'cores':>6} {'build ms':>10} {'instantiate ms':>15} "
              f"{'simulate ms':>12} {'gc ms':>8}")
    lines = ["scale: per-op host time by core count", header,
             "-" * len(header)]
    for cores in SCALE_CORES:
        lines.append(
            f"{cores:>6d} {metrics[f'machine.build_ms.c{cores}']:>10.2f} "
            f"{metrics[f'workloads.instantiate_ms.c{cores}']:>15.2f} "
            f"{metrics[f'sim.simulate_ms.c{cores}']:>12.2f} "
            f"{metrics[f'gc.pause_ms.c{cores}']:>8.2f}")
    return "\n".join(lines)


class Daemon:
    """A ``repro-sim serve`` child with a fresh cache dir and journal."""

    def __init__(self, index: int) -> None:
        self.cache_dir = WORK_DIR / f"daemon-{os.getpid()}-{index}"
        self.child = Child(daemon_command(sys.executable, str(self.cache_dir)),
                           child_env("service"))
        self.client: Optional[ServiceClient] = None
        #: the published body of round 0's cold submission
        self.warm_up_body: Optional[bytes] = None
        try:
            line = self.child.expect(
                lambda text: parse_daemon_url(text) is not None,
                SETUP_TIMEOUT_S)
            self.client = ServiceClient(*parse_daemon_url(line))
            if not self.client.healthy():
                raise ChildError("daemon /healthz is not ok")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        self.child.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def submit(daemon: Daemon, seed: int, index: int, kind: str,
           expected: Dict[str, str], counts: Checker,
           tracer: Optional[Tracer] = None,
           cold_body: Optional[bytes] = None):
    """One checked submission of round ``index``: ``(seconds, body)``, or
    None when it raised.  A warm submission must publish ``cold_body``
    byte for byte."""
    label = f"round {index} {kind}"
    text = service_yaml(service_round_seed(seed, index))
    try:
        seconds, job, body = daemon.client.submission(text, tracer, kind)
    except Exception as exc:  # counted as a failed op, the run goes on
        counts.op(label, problems=[f"raised {exc!r}"])
        return None
    cold = kind == "cold"
    problems = check_submission(
        job, body, expected, executed=SERVICE_SPECS if cold else 0,
        cache_hits=0 if cold else SERVICE_SPECS)
    if cold_body is not None and body != cold_body:
        problems.append("warm body differs from the cold body")
    counts.op(label, problems=problems)
    return seconds, body


def service_rounds(daemon: Daemon, seed: int, first: int, count: int,
                   expected: Dict[str, str], counts: Checker,
                   tracer: Optional[Tracer] = None) -> List[Dict]:
    """``count`` rounds from index ``first``.  Each maps ``cold``/``warm``
    to the raw latencies that completed; every ``CALIBRATE_EVERY``-th,
    from the first, maps ``kernel_s`` to the calibration kernel's time
    before the round, once the daemon is idle.

    Dirty pages are written back (``os.sync``, untimed) before each
    submission, so the daemon's fsyncs wait for the submission's own
    writes only, not for earlier rounds' cache entries the kernel has not
    yet flushed.
    """
    rounds = []
    for index in range(first, first + count):
        wait_idle(daemon.child.proc.pid)
        latency: Dict[str, float] = {}
        if (index - first) % CALIBRATE_EVERY == 0:
            latency["kernel_s"] = host_kernel_seconds()
        os.sync()
        cold = submit(daemon, seed, index, "cold", expected, counts, tracer)
        if cold is not None:
            latency["cold"] = cold[0]
            os.sync()
            warm = submit(daemon, seed, index, "warm", expected, counts,
                          tracer, cold_body=cold[1])
            if warm is not None:
                latency["warm"] = warm[0]
        rounds.append(latency)
    return rounds


def run_factor(rounds: List[Dict]) -> float:
    """One speed factor for a run of rounds, from all their calibration
    samples: the daemon's work is not in the calibrating process, so a
    single sample tracks it loosely."""
    return factor_of([r["kernel_s"] for r in rounds if "kernel_s" in r])


def latencies(rounds: List[Dict], kind: str) -> List[float]:
    """The run's ``kind`` (``cold``/``warm``) latencies at the reference
    speed, sorted."""
    factor = run_factor(rounds)
    return sorted(r[kind] * factor for r in rounds if kind in r)


def start_daemon(index: int, seed: int, expected: Dict[str, str],
                 counts: Checker, setup: List[float]) -> Daemon:
    """A daemon past its first op (round 0's cold submission), which ends
    its set-up sample."""
    daemon = Daemon(index)
    try:
        first = submit(daemon, seed, 0, "cold", expected, counts)
        elapsed = perf_counter() - daemon.child.started
        wait_idle(daemon.child.proc.pid)
        setup.append(elapsed * factor_of([host_kernel_seconds()]))
        daemon.warm_up_body = first[1] if first is not None else None
    except BaseException:
        daemon.stop()
        raise
    return daemon


def run_service(run: Run, workload: str, seed: int) -> Dict:
    """The daemon as the child, this process as its one client."""
    mode = "service-replay" if run.trace else "service-ref"
    reference = run.child_result(workload, seed, mode)
    pinned = load_pins(str(run.pins_path)).get("service", {})
    expected = pinned or reference["fingerprints"]
    counts = Checker()
    setup: List[float] = []
    probes = 0 if run.quick or run.trace else SETUP_SAMPLES - 1
    for index in range(probes):
        start_daemon(index, seed, expected, counts, setup).stop()
    rounds = 1 if run.quick else pass_count(workload, run.seconds)
    daemon = start_daemon(probes, seed, expected, counts, setup)
    try:
        # the warm half of the warm-up round, untimed
        submit(daemon, seed, 0, "warm", expected, counts,
               cold_body=daemon.warm_up_body)
        if run.trace:
            # untraced and traced rounds alternate, as the children's
            # passes do, so host drift falls on both sides alike
            untraced, traced = [], []
            tracer = Tracer()
            for index in range(max(1, round(rounds / 5))):
                untraced += service_rounds(daemon, seed, 1 + 2 * index, 1,
                                           expected, counts)
                with tracer:
                    traced += service_rounds(daemon, seed, 2 + 2 * index, 1,
                                             expected, counts, tracer)
        else:
            timed = service_rounds(daemon, seed, 1, rounds, expected, counts)
            peak_rss_mb = daemon_peak_rss_mb(daemon.child.proc.pid)
    finally:
        daemon.stop()

    metrics = dict(reference["metrics"])
    if run.trace:
        metrics.update(service_layer_metrics(untraced, traced, tracer,
                                             metrics, reference["inproc_ms"]))
        metrics.update(scale_times(import_times(child_env(workload)),
                                   factor_of([host_kernel_seconds()])))
        wall = sum(s.duration for s in tracer.spans if s.parent is None)
        tables = [format_layer_table(f"service client spans (seed {seed})",
                                     layer_rows(tracer.spans), wall),
                  format_layer_table("service replay, in-process",
                                     reference["layers"],
                                     reference["wall_s"])]
        chrome = reference["chrome"] + chrome_events(
            tracer.spans, os.getpid(), "service client",
            tracer.spans[0].start)
        return finish(run, workload, seed, reference, counts, metrics,
                      tables=tables, chrome=chrome)
    events = sum(reference["events"].values())
    cold, warm = latencies(timed, "cold"), latencies(timed, "warm")
    kind_ms = [median(values) * 1e3 for values in (cold, warm) if values]
    metrics.update({
        "setup_s": median(setup),
        "events_per_s": events / median(cold) if cold else 0.0,
        "op_ms_geomean": geometric_mean(kind_ms) if kind_ms else 0.0,
        "peak_rss_mb": peak_rss_mb,
    })
    detail = {"rounds": len(timed), "setup_samples": setup,
              "speed_factor": run_factor(timed)}
    for kind, values in (("cold", cold), ("warm", warm)):
        for p in (50, 95):
            detail[f"{kind}_ms_p{p}"] = (percentile(values, p) * 1e3
                                         if values else None)
    return finish(run, workload, seed, reference, counts, metrics,
                  detail=detail)


def service_layer_metrics(untraced: List[Dict], traced: List[Dict],
                          tracer: Tracer, replay: Dict[str, float],
                          inproc_ms: float) -> Dict[str, float]:
    """Client-side spans of the traced rounds, and what the replayed
    in-process layers leave unexplained (all at the reference speed).

    The pool overhead is the cold latency less the in-process time of the
    same specs shared out over the pool's workers: the dispatch cost above
    a perfect split of the work.
    """
    warm_traced = median(latencies(traced, "warm")) * 1e3
    cold_traced = median(latencies(traced, "cold")) * 1e3
    factor = run_factor(traced)
    warm_ops = {id(s) for s in tracer.spans
                if s.name == "op" and s.attrs.get("kind") == "warm"}

    def warm_span_ms(name: str) -> float:
        return factor * 1e3 * median([
            s.duration for s in tracer.spans
            if s.name == name and id(s.parent) in warm_ops])

    return {
        "service.submit_ms": warm_span_ms("service.submit"),
        "service.results_ms": warm_span_ms("service.results"),
        "service.residual_ms": warm_traced - (replay["config.expand_ms"]
                                              + replay["publisher.record_ms"]
                                              + replay["journal.append_ms"]),
        "backends.pool_overhead_ms": cold_traced - inproc_ms / POOL_JOBS,
        "trace.coverage": coverage(tracer.spans),
        "trace.overhead": (warm_traced
                           / (median(latencies(untraced, "warm")) * 1e3) - 1),
    }


def finish(run: Run, workload: str, seed: int, child: Dict, counts: Checker,
           metrics: Dict[str, float], detail: Optional[Dict] = None,
           tables: Optional[List[str]] = None,
           chrome: Optional[List[Dict]] = None) -> Dict:
    """Validate the metric set against BENCHMARK.json; build the record."""
    declared = run.bench["per_layer" if run.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if run.trace:
        # a layer the workload does not pass through did no work in it
        metrics = {**dict.fromkeys(names, 0.0), **metrics}
    extra = sorted(set(metrics) - set(names))
    missing = sorted(set(names) - set(metrics))
    if extra or missing:
        raise RuntimeError(f"{workload}: metrics not in BENCHMARK.json "
                           f"{extra}, missing {missing}")
    checks = child["checks"]
    run.record_pins(workload, checks["new_pins"])
    record = {
        "workload": workload, "seed": seed, "seconds": run.seconds,
        "trace": run.trace, "quick": run.quick,
        "backend": child["backend"],
        "attempted": checks["attempted"] + counts.attempted,
        "failed": checks["failed"] + counts.failed,
        "errors": checks["errors"] + counts.errors,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
        "detail": detail or {},
    }
    record["correct"] = record["failed"] == 0
    for table in tables or ():
        print(table)
    if chrome:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-s{seed}.json"
        path.write_text(json.dumps({"traceEvents": chrome,
                                    "displayTimeUnit": "ms"}))
        record["chrome_trace"] = str(path.relative_to(ROOT))
        print(f"{workload}: Chrome trace written to {record['chrome_trace']}")
    return record


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #
def compare(path_a: str, path_b: str, bench: Dict) -> int:
    """Per workload and end-to-end metric: each side's median and
    quartiles, the bound, and a verdict."""
    sides = []
    for path in (path_a, path_b):
        with open(path, "r", encoding="utf-8") as fh:
            runs = [r for r in json.load(fh)["runs"] if not r["trace"]]
        sides.append(runs)
    header = (f"{'workload':<12} {'metric':<14} {'A median':>12} "
              f"{'A q1..q3':>23} {'B median':>12} {'B q1..q3':>23} "
              f"{'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in NAMES:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in side
                       if r["workload"] == workload] for side in sides]
            if not values[0] or not values[1]:
                continue
            qa, qb = quartiles(values[0]), quartiles(values[1])
            print(f"{workload:<12} {name:<14} {qa[1]:>12.5g} "
                  f"{qa[0]:>11.5g}..{qa[2]:<10.5g} {qb[1]:>12.5g} "
                  f"{qb[0]:>11.5g}..{qb[2]:<10.5g} {metric['bound']:>6.2f}  "
                  f"{verdict(values[0], values[1], metric)}")
    return 0


def verdict(a: List[float], b: List[float], metric: Dict) -> str:
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base = median(a)
    change = (median(b) - base) / abs(base) if base else 0.0
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


# ---------------------------------------------------------------------- #
def summary_line(records: List[Dict]) -> Dict:
    """The last stdout line: one workload run as is, several as medians
    keyed ``workload/metric``."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {}
        for record in records:
            for name, entry in record["metrics"].items():
                key = f"{record['workload']}/{name}"
                metrics.setdefault(key, {"value": [], "unit": entry["unit"]})
                metrics[key]["value"].append(entry["value"])
        metrics = {key: {"value": median(entry["value"]),
                         "unit": entry["unit"]}
                   for key, entry in metrics.items()}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default: {DEFAULT_SEED}, the "
                             f"seed the fingerprints are pinned at)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length: buys round(S / pass time) passes "
                             "per workload (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics, a "
                             "fifth of the ops)")
    parser.add_argument("--quick", action="store_true",
                        help="one timed op per workload, one set-up sample")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, at seeds seed..seed+N-1")
    parser.add_argument("--out", default=str(OUT_DIR / "last-run.json"),
                        help="where to write the JSON record")
    parser.add_argument("--fingerprints", default=str(DEFAULT_PINS),
                        help="pinned result fingerprints")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.exists():
        print(f"error: {bench_path} not found", file=sys.stderr)
        return 1
    bench = json.loads(bench_path.read_text())
    if args.compare:
        return compare(*args.compare, bench)
    if not (ROOT / "setup.py").exists() or not (
            ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: {ROOT} holds no repro source checkout (setup.py, "
              f"src/repro)", file=sys.stderr)
        return 1
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    # children run in their own process groups: a terminated run must
    # unwind through Child.stop rather than leave them behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    extension = ensure_extension()
    workloads = [args.workload] if args.workload else list(NAMES)
    if not extension["present"] and any(BACKENDS[w] == "compiled"
                                        for w in workloads):
        print("error: the compiled kernel could not be built; workloads "
              "measuring it do not fall back to pure", file=sys.stderr)
        return 2
    run = Run(args, bench)
    records = []
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(args.seed, args.seed + args.runs):
            for workload in workloads:
                runner = run_service if workload == "service" else run_sim
                record = runner(run, workload, seed)
                records.append(record)
                tag = " (quick)" if run.quick else ""
                for name, entry in record["metrics"].items():
                    print(f"{workload} {name} {entry['value']:.6g} "
                          f"{entry['unit']}{tag}")
                print(f"{workload} checked {record['attempted']} ops, "
                      f"{record['failed']} failed")
                for error in record["errors"]:
                    print(f"{workload} FAILED {error}")
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.returncode == 2 else 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    report = {
        "schema": 1, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "extension": extension, "seconds": args.seconds,
        "trace": bool(args.trace), "quick": args.quick,
        "backends": {w: BACKENDS[w] for w in workloads},
        "runs": records,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(summary_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
