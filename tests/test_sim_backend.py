"""Kernel-backend selection and pure/compiled parity.

The compiled backend (``repro.sim._ckernel``) must be bit-identical to
the pure kernel: a determinism-golden subset is replayed here under each
backend explicitly (skip-if-uncompiled), every Table III workload runs
on both with the same result, event count and protocol rows, and the
CLI knobs that expose the selection (``--backend``, ``--list-backends``)
are exercised end-to-end, including the exit-2 one-liner when
``--backend=compiled`` is requested on a machine without the extension.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.machine import Machine
from repro.runner.engine import execute_spec
from repro.runner.fingerprint import result_fingerprint
from repro.runner.spec import RunSpec
from repro.sim import kernel

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "determinism_golden.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)["entries"]

#: parity subset: first two clean entries, one faulted, one serving
SUBSET = (
    [e for e in GOLDEN if not e["spec"]["machine"].get("fault_plan")][:2]
    + [e for e in GOLDEN if e["spec"]["machine"].get("fault_plan")][:1]
    + [e for e in GOLDEN
       if e["spec"]["workload"].startswith("serving")][:1]
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _subset_id(entry):
    spec = entry["spec"]
    machine = spec["machine"]
    faults = "faults" if machine.get("fault_plan") else "clean"
    return (f"{spec['workload']}-{machine['config']['n_cores']}c-"
            f"{spec['hc_kind']}-{faults}")


@pytest.mark.parametrize("entry", SUBSET, ids=_subset_id)
def test_golden_fingerprints_identical_across_backends(backend, entry):
    """Each backend reproduces the seed goldens byte-for-byte."""
    assert kernel.active_backend() == backend
    spec = RunSpec.from_dict(entry["spec"])
    assert spec.digest() == entry["spec_digest"]
    run = execute_spec(spec)
    assert run.result.makespan == entry["makespan"]
    assert result_fingerprint(run.result) == entry["result_fingerprint"], \
        f"{backend} backend diverged from the golden fingerprint"


TABLE3 = [(bench, lock)
          for bench in ("sctr", "mctr", "dbll", "prco", "actr", "raytr",
                        "ocean", "qsort")
          for lock in ("glock", "mcs")]


def _sanitized_run(backend_name, spec, monkeypatch):
    """Result fingerprint, events executed and protocol rows taken."""
    machines = []
    init = Machine.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        machines.append(self)

    prev = kernel.active_backend()
    with monkeypatch.context() as patch:
        patch.setattr(Machine, "__init__", recording)
        kernel.set_backend(backend_name)
        try:
            run = execute_spec(spec)
        finally:
            kernel.set_backend(prev)
    (machine,) = machines
    return (result_fingerprint(run.result), machine.sim.events_executed,
            machine.sanitizer.transitions_seen)


@pytest.mark.parametrize("bench, lock", TABLE3,
                         ids=[f"{b}-{lk}" for b, lk in TABLE3])
def test_table3_runs_identically_on_both_kernels(bench, lock, monkeypatch):
    """The compiled kernel interprets the protocol rows the pure one
    compiles: same result, same events, same rows taken."""
    if "compiled" not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    spec = RunSpec.benchmark(bench, lock, n_cores=16, scale=0.05,
                             sanitize=True)
    pure = _sanitized_run("pure", spec, monkeypatch)
    assert pure[2], "the sanitizer saw no transition"
    assert _sanitized_run("compiled", spec, monkeypatch) == pure


# --------------------------------------------------------------------- #
# selection API
# --------------------------------------------------------------------- #
def test_active_backend_is_available():
    assert kernel.active_backend() in kernel.available_backends()
    assert "pure" in kernel.available_backends()


def test_resolve_backend_auto_prefers_compiled():
    expected = ("compiled" if "compiled" in kernel.available_backends()
                else "pure")
    assert kernel.resolve_backend("auto") == expected


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown simulator backend"):
        kernel.resolve_backend("jit")


def test_set_backend_round_trip():
    prev = kernel.active_backend()
    try:
        assert kernel.set_backend("pure") == "pure"
        assert kernel.active_backend() == "pure"
        assert kernel.set_backend("auto") == kernel.resolve_backend("auto")
    finally:
        kernel.set_backend(prev)


# --------------------------------------------------------------------- #
# CLI knobs (subprocess: backend availability is a process-level fact)
# --------------------------------------------------------------------- #
def _cli(args, disable_cext=False):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    env.pop("REPRO_SIM_BACKEND", None)
    if disable_cext:
        env["REPRO_SIM_DISABLE_CEXT"] = "1"
    else:
        env.pop("REPRO_SIM_DISABLE_CEXT", None)
    return subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_cli_backend_compiled_exits_2_when_extension_absent():
    proc = _cli(["run", "--workload", "sctr", "--lock", "glock",
                 "--backend", "compiled"], disable_cext=True)
    assert proc.returncode == 2
    lines = [l for l in proc.stderr.splitlines() if l.strip()]
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:")
    assert "not built" in lines[0]


def test_cli_list_backends_marks_auto_resolution():
    proc = _cli(["run", "--list-backends"], disable_cext=True)
    assert proc.returncode == 0
    out = proc.stdout.splitlines()
    assert out[0] == "pure  <- auto"
    assert out[1].startswith("compiled  (not built")


def test_cli_backend_pure_runs_and_reports():
    proc = _cli(["run", "--workload", "sctr", "--lock", "glock",
                 "--scale", "0.1", "--backend", "pure"])
    assert proc.returncode == 0, proc.stderr
    assert "makespan" in proc.stdout
