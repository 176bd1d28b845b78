"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e`` (about 20 s).  Each benchmark invocation uses
``--quick``: one timed op per workload and a single set-up sample.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from stats import percentile  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_quick(tmp_path: Path, *args: str, pins: Path = None):
    """``run.py --quick``: (last stdout line, the --out report)."""
    if pins is None:
        pins = tmp_path / "fingerprints.json"
        shutil.copy(HERE / "fingerprints.json", pins)
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         "--fingerprints", str(pins), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_every_declared_metric_is_emitted_and_only_those(tmp_path, trace,
                                                         section):
    last, report = run_quick(tmp_path, "--trace", trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert ({r["workload"] for r in report["runs"]}
            == {w["name"] for w in BENCH["workloads"]})
    for record in report["runs"]:
        assert record["quick"]
        emitted = {name: entry["unit"]
                   for name, entry in record["metrics"].items()}
        assert emitted == declared, record["workload"]


def test_one_workload_reports_plain_metric_names(tmp_path):
    last, _ = run_quick(tmp_path, "--workload", "overload")
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_tampered_pinned_fingerprint_counts_as_failed_op(tmp_path):
    pins = json.loads((HERE / "fingerprints.json").read_text())
    pins["table3"] = {key: "0" * 64 for key in pins["table3"]}
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(pins))
    last, report = run_quick(tmp_path, "--workload", "table3",
                             pins=tampered)
    assert not last["correct"]
    assert 0 < last["failed"] <= last["attempted"]
    assert any("pinned" in error for error in report["runs"][0]["errors"])


def test_percentile_agrees_with_repro():
    from repro.analysis.latency import percentile as reference

    rng = random.Random(7)
    for n in (1, 2, 3, 10, 101, 1000):
        values = sorted(rng.randint(0, 10_000) for _ in range(n))
        for p in (0, 1, 50, 90, 95, 99, 99.9, 100):
            assert percentile(values, p) == reference(values, p)
