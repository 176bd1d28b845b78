"""Integration tests: every experiment harness runs at reduced scale and
reproduces the paper's qualitative findings (the acceptance criteria listed
in DESIGN.md)."""

import pytest

from repro.experiments import common
from repro.experiments import (  # noqa: F401  (import check)
    fig01_ideal,
    fig07_contention,
    fig08_exectime,
    fig09_traffic,
    fig10_ed2p,
    table1_cost,
    table4_speedup,
)
from repro.runner import RunSpec, run_spec

SCALE = 0.05
CORES = 8


@pytest.fixture(autouse=True)
def _fresh_cache():
    common.clear_cache()
    yield
    common.clear_cache()


def test_fig01_shape():
    res = fig01_ideal.run(scale=0.1, n_cores=CORES)
    t = {cfg: res[cfg]["normalized_time"] for cfg in fig01_ideal.CONFIGS}
    assert t["TATAS"] == pytest.approx(1.0)
    assert t["IDEAL"] < t["TATAS"]                  # ideal locks win
    assert t["TATAS-2"] <= t["TATAS-1"] + 0.05      # idealizing both >= one
    # the paper's headline: idealizing only the HC locks recovers nearly all
    # (the effect is mild at this reduced scale/core count; the full-scale
    # 32-core run in benchmarks/ shows the dramatic version)
    assert t["TATAS-2"] < t["TATAS"] * 0.98
    assert abs(t["TATAS-2"] - t["IDEAL"]) < 0.1
    assert "normalized time" in fig01_ideal.render(res)


def test_fig07_microbench_contention_high():
    res = fig07_contention.run(scale=SCALE, n_cores=CORES,
                               benchmarks=("sctr", "actr"))
    sctr = res["sctr"]["SCTR-L1"]
    assert sctr.aggregate_rate(CORES // 2) > 0.4
    # ACTR's barrier spreads contention: lower high-grAC mass than SCTR
    actr = res["actr"]["ACTR-L1"]
    assert actr.aggregate_rate(CORES // 2) <= sctr.aggregate_rate(CORES // 2)
    assert "SCTR-L1" in fig07_contention.render(res)


def test_fig08_glocks_beat_mcs_everywhere():
    res = fig08_exectime.run(scale=SCALE, n_cores=CORES,
                             benchmarks=("sctr", "mctr", "prco"))
    for name, ratio in res["ratios"].items():
        assert ratio < 1.0, f"{name}: GL should beat MCS"
    bars = res["bars"]["sctr"]
    assert sum(bars["MCS"].values()) == pytest.approx(1.0)
    assert sum(bars["GL"].values()) == pytest.approx(res["ratios"]["sctr"])
    assert "AvgM" in res["averages"]
    assert "Figure 8" in fig08_exectime.render(res)


def test_fig09_traffic_reductions():
    res = fig09_traffic.run(scale=SCALE, n_cores=CORES,
                            benchmarks=("sctr", "mctr"))
    # MCTR: essentially all traffic is lock traffic -> near-total reduction
    assert res["ratios"]["mctr"] < 0.1
    assert res["ratios"]["sctr"] < 1.0
    assert "Figure 9" in fig09_traffic.render(res)


def test_fig10_ed2p_improves():
    res = fig10_ed2p.run(scale=SCALE, n_cores=CORES, benchmarks=("sctr",))
    assert res["bars"]["sctr"]["GL"] < 1.0
    comp = res["components"]["sctr"]
    assert comp["GL"]["gline"] > 0 and comp["MCS"]["gline"] == 0
    assert "Figure 10" in fig10_ed2p.render(res)


def test_table1_model_and_measurement_agree():
    res = table1_cost.run(n_cores=49)
    cost, measured = res["cost"], res["measured"]
    assert measured["acquire_worst"] == cost.acquire_worst_cycles == 4
    assert measured["acquire_best"] == cost.acquire_best_cycles == 2
    assert measured["release"] == cost.release_cycles == 1
    assert "measured" in table1_cost.render(res)


def test_table4_speedups_shape():
    res = table4_speedup.run(scale=0.1, core_counts=(2, 4),
                             benchmarks=("ocean",))
    mcs = res[("ocean", "MCS")]
    gl = res[("ocean", "GL")]
    # scaling with core count, GL >= MCS (small tolerance at tiny scale)
    assert mcs[4] > mcs[2] > 1.0
    assert gl[4] >= mcs[4] * 0.95
    assert "Table IV" in table4_speedup.render(res)


def test_common_cache_returns_same_object():
    spec = RunSpec.benchmark("sctr", "mcs", n_cores=4, scale=SCALE)
    a = run_spec(spec)
    b = run_spec(spec)
    assert a is b
    common.clear_cache()
    c = run_spec(spec)
    assert c is not a
    # determinism across cache clears
    assert c.makespan == a.makespan
