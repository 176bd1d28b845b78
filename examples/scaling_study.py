"""Scaling study: application speedups under MCS vs GLocks (mini Table IV).

Runs the three application proxies at 2..16 cores with both lock
implementations at reduced input scale and prints the speedup table —
showing where lock overhead starts eating parallel efficiency and how a
2-4-cycle hardware lock pushes that point out.

Run: ``python examples/scaling_study.py``
"""

from repro.analysis.report import format_table
from repro.runner import RunSpec, run_spec

APPS = ("raytr", "ocean", "qsort")
CORES = (2, 4, 8, 16)
SCALE = 0.25


def makespan(name, kind, n_cores):
    spec = RunSpec.benchmark(name, kind, n_cores=n_cores, scale=SCALE)
    return run_spec(spec).makespan


def main():
    rows = []
    for name in APPS:
        base = makespan(name, "mcs", 1)
        for kind, label in (("mcs", "MCS"), ("glock", "GL")):
            speedups = [base / makespan(name, kind, n) for n in CORES]
            rows.append([name.upper(), label] + [f"{s:.2f}" for s in speedups])
    print(format_table(
        ["Benchmark", "Locks"] + [f"{n} cores" for n in CORES], rows,
        title=f"Application scaling (inputs at {SCALE:.0%} of Table III)",
    ))
    print("\nGL rows should dominate their MCS rows, with the gap widening "
          "as cores grow\n(the full-scale 4..32-core version is "
          "benchmarks/bench_table4_speedup.py).")


if __name__ == "__main__":
    main()
