"""Regenerate the paper's tables and figures from the command line.

Usage::

    python examples/reproduce_paper.py              # list experiments
    python examples/reproduce_paper.py fig10        # one experiment
    python examples/reproduce_paper.py all          # everything

The requested experiments run as one batch: a machine several of them
share is simulated once, and each benchmark's trace is generated once.

Environment:

``REPRO_BENCH_INSTRUCTIONS`` — trace length per benchmark (default 6000).
``REPRO_BENCH_SUBSET``       — comma-separated benchmark subset.
"""

import os
import sys
import time

from repro.harness import SweepEngine, default_instructions, figures
from repro.workload import ALL_BENCHMARKS


def main() -> None:
    if len(sys.argv) < 2:
        print("Available experiments:")
        for key, experiment in figures.ALL_EXPERIMENTS.items():
            summary = (experiment.render.__doc__ or "").strip().splitlines()[0]
            print(f"  {key:8s} {summary}")
        print("\nUsage: python examples/reproduce_paper.py "
              "<experiment|all> [more...]")
        return

    names = sys.argv[1:]
    if names == ["all"]:
        names = list(figures.ALL_EXPERIMENTS)
    for name in names:
        if name not in figures.ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from "
                  f"{sorted(figures.ALL_EXPERIMENTS)}")
    names = [name for name in names if name in figures.ALL_EXPERIMENTS]
    if not names:
        return

    subset = os.environ.get("REPRO_BENCH_SUBSET", "")
    benchmarks = (tuple(s.strip() for s in subset.split(",") if s.strip())
                  or ALL_BENCHMARKS)
    started = time.time()
    results = figures.run_experiments(names, benchmarks,
                                      default_instructions(), SweepEngine())
    for name in names:
        print(f"\n{results[name].format()}")
    print(f"[{' '.join(names)}: {time.time() - started:.1f}s]")


if __name__ == "__main__":
    main()
