"""Extension: seed-stability of the headline result.

Synthetic traces are the only stochastic input to a run.  This bench
re-rolls the generator seed and reports the headline Figure 10/12
speedup (1-ported all-techniques vs 2-ported conventional) as
mean ± half-range over the seeds, confirming the conclusions are not an
artifact of one particular trace instance.
"""

from dataclasses import replace

from repro.config import base_machine, conventional_lsq, full_techniques_lsq
from repro.stats.report import confidence, format_table

from conftest import SUBSET, cell, emit, lookup

SEEDS = (0, 1, 2)
BASE = replace(base_machine(), lsq=conventional_lsq(ports=2))
TECHNIQUES = replace(base_machine(), lsq=full_techniques_lsq(ports=1))

CELLS = [cell(bench, machine, seed) for bench in SUBSET
         for machine in (BASE, TECHNIQUES) for seed in SEEDS]


def _sweep(results):
    rows = []
    for bench in SUBSET:
        speedups = [lookup(results, bench, TECHNIQUES, seed).ipc
                    / lookup(results, bench, BASE, seed).ipc - 1
                    for seed in SEEDS]
        mean, spread = confidence(speedups)
        rows.append([bench, f"{mean * 100:+.1f}%", f"+/-{spread * 100:.1f}pt",
                     " ".join(f"{s * 100:+.0f}" for s in speedups)])
    return rows


def test_seed_stability(benchmark, results):
    rows = benchmark.pedantic(lambda: _sweep(results), rounds=1,
                              iterations=1)
    emit("extension_seed_stability", format_table(
        ["bench", "mean speedup", "spread", "per-seed"], rows,
        title=f"Extension: 1p all-techniques vs 2p conventional across "
              f"generator seeds {SEEDS}"))
    assert rows
