"""Figure 7 — performance benefit of the SQ search reduction

Regenerates Figure 7 (speedups of the three predictors over the base case) via :data:`repro.harness.figures.fig7_sq_speedup`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig7.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig7_sq_speedup.cells(SUITE, N)


def test_fig7(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig7_sq_speedup.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig7", result.format())
    assert result.rows
