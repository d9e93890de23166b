"""Figure 6 — store-queue search-bandwidth reduction

Regenerates Figure 6 (SQ search demand for perfect/aggressive/pair predictors) via :data:`repro.harness.figures.fig6_sq_bandwidth`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig6.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig6_sq_bandwidth.cells(SUITE, N)


def test_fig6(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig6_sq_bandwidth.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig6", result.format())
    assert result.rows
