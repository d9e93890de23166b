"""Figure 8 — load-queue search-bandwidth reduction

Regenerates Figure 8 (LQ search demand with a 2-entry load buffer) via :data:`repro.harness.figures.fig8_lq_bandwidth`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig8.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig8_lq_bandwidth.cells(SUITE, N)


def test_fig8(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig8_lq_bandwidth.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig8", result.format())
    assert result.rows
