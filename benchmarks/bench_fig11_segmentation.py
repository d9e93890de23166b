"""Figure 11 — segmented load/store queue

Regenerates Figure 11 (no-self-circular / self-circular / 128-entry flat) via :data:`repro.harness.figures.fig11_segmentation`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig11.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig11_segmentation.cells(SUITE, N)


def test_fig11(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig11_segmentation.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig11", result.format())
    assert result.rows
