"""Figure 9 — load-buffer performance sweep

Regenerates Figure 9 (in-order variants and 1/2/4-entry load buffers) via :data:`repro.harness.figures.fig9_load_buffer_speedup`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig9.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig9_load_buffer_speedup.cells(SUITE, N)


def test_fig9(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig9_load_buffer_speedup.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig9", result.format())
    assert result.rows
