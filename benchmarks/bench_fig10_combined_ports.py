"""Figure 10 — both bandwidth techniques across port counts

Regenerates Figure 10 (1p/2p/4p with and without the techniques) via :data:`repro.harness.figures.fig10_combined_ports`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig10.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig10_combined_ports.cells(SUITE, N)


def test_fig10(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig10_combined_ports.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig10", result.format())
    assert result.rows
