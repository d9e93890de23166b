"""Figure 12 — all three techniques on base and scaled processors

Regenerates Figure 12 (1-ported all-techniques LSQ vs 2-ported conventional) via :data:`repro.harness.figures.fig12_all_techniques`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/fig12.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.fig12_all_techniques.cells(SUITE, N)


def test_fig12(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.fig12_all_techniques.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("fig12", result.format())
    assert result.rows
