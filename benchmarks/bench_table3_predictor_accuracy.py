"""Table 3 — accuracy of the store-load pair predictor

Regenerates Table 3 (misprediction and squash rates) via :data:`repro.harness.figures.table3_predictor_accuracy`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/table3.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.table3_predictor_accuracy.cells(SUITE, N)


def test_table3(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.table3_predictor_accuracy.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("table3", result.format())
    assert result.rows
