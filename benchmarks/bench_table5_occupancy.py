"""Table 5 — average entries needed in the load and store queues

Regenerates Table 5 (LQ/SQ occupancy demand measured with large queues) via :data:`repro.harness.figures.table5_occupancy`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/table5.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.table5_occupancy.cells(SUITE, N)


def test_table5(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.table5_occupancy.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("table5", result.format())
    assert result.rows
