"""Table 4 — average number of out-of-order-issued loads

Regenerates Table 4 (per-cycle average of loads issued out of program order) via :data:`repro.harness.figures.table4_ooo_loads`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/table4.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.table4_ooo_loads.cells(SUITE, N)


def test_table4(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.table4_ooo_loads.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("table4", result.format())
    assert result.rows
