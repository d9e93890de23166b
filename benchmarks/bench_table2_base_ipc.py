"""Table 2 — applications and their base IPCs

Regenerates the paper's Table 2 (base IPC per benchmark) via :data:`repro.harness.figures.table2_base_ipc`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/table2.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.table2_base_ipc.cells(SUITE, N)


def test_table2(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.table2_base_ipc.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("table2", result.format())
    assert result.rows
