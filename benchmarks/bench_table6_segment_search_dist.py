"""Table 6 — distribution of segments searched per load

Regenerates Table 6 (how many segments a forwarding search touches) via :data:`repro.harness.figures.table6_segment_distribution`.
Run with ``-s`` to see the table; it is also written to
``benchmarks/results/table6.txt``.
"""

from repro.harness import figures

from conftest import N, SUITE, emit

CELLS = figures.table6_segment_distribution.cells(SUITE, N)


def test_table6(benchmark, results):
    result = benchmark.pedantic(
        lambda: figures.table6_segment_distribution.from_batch(results, SUITE, N),
        rounds=1, iterations=1)
    emit("table6", result.format())
    assert result.rows
