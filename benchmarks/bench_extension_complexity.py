"""Extension: the performance / design-complexity Pareto.

The paper's title claim is about *complexity*: its techniques let a
simpler LSQ (fewer ports, smaller searched CAM) match or beat a more
complex one.  This bench tabulates each evaluated design's speedup
alongside first-order CAM area, cycle-time pressure, and total dynamic
search energy (see :mod:`repro.core.complexity`).
"""

from dataclasses import replace

from repro.config import (
    base_machine,
    conventional_lsq,
    full_techniques_lsq,
    segmented_lsq,
    techniques_lsq,
)
from repro.core.complexity import pareto_row, search_energy
from repro.stats.report import format_table, geometric_mean

from conftest import SUITE, cell, emit, lookup

DESIGNS = {
    "2p-conventional": conventional_lsq(ports=2),
    "4p-conventional": conventional_lsq(ports=4),
    "2p-128-flat": conventional_lsq(ports=2, lq_entries=128,
                                    sq_entries=128),
    "1p-techniques": techniques_lsq(ports=1),
    "2p-segmented": segmented_lsq(ports=2),
    "1p-all-techniques": full_techniques_lsq(ports=1),
}

CELLS = [cell(bench, replace(base_machine(), lsq=lsq))
         for lsq in DESIGNS.values() for bench in SUITE]


def _suite(results, lsq):
    machine = replace(base_machine(), lsq=lsq)
    return {bench: lookup(results, bench, machine) for bench in SUITE}


def _pareto(results):
    base_lsq = DESIGNS["2p-conventional"]
    base = _suite(results, base_lsq)
    rows = []
    for label, lsq in DESIGNS.items():
        suite = _suite(results, lsq)
        ipc_ratio = geometric_mean(
            [suite[b].ipc / base[b].ipc for b in suite])
        energy_ratio = geometric_mean(
            [search_energy(suite[b].stats, lsq)
             / max(search_energy(base[b].stats, base_lsq), 1e-9)
             for b in suite])
        sample = next(iter(suite))
        row = pareto_row(label, suite[sample].stats, lsq,
                         base[sample].stats, base_lsq)
        row["speedup"] = f"{(ipc_ratio - 1) * 100:+.1f}%"
        row["search-energy"] = f"{energy_ratio:.2f}x"
        rows.append(row)
    return rows


def test_complexity_pareto(benchmark, results):
    rows = benchmark.pedantic(lambda: _pareto(results), rounds=1,
                              iterations=1)
    headers = list(rows[0])
    emit("extension_complexity_pareto", format_table(
        headers, [[row[h] for h in headers] for row in rows],
        title="Extension: performance vs design complexity "
              "(suite geomeans; area/cycle-time/energy relative to the "
              "2-ported conventional base)"))
    assert rows
