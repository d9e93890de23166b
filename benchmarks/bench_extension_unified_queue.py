"""Extension: unified vs split load/store queue.

The paper notes in passing that "in a modern processor, the load/store
queue is implemented as two separate queues" and draws Figure 5's
combined queue only "for brevity".  This bench makes the implicit
trade-off explicit: a unified CAM shares capacity between loads and
stores (good for lopsided mixes like mgrid's 51/2 or vortex's 18/23)
but every search competes for one port pool (bad under bandwidth
pressure) — which is why the split design is the standard.
"""

from dataclasses import replace

from repro.config import LsqConfig, base_machine, conventional_lsq
from repro.stats.report import format_table

from conftest import SUBSET, cell, emit, lookup

CONFIGS = {
    "split-2p": conventional_lsq(ports=2),
    "unified-2p": LsqConfig(unified_queue=True, search_ports=2),
    "split-1p": conventional_lsq(ports=1),
    "unified-1p": LsqConfig(unified_queue=True, search_ports=1),
    "unified-4p": LsqConfig(unified_queue=True, search_ports=4),
}
MACHINES = {label: replace(base_machine(), lsq=lsq)
            for label, lsq in CONFIGS.items()}

CELLS = [cell(bench, machine) for bench in SUBSET
         for machine in MACHINES.values()]


def _sweep(results):
    rows = []
    for bench in SUBSET:
        base_ipc = lookup(results, bench, MACHINES["split-2p"]).ipc
        row = [bench]
        for machine in MACHINES.values():
            ipc = lookup(results, bench, machine).ipc
            row.append(f"{(ipc / base_ipc - 1) * 100:+.1f}%")
        rows.append(row)
    return rows


def test_unified_vs_split(benchmark, results):
    rows = benchmark.pedantic(lambda: _sweep(results), rounds=1,
                              iterations=1)
    emit("extension_unified_queue", format_table(
        ["bench"] + list(CONFIGS), rows,
        title="Extension: unified (combined) vs split LQ/SQ — shared "
              "capacity vs shared search bandwidth (both 32+32 entries "
              "total)"))
    assert rows
