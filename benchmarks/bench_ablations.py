"""Ablation benches for the design decisions DESIGN.md calls out.

Each ablation sweeps one knob of the paper's design on a four-benchmark
subset and reports speedups relative to the 2-ported conventional base:

* **detection point** — the pair predictor requires store-load ordering
  checks at store *commit*; what would detection at *execute* cost/win?
* **LFST counter width** — the paper states 3 bits suffice.
* **early scheduling** — Section 3 forgoes speculative wakeup of load
  dependents outside the head segment; toggle it.
* **contention policy** — Section 3.2 squashes colliding in-flight
  loads; the alternative stalls the pipelined search.
"""

from dataclasses import replace

from repro.config import (
    ContentionPolicy,
    base_machine,
    conventional_lsq,
    segmented_lsq,
    techniques_lsq,
)
from repro.stats.report import format_table

from conftest import SUBSET, cell, emit, lookup

BASE = replace(base_machine(), lsq=conventional_lsq(ports=2))


def _lsq_variants(variants):
    return {label: replace(base_machine(), lsq=lsq)
            for label, lsq in variants.items()}


def _counter_bits_machine(bits):
    machine = base_machine()
    return replace(machine, lsq=techniques_lsq(ports=1),
                   store_sets=replace(machine.store_sets, counter_bits=bits))


#: Each ablation's variants: column label -> machine.
DETECTION_POINT = _lsq_variants({
    "commit (paper)": techniques_lsq(ports=1),
    "execute": replace(techniques_lsq(ports=1), detect_at_commit=False),
})
COUNTER_BITS = {f"{bits}-bit": _counter_bits_machine(bits)
                for bits in (1, 2, 3, 4)}
EARLY_SCHEDULING = _lsq_variants({
    "head-only (paper)": segmented_lsq(ports=2),
    "always-early": replace(segmented_lsq(ports=2),
                            early_scheduling_head_only=False),
})
CONTENTION_POLICY = _lsq_variants({
    "squash (paper)": replace(segmented_lsq(ports=1),
                              contention=ContentionPolicy.SQUASH),
    "stall": replace(segmented_lsq(ports=1),
                     contention=ContentionPolicy.STALL),
})

CELLS = [cell(bench, machine) for bench in SUBSET
         for variants in (DETECTION_POINT, COUNTER_BITS, EARLY_SCHEDULING,
                          CONTENTION_POLICY)
         for machine in [BASE, *variants.values()]]


def _speedups(results, variants):
    rows = []
    for bench in SUBSET:
        base_ipc = lookup(results, bench, BASE).ipc
        row = [bench]
        for machine in variants.values():
            ipc = lookup(results, bench, machine).ipc
            row.append(f"{(ipc / base_ipc - 1) * 100:+.1f}%")
        rows.append(row)
    return rows, list(variants)


def test_ablation_detection_point(benchmark, results):
    rows, labels = benchmark.pedantic(
        lambda: _speedups(results, DETECTION_POINT), rounds=1, iterations=1)
    emit("ablation_detection_point", format_table(
        ["bench"] + labels, rows,
        title="Ablation: store-load violation detection point "
              "(1-ported pair predictor + load buffer)"))


def test_ablation_counter_bits(benchmark, results):
    rows, labels = benchmark.pedantic(
        lambda: _speedups(results, COUNTER_BITS), rounds=1, iterations=1)
    emit("ablation_counter_bits", format_table(
        ["bench"] + labels, rows,
        title="Ablation: LFST in-flight-store counter width "
              "(paper: 3 bits suffice)"))


def test_ablation_early_scheduling(benchmark, results):
    rows, labels = benchmark.pedantic(
        lambda: _speedups(results, EARLY_SCHEDULING), rounds=1, iterations=1)
    emit("ablation_early_scheduling", format_table(
        ["bench"] + labels, rows,
        title="Ablation: early scheduling of load dependents in the "
              "segmented LSQ"))


def test_ablation_contention_policy(benchmark, results):
    rows, labels = benchmark.pedantic(
        lambda: _speedups(results, CONTENTION_POLICY), rounds=1,
        iterations=1)
    emit("ablation_contention_policy", format_table(
        ["bench"] + labels, rows,
        title="Ablation: pipelined-search contention resolution "
              "(1-ported segmented LSQ)"))
