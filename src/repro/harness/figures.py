"""The paper's evaluation (Section 4) as one declared grid.

Each table and figure is an :class:`Experiment`: the machine behind each
of its columns, and a pure render from their results to an
:class:`ExperimentResult` whose rows mirror the paper's X axis (the
benchmarks, INT then FP) and whose columns mirror the bars or series of
the original figure.  ``result.format()`` renders the plain-text
equivalent that the benchmark harness prints.

:func:`run_experiments` runs any set of experiments as one
:meth:`~repro.harness.engine.SweepEngine.run_cells` batch over
benchmarks x distinct machines: a machine several experiments declare
(the 2-ported conventional base, say) is simulated once, and the engine
generates each benchmark's trace once for all of its machines.  The
engine's disk cache is the only result cache.

Mapping (see DESIGN.md for the full index):

========  ==================================================
Table 2   :data:`table2_base_ipc`
Figure 6  :data:`fig6_sq_bandwidth`
Figure 7  :data:`fig7_sq_speedup`
Table 3   :data:`table3_predictor_accuracy`
Figure 8  :data:`fig8_lq_bandwidth`
Table 4   :data:`table4_ooo_loads`
Figure 9  :data:`fig9_load_buffer_speedup`
Figure 10 :data:`fig10_combined_ports`
Figure 11 :data:`fig11_segmentation`
Table 5   :data:`table5_occupancy`
Table 6   :data:`table6_segment_distribution`
Figure 12 :data:`fig12_all_techniques`
========  ==================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.config import (
    AllocationPolicy,
    LoadQueueSearchMode,
    LsqConfig,
    MachineConfig,
    PredictorMode,
    base_machine,
    conventional_lsq,
    full_techniques_lsq,
    scaled_machine,
    segmented_lsq,
    techniques_lsq,
)
from repro.harness.engine import Cell, CellResult, SweepEngine
from repro.pipeline.processor import SimulationResult
from repro.stats.report import format_table, geometric_mean
from repro.workload import FP_BENCHMARKS, INT_BENCHMARKS, profile_for


def default_instructions() -> int:
    """Per-trace dynamic instruction count: the current value of the
    ``REPRO_BENCH_INSTRUCTIONS`` environment variable, default 6000 —
    long enough for steady-state behaviour with warmed caches and
    predictors, short enough that the whole suite runs in about a minute
    of pure-Python simulation."""
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "6000"))


#: What a render reads: column label -> benchmark -> result.
Grid = Dict[str, Dict[str, SimulationResult]]
#: Per-benchmark table values: benchmark -> column -> value.
Values = Dict[str, Dict[str, float]]


@dataclass
class ExperimentResult:
    """Structured result of one figure/table reproduction."""

    name: str
    headers: List[str]
    rows: List[List]            # one per benchmark, then suite averages
    notes: str = ""

    def format(self) -> str:
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def by_benchmark(self, column: int) -> Dict[str, float]:
        """Column values keyed by benchmark name (skips average rows)."""
        averages = {"Int.Avg", "Fp.Avg"}
        return {row[0]: row[column] for row in self.rows
                if row[0] not in averages}


@dataclass(frozen=True)
class Experiment:
    """One table or figure, declared as data: the machine behind each
    column (base columns included) and a pure render over their
    results."""

    columns: Dict[str, MachineConfig]
    render: Callable[[Grid], ExperimentResult]

    def cells(self, benchmarks: Sequence[str],
              n_instructions: int) -> List[Cell]:
        """Every column's machine on every benchmark."""
        return [Cell(benchmark=bench, machine=machine,
                     n_instructions=n_instructions, label=label)
                for label, machine in self.columns.items()
                for bench in benchmarks]

    def from_batch(self, results: Mapping[str, CellResult],
                   benchmarks: Sequence[str],
                   n_instructions: int) -> ExperimentResult:
        """Render from a batch's results, keyed by :meth:`Cell.digest`."""
        grid: Grid = {label: {} for label in self.columns}
        for cell in self.cells(benchmarks, n_instructions):
            grid[cell.label][cell.benchmark] = results[cell.digest()].result
        return self.render(grid)


def _experiment(columns: Dict[str, MachineConfig]
                ) -> Callable[[Callable[[Grid], ExperimentResult]],
                              Experiment]:
    """Declare the decorated render as an experiment over ``columns``."""
    return lambda render: Experiment(columns, render)


def run_batch(cells: Iterable[Cell],
              engine: SweepEngine) -> Dict[str, CellResult]:
    """Run ``cells`` as one engine batch, each distinct cell once.

    Cells are deduplicated by :meth:`Cell.digest` (experiments share
    machines), so the engine sees every point of the grid exactly once
    and can group it with the other cells of its trace.  Results come
    back keyed by digest.
    """
    unique: Dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.digest(), cell)
    return dict(zip(unique, engine.run_cells(
        [cell for __, cell in unique.items()])))


def run_experiments(names: Sequence[str], benchmarks: Sequence[str],
                    n_instructions: int,
                    engine: SweepEngine) -> Dict[str, ExperimentResult]:
    """Run the experiments ``names`` over ``benchmarks`` as one batch
    (:func:`run_batch`) and render each."""
    experiments = {name: ALL_EXPERIMENTS[name] for name in names}
    results = run_batch(
        [cell for __, experiment in experiments.items()
         for cell in experiment.cells(benchmarks, n_instructions)], engine)
    return {name: experiment.from_batch(results, benchmarks, n_instructions)
            for name, experiment in experiments.items()}


def _suite_rows(values: Values, columns: Sequence[str],
                fmt: Callable[[float], str] = lambda v: f"{v:.3f}",
                average: str = "geomean") -> List[List]:
    """Assemble per-benchmark rows plus Int.Avg / Fp.Avg rows.  A group
    with no member among ``values`` gets no average row."""
    rows: List[List] = []
    for name in list(INT_BENCHMARKS) + list(FP_BENCHMARKS):
        if name not in values:
            continue
        rows.append([name] + [fmt(values[name][c]) for c in columns])
    for label, names in [("Int.Avg", INT_BENCHMARKS), ("Fp.Avg", FP_BENCHMARKS)]:
        members = [n for n in names if n in values]
        if not members:
            continue
        row = [label]
        for c in columns:
            series = [values[n][c] for n in members]
            if average == "geomean":
                row.append(fmt(geometric_mean([max(v, 1e-9) for v in series])))
            else:
                row.append(fmt(sum(series) / len(series)))
        rows.append(row)
    return rows


def _over_base(grid: Grid) -> Dict[str, Tuple[str, str]]:
    """Every column but ``"base"``, each paired with ``"base"``."""
    return {label: (label, "base") for label in grid if label != "base"}


def _relative(grid: Grid, pairs: Dict[str, Tuple[str, str]],
              metric: Callable[[SimulationResult], float] = attrgetter("ipc"),
              floor: float = 0.0) -> Values:
    """Per benchmark, each label's ``metric(test) / metric(base)`` over
    its (test column, base column) pair.  The denominator is at least
    ``floor`` (1 for event counts, which can be zero)."""
    values: Values = {}
    for label, (test, base) in pairs.items():
        for bench, base_result in grid[base].items():
            values.setdefault(bench, {})[label] = (
                metric(grid[test][bench]) / max(metric(base_result), floor))
    return values


def _gain(ratio: float) -> str:
    return f"{(ratio - 1.0) * 100:+.1f}%"


def _ratio(v: float) -> str:
    return f"{v:.2f}"


def _on_base(lsq: LsqConfig) -> MachineConfig:
    """The Table 1 base machine with its LSQ replaced by ``lsq``."""
    return replace(base_machine(), lsq=lsq)


#: The 2-ported conventional LSQ every LSQ figure is measured against.
_CONVENTIONAL_2P = _on_base(conventional_lsq(ports=2))


# ---------------------------------------------------------------------------
# Table 2 — base IPCs
# ---------------------------------------------------------------------------

@_experiment({"base": base_machine()})
def table2_base_ipc(grid: Grid) -> ExperimentResult:
    """Applications and their base IPCs (Table 2)."""
    values = {name: {"measured": res.ipc,
                     "paper": profile_for(name).base_ipc}
              for name, res in grid["base"].items()}
    rows = _suite_rows(values, ["measured", "paper"],
                       fmt=lambda v: f"{v:.2f}", average="mean")
    return ExperimentResult(
        name="Table 2: base IPCs (2-ported conventional LSQ)",
        headers=["bench", "measured IPC", "paper IPC"],
        rows=rows)


# ---------------------------------------------------------------------------
# Figures 6/7 + Table 3 — store-queue search reduction
# ---------------------------------------------------------------------------

#: The predictor-dynamics experiments (Figures 6/7, Table 3) use a
#: shorter table-clearing interval so that at least one retraining cycle
#: falls inside the short synthetic runs; this is what exposes the
#: realistic-vs-aggressive difference of Section 4.1.1 (see DESIGN.md).
PREDICTOR_CLEAR_INTERVAL = 2048


def _predictor_machine(mode: PredictorMode) -> MachineConfig:
    machine = _predictor_base_machine()
    return replace(machine, lsq=LsqConfig(search_ports=2, predictor=mode))


def _predictor_base_machine() -> MachineConfig:
    machine = base_machine()
    return replace(
        machine,
        store_sets=replace(machine.store_sets,
                           clear_interval=PREDICTOR_CLEAR_INTERVAL))


_PREDICTOR_COLUMNS = {
    "base": _predictor_base_machine(),
    "perfect": _predictor_machine(PredictorMode.PERFECT),
    "aggressive": _predictor_machine(PredictorMode.AGGRESSIVE),
    "pair": _predictor_machine(PredictorMode.PAIR),
}


@_experiment(_PREDICTOR_COLUMNS)
def fig6_sq_bandwidth(grid: Grid) -> ExperimentResult:
    """Figure 6: store-queue search demand, normalised to the base case
    in which every load searches (perfect / aggressive / pair)."""
    pairs = _over_base(grid)
    values = _relative(grid, pairs, attrgetter("stats.sq_searches"), floor=1)
    rows = _suite_rows(values, list(pairs), fmt=_ratio)
    return ExperimentResult(
        name="Figure 6: SQ search demand relative to a conventional store "
             "queue (lower is better; paper avg: perfect 0.14, "
             "aggressive ~0.17, pair ~0.28)",
        headers=["bench", "perfect", "aggressive", "pair"],
        rows=rows)


@_experiment(_PREDICTOR_COLUMNS)
def fig7_sq_speedup(grid: Grid) -> ExperimentResult:
    """Figure 7: speedup of the three predictors over the base case."""
    pairs = _over_base(grid)
    rows = _suite_rows(_relative(grid, pairs), list(pairs), fmt=_gain)
    return ExperimentResult(
        name="Figure 7: performance benefit from SQ search reduction "
             "(paper: pair predictor ~+2% avg, up to +7%; aggressive "
             "hurts vortex/wupwise)",
        headers=["bench", "perfect", "aggressive", "pair"],
        rows=rows)


@_experiment({"pair": _predictor_machine(PredictorMode.PAIR)})
def table3_predictor_accuracy(grid: Grid) -> ExperimentResult:
    """Table 3: store-load pair predictor accuracy."""
    values = {}
    for name, res in grid["pair"].items():
        stats = res.stats
        values[name] = {"mispred": stats.predictor_mispredict_rate,
                        "squash": stats.squash_rate}
    rows = _suite_rows(
        values, ["mispred", "squash"],
        fmt=lambda v: f"{v * 100:.2f}%" if v >= 1e-3 else f"{v:.1e}",
        average="mean")
    return ExperimentResult(
        name="Table 3: accuracy of the store-load pair predictor "
             "(mispredictions per load; squashes per instruction)",
        headers=["bench", "mispred.", "squash"],
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 8 + Table 4 + Figure 9 — load-queue search reduction
# ---------------------------------------------------------------------------

def _load_buffer_lsq(entries: int,
                     mode: LoadQueueSearchMode = LoadQueueSearchMode.LOAD_BUFFER
                     ) -> LsqConfig:
    return LsqConfig(search_ports=2, lq_search=mode,
                     load_buffer_entries=entries)


@_experiment({"base": _CONVENTIONAL_2P,
              "load buffer": _on_base(_load_buffer_lsq(2))})
def fig8_lq_bandwidth(grid: Grid) -> ExperimentResult:
    """Figure 8: load-queue search demand with a 2-entry load buffer,
    normalised to the conventional load queue."""
    pairs = _over_base(grid)
    values = _relative(grid, pairs, attrgetter("stats.lq_searches"), floor=1)
    rows = _suite_rows(values, list(pairs), fmt=_ratio)
    return ExperimentResult(
        name="Figure 8: LQ search demand with a 2-entry load buffer "
             "relative to a conventional load queue (paper avg: 0.26 int"
             " / 0.23 fp; mgrid lowest, vortex highest)",
        headers=["bench", "load buffer"],
        rows=rows)


@_experiment({"base": base_machine()})
def table4_ooo_loads(grid: Grid) -> ExperimentResult:
    """Table 4: average number of loads issued out of program order."""
    values = {name: {"measured": res.stats.avg_ooo_loads,
                     "paper": profile_for(name).ooo_loads}
              for name, res in grid["base"].items()}
    rows = _suite_rows(values, ["measured", "paper"],
                       fmt=lambda v: f"{v:.2f}", average="mean")
    return ExperimentResult(
        name="Table 4: average loads issued out of program order "
             "(paper: < 3 on average, motivating a <=4-entry buffer)",
        headers=["bench", "measured", "paper"],
        rows=rows)


@_experiment({
    "base": _CONVENTIONAL_2P,
    "inord-search": _on_base(_load_buffer_lsq(
        0, LoadQueueSearchMode.IN_ORDER_ALWAYS_SEARCH)),
    "0-entry": _on_base(_load_buffer_lsq(0, LoadQueueSearchMode.IN_ORDER)),
    "1-entry": _on_base(_load_buffer_lsq(1)),
    "2-entry": _on_base(_load_buffer_lsq(2)),
    "4-entry": _on_base(_load_buffer_lsq(4)),
})
def fig9_load_buffer_speedup(grid: Grid) -> ExperimentResult:
    """Figure 9: in-order-issue variants and 1/2/4-entry load buffers
    versus the conventional load queue."""
    pairs = _over_base(grid)
    rows = _suite_rows(_relative(grid, pairs), list(pairs), fmt=_gain)
    return ExperimentResult(
        name="Figure 9: load-buffer performance vs a conventional load "
             "queue (paper: in-order variants lose; 2-entry ~+3% int / "
             "+7% fp; 4-entry ~= infinite)",
        headers=["bench"] + list(pairs),
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 10 — both bandwidth techniques, port sweep
# ---------------------------------------------------------------------------

@_experiment({
    "base": _CONVENTIONAL_2P,
    "1p-conv": _on_base(conventional_lsq(ports=1)),
    "1p-tech": _on_base(techniques_lsq(ports=1)),
    "2p-tech": _on_base(techniques_lsq(ports=2)),
    "4p-conv": _on_base(conventional_lsq(ports=4)),
})
def fig10_combined_ports(grid: Grid) -> ExperimentResult:
    """Figure 10: ports sweep with and without the two bandwidth
    techniques, relative to the 2-ported conventional LSQ."""
    pairs = _over_base(grid)
    rows = _suite_rows(_relative(grid, pairs), list(pairs), fmt=_gain)
    return ExperimentResult(
        name="Figure 10: combining the two search-bandwidth reductions "
             "(paper: 1p-conv -24%; 1p-tech +2% int / +7% fp; 2p-tech "
             "~= 4p-conv)",
        headers=["bench"] + list(pairs),
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 11 + Tables 5/6 — segmentation
# ---------------------------------------------------------------------------

@_experiment({
    "base": _CONVENTIONAL_2P,
    "no-self-circ": _on_base(segmented_lsq(
        ports=2, allocation=AllocationPolicy.NO_SELF_CIRCULAR)),
    "self-circ": _on_base(segmented_lsq(ports=2)),
    "128-flat": _on_base(conventional_lsq(
        ports=2, lq_entries=128, sq_entries=128)),
})
def fig11_segmentation(grid: Grid) -> ExperimentResult:
    """Figure 11: 4x28 segmented LSQ under both allocation policies and
    the unrealistic 128-entry unsegmented LSQ, vs the 32-entry base."""
    pairs = _over_base(grid)
    rows = _suite_rows(_relative(grid, pairs), list(pairs), fmt=_gain)
    return ExperimentResult(
        name="Figure 11: segmented LSQ vs 32-entry conventional (paper: "
             "no-self-circ 0% int / +16% fp; self-circ +5% int / +19% "
             "fp, beating the 128-entry flat queue)",
        headers=["bench"] + list(pairs),
        rows=rows)


@_experiment({"128-entry": _on_base(conventional_lsq(
    ports=4, lq_entries=128, sq_entries=128))})
def table5_occupancy(grid: Grid) -> ExperimentResult:
    """Table 5: average LQ/SQ entries *needed* — measured with large
    (128-entry) queues so capacity does not clip the demand."""
    values = {}
    for name, res in grid["128-entry"].items():
        profile = profile_for(name)
        values[name] = {"lq": res.stats.avg_lq_occupancy,
                        "sq": res.stats.avg_sq_occupancy,
                        "paper lq": profile.lq_occupancy,
                        "paper sq": profile.sq_occupancy}
    rows = _suite_rows(values, ["lq", "sq", "paper lq", "paper sq"],
                       fmt=lambda v: f"{v:.0f}", average="mean")
    return ExperimentResult(
        name="Table 5: average entries needed in the load and store "
             "queues (measured with 128-entry queues)",
        headers=["bench", "lq", "sq", "paper lq", "paper sq"],
        rows=rows)


@_experiment({"self-circ": _on_base(segmented_lsq(ports=2))})
def table6_segment_distribution(grid: Grid) -> ExperimentResult:
    """Table 6: distribution of segments searched per load forwarding
    search, self-circular allocation."""
    values = {}
    for name, res in grid["self-circ"].items():
        dist = res.stats.segment_search_distribution()
        values[name] = {str(k): dist.get(k, 0.0) for k in (1, 2, 3, 4)}
    rows = _suite_rows(values, ["1", "2", "3", "4"],
                       fmt=lambda v: f"{v * 100:.1f}", average="mean")
    return ExperimentResult(
        name="Table 6: % of loads searching k segments for the latest "
             "store (paper: ~90% int / ~79% fp search one segment)",
        headers=["bench", "1 seg", "2 seg", "3 seg", "4 seg"],
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 12 — everything combined, base and scaled processors
# ---------------------------------------------------------------------------

@_experiment({
    "base-conv": _CONVENTIONAL_2P,
    "base-all": _on_base(full_techniques_lsq(ports=1)),
    "scaled-conv": replace(scaled_machine(), lsq=conventional_lsq(ports=2)),
    "scaled-all": replace(scaled_machine(), lsq=full_techniques_lsq(ports=1)),
})
def fig12_all_techniques(grid: Grid) -> ExperimentResult:
    """Figure 12: one-ported LSQ with all three techniques on the base
    and the scaled (12-wide, 96-IQ, 3-cycle L1) processors, each versus
    its own 2-ported conventional configuration."""
    pairs = {"base": ("base-all", "base-conv"),
             "scaled": ("scaled-all", "scaled-conv")}
    rows = _suite_rows(_relative(grid, pairs), list(pairs), fmt=_gain)
    return ExperimentResult(
        name="Figure 12: 1-ported LSQ with all three techniques vs "
             "2-ported conventional (paper: +6% int / +23% fp on the "
             "base machine; larger on the scaled machine)",
        headers=["bench", "8-wide base", "12-wide scaled"],
        rows=rows)


#: Every experiment, for ``repro figure``, ``examples/reproduce_paper.py``
#: and the benches.
ALL_EXPERIMENTS: Dict[str, Experiment] = {
    "table2": table2_base_ipc,
    "fig6": fig6_sq_bandwidth,
    "fig7": fig7_sq_speedup,
    "table3": table3_predictor_accuracy,
    "fig8": fig8_lq_bandwidth,
    "table4": table4_ooo_loads,
    "fig9": fig9_load_buffer_speedup,
    "fig10": fig10_combined_ports,
    "fig11": fig11_segmentation,
    "table5": table5_occupancy,
    "table6": table6_segment_distribution,
    "fig12": fig12_all_techniques,
}
