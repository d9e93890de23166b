"""Regression tests for the paper's qualitative conclusions.

These pin the *shapes* EXPERIMENTS.md reports — who wins, in which
direction, where the outliers sit — on a reduced benchmark subset so a
future change that silently breaks a headline result fails the suite.
"""

import pytest
from dataclasses import replace

from repro.config import (
    LoadQueueSearchMode,
    LsqConfig,
    PredictorMode,
    base_machine,
    conventional_lsq,
    full_techniques_lsq,
    segmented_lsq,
    techniques_lsq,
)
from repro.harness.engine import Cell, SweepEngine
from repro.harness.figures import (_predictor_base_machine,
                                   _predictor_machine, run_batch)
from repro.stats.report import geometric_mean

SUBSET = ("gzip", "vortex", "mgrid", "equake")


def _on_base(lsq):
    return replace(base_machine(), lsq=lsq)


#: Every machine the assertions below read, by column label.
COLUMNS = {
    "conv-2p": _on_base(conventional_lsq(ports=2)),
    "conv-1p": _on_base(conventional_lsq(ports=1)),
    "tech-1p": _on_base(techniques_lsq(ports=1)),
    "all-1p": _on_base(full_techniques_lsq(ports=1)),
    "seg-2p": _on_base(segmented_lsq(ports=2)),
    "pair": _on_base(LsqConfig(predictor=PredictorMode.PAIR)),
    "load-buffer": _on_base(LsqConfig(
        lq_search=LoadQueueSearchMode.LOAD_BUFFER, load_buffer_entries=2)),
    "pred-base": _predictor_base_machine(),
    "pred-pair": _predictor_machine(PredictorMode.PAIR),
    "pred-aggressive": _predictor_machine(PredictorMode.AGGRESSIVE),
    "pred-perfect": _predictor_machine(PredictorMode.PERFECT),
}


@pytest.fixture(scope="module")
def grid():
    """Column label -> benchmark -> result, run as one batch."""
    cells = [Cell(benchmark=bench, machine=machine, n_instructions=2500,
                  label=label)
             for label, machine in COLUMNS.items() for bench in SUBSET]
    results = run_batch(cells, SweepEngine())
    table = {label: {} for label in COLUMNS}
    for cell in cells:
        table[cell.label][cell.benchmark] = results[cell.digest()].result
    return table


def geomean_speedup(grid, label, base):
    results = grid[label]
    return geometric_mean([results[b].ipc / base[b].ipc
                           for b in results]) - 1.0


@pytest.fixture(scope="module")
def base(grid):
    return grid["conv-2p"]


class TestHeadlines:
    def test_one_port_conventional_loses(self, grid, base):
        assert geomean_speedup(grid, "conv-1p", base) < -0.03

    def test_one_port_techniques_recovers(self, grid, base):
        one_conv = geomean_speedup(grid, "conv-1p", base)
        one_tech = geomean_speedup(grid, "tech-1p", base)
        assert one_tech > one_conv + 0.03
        assert one_tech > -0.02      # at worst on par with the 2p base

    def test_all_techniques_beat_base(self, grid, base):
        assert geomean_speedup(grid, "all-1p", base) > 0.05

    def test_segmentation_gains(self, grid, base):
        assert geomean_speedup(grid, "seg-2p", base) > 0.03


class TestBandwidthClaims:
    def test_pair_predictor_cuts_sq_demand_heavily(self, grid, base):
        pair = grid["pair"]
        ratios = [pair[b].stats.sq_searches
                  / max(base[b].stats.sq_searches, 1) for b in pair]
        assert geometric_mean([max(r, 1e-3) for r in ratios]) < 0.5

    def test_load_buffer_cuts_lq_demand_heavily(self, grid, base):
        buf = grid["load-buffer"]
        ratios = [buf[b].stats.lq_searches
                  / max(base[b].stats.lq_searches, 1) for b in buf]
        assert geometric_mean([max(r, 1e-3) for r in ratios]) < 0.6

    def test_vortex_is_the_least_reduced(self, grid, base):
        # Figure 8's outlier: store-heavy vortex keeps most LQ searches.
        buf = grid["load-buffer"]
        ratios = {b: buf[b].stats.lq_searches
                  / max(base[b].stats.lq_searches, 1) for b in buf}
        assert max(ratios, key=ratios.get) == "vortex"
        assert min(ratios, key=ratios.get) == "mgrid"


class TestPredictorOrdering:
    def test_aggressive_worse_than_pair_on_group_benchmarks(self, grid):
        pair = grid["pred-pair"]
        aggressive = grid["pred-aggressive"]
        # vortex: the paper's poster child for constructive interference.
        assert aggressive["vortex"].ipc < pair["vortex"].ipc
        assert pair["vortex"].stats.sq_searches \
            >= aggressive["vortex"].stats.sq_searches

    def test_perfect_predictor_is_safe(self, grid):
        base = grid["pred-base"]
        perfect = grid["pred-perfect"]
        for bench in SUBSET:
            assert perfect[bench].stats.store_load_squashes == 0
            assert perfect[bench].ipc > 0.93 * base[bench].ipc


class TestSuiteStructure:
    def test_fp_gains_exceed_int_gains_for_capacity(self, grid, base):
        seg = grid["seg-2p"]
        int_gain = geometric_mean([seg[b].ipc / base[b].ipc
                                   for b in ("gzip", "vortex")])
        fp_gain = geometric_mean([seg[b].ipc / base[b].ipc
                                  for b in ("mgrid", "equake")])
        assert fp_gain > int_gain

    def test_table6_mostly_single_segment(self, grid):
        seg = grid["seg-2p"]
        for bench in SUBSET:
            dist = seg[bench].stats.segment_search_distribution()
            assert dist.get(1, 0.0) > 0.5
