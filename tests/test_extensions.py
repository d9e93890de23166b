"""Tests for the fidelity/statistics extensions: store-store ordering,
multi-seed runs, and confidence helpers."""

import pytest
from dataclasses import replace

from repro.config import StoreSetConfig, base_machine
from repro.harness.engine import Cell, SweepEngine
from repro.pipeline.processor import simulate
from repro.stats.report import confidence
from repro.workload.synthetic import generate_trace


class TestStoreStoreOrdering:
    def _machine(self, enabled: bool):
        machine = base_machine()
        return replace(machine, store_sets=replace(
            machine.store_sets, store_store_ordering=enabled))

    def test_off_by_default(self):
        assert not base_machine().store_sets.store_store_ordering

    def test_runs_to_completion_when_enabled(self):
        trace = generate_trace("vortex", n_instructions=1500)
        result = simulate(trace, self._machine(True))
        assert result.stats.committed == len(trace)

    def test_ordering_never_speeds_up(self):
        trace = generate_trace("vortex", n_instructions=1500)
        free = simulate(trace, self._machine(False)).ipc
        ordered = simulate(trace, self._machine(True)).ipc
        assert ordered <= free * 1.02  # at best neutral

    def test_unit_blocking(self):
        from repro.config import LsqConfig, MemoryConfig
        from repro.core.lsq import LoadStoreQueue
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.pipeline.dyninst import DynInst
        from repro.stats.counters import SimStats
        from tests.conftest import store

        lsq = LoadStoreQueue(LsqConfig(),
                             StoreSetConfig(store_store_ordering=True,
                                            clear_interval=0),
                             MemoryHierarchy(MemoryConfig()), SimStats())
        lsq.predictor.train_violation(0x1000, 0x2000)
        first = DynInst(1, 1, store(0x40, pc=0x2000))
        second = DynInst(2, 2, store(0x48, pc=0x2000))
        lsq.allocate(first)
        lsq.allocate(second)
        assert lsq.store_blocked(second) == "store_store"
        lsq.try_execute_store(first, 1)
        assert lsq.store_blocked(second) is None


class TestMultiSeed:
    def test_seeds_give_distinct_but_close_results(self):
        results = SweepEngine().run_cells(
            [Cell(benchmark="gzip", machine=base_machine(), seed=seed,
                  n_instructions=600) for seed in (0, 1, 2)])
        assert len(results) == 3
        ipcs = [r.ipc for r in results]
        assert len(set(ipcs)) > 1          # seeds genuinely differ
        assert max(ipcs) / min(ipcs) < 2.0  # ...but not wildly

    def test_confidence(self):
        mean, spread = confidence([1.0, 2.0])
        assert mean == pytest.approx(1.5)
        assert spread == pytest.approx(0.5)

    def test_confidence_single_value(self):
        assert confidence([2.5]) == (2.5, 0.0)

    def test_confidence_empty_raises(self):
        with pytest.raises(ValueError):
            confidence([])
