"""Tests for the experiment runner and figure/table generators."""

import dataclasses

import pytest

from repro.config import base_machine, conventional_lsq
from repro.harness.engine import ResultCache, SweepEngine
from repro.harness.experiment import (ExperimentRunner, confidence,
                                      default_instructions)
from repro.harness import figures


@pytest.fixture(scope="module")
def runner():
    # Two small benchmarks keep the figure sweeps fast.
    return ExperimentRunner(n_instructions=1200,
                            benchmarks=("gzip", "mgrid"))


class TestRunner:
    def test_result_cached(self, runner):
        a = runner.run("gzip", base_machine())
        b = runner.run("gzip", base_machine())
        assert a is b

    def test_different_configs_not_conflated(self, runner):
        a = runner.run("gzip", base_machine())
        b = runner.run("gzip", base_machine(search_ports=1))
        assert a is not b

    def test_run_suite_covers_benchmarks(self, runner):
        results = runner.run_suite(base_machine())
        assert set(results) == {"gzip", "mgrid"}

    def test_run_lsq_suite(self, runner):
        results = runner.run_lsq_suite(conventional_lsq(ports=4))
        assert all(r.config.lsq.search_ports == 4 for r in results.values())

    def test_different_run_lengths_not_conflated(self):
        """Regression: the old (benchmark, machine) result key let two
        runners sharing a cache collide on n_instructions/seed."""
        engine = SweepEngine()
        short = ExperimentRunner(n_instructions=600, engine=engine)
        long = ExperimentRunner(n_instructions=1200, engine=engine)
        a = short.run("gzip", base_machine())
        b = long.run("gzip", base_machine())
        assert a.stats.committed < b.stats.committed

    def test_different_seeds_not_conflated(self, runner):
        a = runner.run("gzip", base_machine(), seed=0)
        b = runner.run("gzip", base_machine(), seed=7)
        assert a is not b
        assert dataclasses.asdict(a.stats) != dataclasses.asdict(b.stats)


class TestRunSeeds:
    def test_run_seeds_is_cached(self):
        """Regression: run_seeds used to call simulate() directly,
        bypassing the result cache entirely."""
        runner = ExperimentRunner(n_instructions=600)
        first = runner.run_seeds("gzip", base_machine(), seeds=(0, 1))
        simulated = runner.engine.simulated
        second = runner.run_seeds("gzip", base_machine(), seeds=(0, 1))
        assert runner.engine.simulated == simulated  # no new simulations
        assert [a is b for a, b in zip(first, second)] == [True, True]

    def test_run_seeds_shares_cache_with_run(self):
        runner = ExperimentRunner(n_instructions=600)
        by_run = runner.run("gzip", base_machine(), seed=1)
        by_seeds = runner.run_seeds("gzip", base_machine(), seeds=(1,))[0]
        assert by_seeds is by_run

    def test_run_seeds_honours_validate(self, tmp_path):
        """Regression: run_seeds used to drop validate=True on the
        floor.  A validating runner must produce oracle summaries for
        every seed (visible through the engine's disk cache)."""
        engine = SweepEngine(cache=ResultCache(tmp_path))
        runner = ExperimentRunner(n_instructions=400, validate=True,
                                  engine=engine)
        runner.run_seeds("gzip", base_machine(), seeds=(0, 1))
        replay = SweepEngine(cache=ResultCache(tmp_path))
        for seed in (0, 1):
            from repro.harness.engine import Cell
            cached = replay.run_cell(Cell(
                benchmark="gzip", machine=base_machine(), seed=seed,
                n_instructions=400, validate=True))
            assert cached.cached
            assert cached.validation is not None
            assert cached.validation.checked_loads > 0


class TestInstructionEnv:
    def test_env_read_at_construction_not_import(self, monkeypatch):
        """Regression: REPRO_BENCH_INSTRUCTIONS used to be captured at
        import time, so setting it afterwards was silently ignored."""
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        assert default_instructions() == 1234
        assert ExperimentRunner().n_instructions == 1234
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "777")
        assert ExperimentRunner().n_instructions == 777

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        assert ExperimentRunner(n_instructions=55).n_instructions == 55

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
        assert ExperimentRunner().n_instructions == 6000


class TestConfidence:
    def test_single_value(self):
        assert confidence([2.5]) == (2.5, 0.0)

    def test_identical_values(self):
        mean, spread = confidence([1.25, 1.25, 1.25])
        assert mean == 1.25 and spread == 0.0

    def test_spread_is_half_range(self):
        mean, spread = confidence([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert spread == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            confidence([])


class TestFigures:
    @pytest.mark.parametrize("name", list(figures.ALL_EXPERIMENTS))
    def test_every_experiment_produces_rows(self, runner, name):
        result = figures.ALL_EXPERIMENTS[name](runner)
        assert result.rows
        benches = {row[0] for row in result.rows}
        assert {"gzip", "mgrid", "Int.Avg", "Fp.Avg"} <= benches
        text = result.format()
        assert result.headers[0] in text or result.name in text

    def test_fig6_values_are_fractions(self, runner):
        result = figures.fig6_sq_bandwidth(runner)
        for row in result.rows:
            for cell in row[1:]:
                assert 0.0 <= float(cell) <= 1.5

    def test_table6_rows_sum_to_100(self, runner):
        result = figures.table6_segment_distribution(runner)
        for row in result.rows:
            total = sum(float(c) for c in row[1:])
            assert total == pytest.approx(100.0, abs=1.0)

    def test_by_benchmark_accessor(self, runner):
        result = figures.table2_base_ipc(runner)
        per_bench = result.by_benchmark(1)
        assert set(per_bench) == {"gzip", "mgrid"}
