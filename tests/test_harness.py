"""Tests for the figure grid: the one-batch runner and the renders."""

import dataclasses
import hashlib

import pytest

from repro import cli
from repro.config import base_machine
from repro.harness import engine as engine_module
from repro.harness import figures
from repro.harness.engine import Cell, ResultCache, SweepEngine
from repro.harness.figures import (ExperimentResult, default_instructions,
                                   run_batch, run_experiments)
from repro.stats.report import confidence

ALL = list(figures.ALL_EXPERIMENTS)

#: SHA-256 of every experiment's ``format()`` text at 400 instructions on
#: gzip, vortex, mgrid and equake, recorded from the per-machine runner
#: the one-batch runner replaced.
PINNED_TEXT = {
    "table2": "716afc86924b220c23781fc413556f0497d7d52049cb7ce888affd3d5ca87a23",
    "fig6": "889d85775ecd2f81f118e39c161696407df869f330d34d63d3719fd9ebb7f387",
    "fig7": "d54e910028a3f1e9c84303272ab19dfb732e555c4157258548f7a319e629d17a",
    "table3": "2f589fb3fa7e3f9b576e5289e3e5a2719e33569d3f965d389c7fa5333499ff7e",
    "fig8": "69d7053385fb1b8abd3227469c4cb787c6b0f852112b1c53ec264232d1a3a961",
    "table4": "56ff878474fbbe1c2c5098244622527c5b590a9f69d6698fd1b212803846a690",
    "fig9": "c33ff2bed1295805127f91154ee38288d611b49d394d356138a4d1b95af2b8ab",
    "fig10": "c605ec8ddac2ccfcc634be352d7b1ca89b2f04e6576cc4fcc8d62943f2e95416",
    "fig11": "60e77cfd0eb3779210eadfa17762201a17ca4e44961a3fc8dc93c5b023977a75",
    "table5": "cf1e04a859322830a32854063b27276c1c3b2406776dd51649b33bc99f905c2b",
    "table6": "18ceb3b851cde525911dadfaa9305ce3f81434b5f99a60540d494c7e6934bfad",
    "fig12": "dd145ced51ac221243a24eb9b20377c52b8ca563de6263ac732443198462ad10",
}


@pytest.fixture(scope="module")
def results():
    # Two small benchmarks keep the grid fast; all twelve experiments
    # run as one batch.
    return run_experiments(ALL, ("gzip", "mgrid"), 1200, SweepEngine())


@pytest.fixture
def trace_calls(monkeypatch):
    """(benchmark, n_instructions, seed) of every trace the engine
    generates."""
    calls = []
    real = engine_module.generate_trace

    def counting(benchmark, **kwargs):
        calls.append((benchmark, kwargs["n_instructions"], kwargs["seed"]))
        return real(benchmark, **kwargs)

    monkeypatch.setattr(engine_module, "generate_trace", counting)
    return calls


@pytest.fixture
def sim_calls(monkeypatch):
    """The machine of every simulation the engine runs."""
    calls = []
    real = engine_module.simulate

    def counting(trace, machine, **kwargs):
        calls.append(machine)
        return real(trace, machine, **kwargs)

    monkeypatch.setattr(engine_module, "simulate", counting)
    return calls


def gzip_cell(**overrides):
    return Cell(**{"benchmark": "gzip", "machine": base_machine(),
                   "n_instructions": 600, **overrides})


class TestRunner:
    def test_result_cached(self, tmp_path, sim_calls):
        """A point declared twice runs once, and a second batch over the
        same cache simulates nothing."""
        cells = [gzip_cell(), gzip_cell(label="again")]
        fresh = run_batch(cells, SweepEngine(cache=ResultCache(tmp_path)))
        assert len(sim_calls) == 1 and len(fresh) == 1
        cached = run_batch(cells, SweepEngine(cache=ResultCache(tmp_path)))
        assert len(sim_calls) == 1
        assert [r.cached for r in cached.values()] == [True]

    def test_different_configs_not_conflated(self):
        cells = [gzip_cell(), gzip_cell(machine=base_machine(search_ports=1))]
        results = run_batch(cells, SweepEngine())
        assert [results[c.digest()].result.config for c in cells] == \
            [c.machine for c in cells]

    def test_different_run_lengths_not_conflated(self):
        short, long = gzip_cell(), gzip_cell(n_instructions=1200)
        results = run_batch([short, long], SweepEngine())
        assert results[short.digest()].result.stats.committed \
            < results[long.digest()].result.stats.committed

    def test_different_seeds_not_conflated(self):
        a, b = gzip_cell(seed=0), gzip_cell(seed=7)
        results = run_batch([a, b], SweepEngine())
        assert dataclasses.asdict(results[a.digest()].result.stats) \
            != dataclasses.asdict(results[b.digest()].result.stats)


class TestOneBatch:
    def test_all_figures_generate_each_trace_once(self, trace_calls,
                                                  sim_calls):
        declared = [machine
                    for experiment in figures.ALL_EXPERIMENTS.values()
                    for machine in experiment.columns.values()]
        distinct = {Cell(benchmark="gzip", machine=machine).digest()
                    for machine in declared}
        assert (len(declared), len(distinct)) == (34, 21)
        run_experiments(ALL, ("gzip", "mgrid"), 150, SweepEngine())
        assert sorted(trace_calls) == [("gzip", 150, 0), ("mgrid", 150, 0)]
        assert len(sim_calls) == 21 * 2

    def test_one_figure_simulates_only_its_own_cells(self, trace_calls,
                                                     sim_calls):
        run_experiments(["fig8"], ("gzip", "mgrid"), 150, SweepEngine())
        assert len(trace_calls) == 2
        assert len(sim_calls) == 2 * 2

    def test_batch_reproduces_pinned_text(self):
        text = run_experiments(ALL, ("gzip", "vortex", "mgrid", "equake"),
                               400, SweepEngine())
        assert {name: hashlib.sha256(result.format().encode()).hexdigest()
                for name, result in text.items()} == PINNED_TEXT

    @pytest.mark.parametrize("subset, averages", [
        (("gzip", "vortex"), ["Int.Avg"]),
        (("mgrid",), ["Fp.Avg"]),
    ])
    def test_single_suite_subsets_render(self, subset, averages):
        """A subset with no FP (or no INT) member drops that average row
        instead of dividing by zero."""
        text = run_experiments(ALL, subset, 150, SweepEngine())
        for name in ALL:
            labels = [row[0] for row in text[name].rows]
            assert labels == list(subset) + averages, name


def _figure_length(monkeypatch, argv):
    """The run length ``repro figure`` asks the batch for."""
    lengths = []

    def fake(names, benchmarks, n_instructions, engine):
        lengths.append(n_instructions)
        return {name: ExperimentResult(name, ["bench"], []) for name in names}

    monkeypatch.setattr(figures, "run_experiments", fake)
    cli.main(["figure", "table2", "--no-cache"] + argv)
    return lengths[0]


class TestInstructionEnv:
    def test_env_read_at_construction_not_import(self, monkeypatch):
        """Regression: REPRO_BENCH_INSTRUCTIONS used to be captured at
        import time, so setting it afterwards was silently ignored.
        ``repro figure`` reads it too, so it computes the same cells as
        the benches and ``repro bench``."""
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        assert default_instructions() == 1234
        assert _figure_length(monkeypatch, []) == 1234
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "777")
        assert default_instructions() == 777
        assert _figure_length(monkeypatch, []) == 777

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        assert _figure_length(monkeypatch, ["-n", "55"]) == 55

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
        assert default_instructions() == 6000
        assert _figure_length(monkeypatch, []) == 6000


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
    @pytest.mark.parametrize("name", ALL)
    def test_every_experiment_produces_rows(self, results, name):
        result = results[name]
        assert result.rows
        benches = {row[0] for row in result.rows}
        assert {"gzip", "mgrid", "Int.Avg", "Fp.Avg"} <= benches
        text = result.format()
        assert result.headers[0] in text or result.name in text

    def test_fig6_values_are_fractions(self, results):
        for row in results["fig6"].rows:
            for cell in row[1:]:
                assert 0.0 <= float(cell) <= 1.5

    def test_table6_rows_sum_to_100(self, results):
        for row in results["table6"].rows:
            total = sum(float(c) for c in row[1:])
            assert total == pytest.approx(100.0, abs=1.0)

    def test_by_benchmark_accessor(self, results):
        per_bench = results["table2"].by_benchmark(1)
        assert set(per_bench) == {"gzip", "mgrid"}
