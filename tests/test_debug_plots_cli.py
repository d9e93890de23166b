"""Tests for the pipeline tracer, ASCII plots, and the CLI."""

import pytest

from repro.config import base_machine
from repro.harness.figures import ExperimentResult
from repro.harness.plots import bar_chart, sparkline
from repro.pipeline.debug import PipelineTracer
from repro.pipeline.processor import Processor
from repro.workload.synthetic import generate_trace
from repro.workload.trace import Trace
from repro import cli
from tests.conftest import filler


@pytest.fixture(scope="module")
def traced_run():
    trace = generate_trace("gzip", n_instructions=400)
    processor = Processor(base_machine())
    processor.tracer = PipelineTracer(limit=100)
    processor.run(trace)
    return processor.tracer


class TestPipelineTracer:
    def test_records_all_stages(self, traced_run):
        record = traced_run.record(10)
        assert record is not None
        assert record.dispatch is not None
        assert record.issue is not None
        assert record.complete is not None
        assert record.commit is not None

    def test_stage_order_monotone(self, traced_run):
        for seq in range(5, 50):
            rec = traced_run.record(seq)
            if rec is None or rec.squash is not None:
                continue
            assert rec.dispatch <= rec.issue <= rec.complete <= rec.commit

    def test_latency(self, traced_run):
        latency = traced_run.latency(10)
        assert latency is not None and latency > 0

    def test_limit_respected(self, traced_run):
        assert len(traced_run.records) <= 100

    def test_render_contains_glyphs(self, traced_run):
        text = traced_run.render(5, 15)
        assert "D" in text and "I" in text
        assert "cycles" in text

    def test_render_empty_range(self, traced_run):
        assert "no recorded" in traced_run.render(10_000, 10_001)

    @staticmethod
    def _violation_run():
        from tests.conftest import alu, load, store
        insts = []
        for i in range(30):
            chain = [alu(pc=0x1000 + 4 * j, dest=9, srcs=(9,))
                     for j in range(8)]
            insts.extend(chain)
            addr = 0x3000 + 8 * i
            insts.append(store(addr, pc=0x1040, srcs=(9,)))
            insts.append(load(addr, pc=0x1044, dest=1))
        processor = Processor(base_machine())
        processor.tracer = PipelineTracer(limit=400)
        processor.run(Trace(insts), warm=False)
        return processor.tracer

    def test_squash_recorded(self):
        assert self._violation_run().squashed_seqs()

    def test_squashed_rows_rendered_at_window(self):
        # Regression: a render window centred on a squashed instruction
        # must show its 'x' glyph (squashed rows used to be easy to lose
        # at the window boundary because the squash cycle can lie far
        # from the dispatch cycle).
        tracer = self._violation_run()
        for seq in sorted(tracer.squashed_seqs()):
            text = tracer.render(seq, seq)
            assert "x" in text.splitlines()[-1], \
                f"squashed seq {seq} rendered without its squash glyph"


class TestPlots:
    def make_result(self):
        return ExperimentResult(
            name="demo", headers=["bench", "a", "b"],
            rows=[["gzip", "+10.0%", "-5.0%"],
                  ["mgrid", "+20.0%", "+1.0%"]])

    def test_bar_chart_renders(self):
        chart = bar_chart(self.make_result())
        assert "gzip" in chart and "mgrid" in chart
        assert "#" in chart     # first series glyph
        assert "|" in chart     # zero axis

    def test_bar_chart_handles_ratios(self):
        result = ExperimentResult(name="r", headers=["bench", "x"],
                                  rows=[["gzip", "0.28"], ["mgrid", "0.04"]])
        chart = bar_chart(result)
        assert "0.28" in chart

    def test_bar_chart_empty_values_fall_back(self):
        result = ExperimentResult(name="r", headers=["bench", "x"],
                                  rows=[["gzip", "n/a"]])
        assert "gzip" in bar_chart(result)

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert len(line) == 5
        assert line[0] != line[-1]

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        assert len(set(sparkline([2, 2, 2]))) == 1


class TestCli:
    def test_run_command(self, capsys):
        cli.main(["run", "gzip", "-n", "600"])
        out = capsys.readouterr().out
        assert "IPC" in out and "pressure source" in out

    def test_run_with_preset(self, capsys):
        cli.main(["run", "gzip", "-n", "600", "--lsq", "full",
                  "--ports", "1"])
        assert "IPC" in capsys.readouterr().out

    def test_gentrace_command_roundtrip(self, capsys, tmp_path):
        out_file = str(tmp_path / "t.lsqtrace")
        cli.main(["gentrace", "gzip", "-n", "500", "-o", out_file])
        out = capsys.readouterr().out
        assert "mix:" in out and "saved" in out
        cli.main(["gentrace", out_file])
        assert "mix:" in capsys.readouterr().out

    def test_pipetrace_command(self, capsys):
        cli.main(["pipetrace", "gzip", "-n", "400", "--first", "0",
                  "--last", "10"])
        assert "cycles" in capsys.readouterr().out

    def test_trace_command_with_pipetrace(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.json")
        cli.main(["trace", "gzip", "-n", "400", "--pipetrace", "40",
                  "-o", out_file])
        out = capsys.readouterr().out
        assert "CPI stall attribution" in out
        assert "cycles" in out          # the rendered pipetrace window
        assert "ui.perfetto.dev" in out

    def test_figure_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SUBSET", "gzip")
        # The figure command always sweeps the full suite (the subset
        # variable is the benches'), so pass a tiny instruction budget
        # instead and accept the runtime.
        cli.main(["figure", "table2", "-n", "300"])
        assert "Table 2" in capsys.readouterr().out

    def test_figure_chart(self, capsys):
        cli.main(["figure", "table2", "-n", "300", "--chart"])
        assert "#" in capsys.readouterr().out

    def test_unknown_figure_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["figure", "fig99"])

    def test_sweep_command(self, capsys):
        cli.main(["sweep", "gzip", "-n", "500"])
        out = capsys.readouterr().out
        assert "geomean-speedup" in out and "best:" in out
