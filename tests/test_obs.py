"""Tests for the observability layer (:mod:`repro.obs`).

The load-bearing guarantees, straight from the ISSUE's acceptance
criteria:

* attaching an :class:`~repro.obs.Observer` leaves ``SimStats``
  **bit-identical** to an uninstrumented run, on every preset;
* the CPI stall-attribution stack sums to exactly
  ``cycles x commit_width``;
* the interval sampler is deterministic;
* the Chrome-trace export passes its own schema validator (the same
  check the CI ``trace-smoke`` job runs);
* the ``trace`` and ``profile`` CLI verbs work end to end.
"""

import dataclasses
import json
from dataclasses import replace

import pytest

from repro import cli
from repro.config import base_machine, full_techniques_lsq, segmented_lsq
from repro.obs import EVENT_KINDS, ObsConfig, Observer
from repro.obs.chrometrace import (
    export_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.events import EventBus
from repro.pipeline.debug import PipelineTracer
from repro.pipeline.processor import Processor, simulate
from repro.workload import generate_trace
from repro.workload.trace import Trace

PRESET_MACHINES = {
    "conventional": base_machine(),
    "conventional-1p": base_machine(search_ports=1),
    "segmented": replace(base_machine(), lsq=segmented_lsq(ports=2)),
    "full": replace(base_machine(), lsq=full_techniques_lsq(ports=1)),
}


def violation_trace():
    """A trace that reliably produces memory-ordering squashes."""
    from tests.conftest import alu, load, store
    insts = []
    for i in range(30):
        insts.extend(alu(pc=0x1000 + 4 * j, dest=9, srcs=(9,))
                     for j in range(8))
        addr = 0x3000 + 8 * i
        insts.append(store(addr, pc=0x1040, srcs=(9,)))
        insts.append(load(addr, pc=0x1044, dest=1))
    return Trace(insts, name="violations")


class TestStatsParity:
    @pytest.mark.parametrize("name", sorted(PRESET_MACHINES))
    def test_enabled_and_disabled_runs_bit_identical(self, name):
        machine = PRESET_MACHINES[name]
        trace = generate_trace("gzip", n_instructions=1200)
        plain = simulate(trace, machine)
        observed = simulate(trace, machine, obs=Observer())
        assert dataclasses.asdict(plain.stats) \
            == dataclasses.asdict(observed.stats)

    def test_parity_through_squash_recovery(self):
        machine = base_machine()
        plain = simulate(violation_trace(), machine, warm=False)
        observer = Observer()
        observed = simulate(violation_trace(), machine, warm=False,
                            obs=observer)
        assert plain.stats.violation_squashes > 0
        assert dataclasses.asdict(plain.stats) \
            == dataclasses.asdict(observed.stats)
        assert observer.bus.counts.get("violation_squash", 0) \
            == plain.stats.violation_squashes


class TestEvents:
    def test_bus_counts_and_limit(self):
        bus = EventBus(limit=3)
        bus.begin_cycle(7)
        for index in range(10):
            bus.emit("issue", seq=index)
        assert len(bus) == 3 and bus.dropped == 7
        assert bus.counts["issue"] == 10
        assert bus.total == 10
        assert all(event.cycle == 7 for event in bus.events())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventBus().emit("not-a-kind")

    def test_expected_kinds_observed(self):
        observer = Observer()
        simulate(violation_trace(), base_machine(), warm=False,
                 obs=observer)
        counts = observer.bus.counts
        for kind in ("issue", "forward", "violation_squash", "cache_miss",
                     "predictor_update"):
            assert counts.get(kind, 0) > 0, f"no {kind} events"
        assert set(counts) <= set(EVENT_KINDS)

    def test_segment_and_buffer_kinds_on_full_preset(self):
        observer = Observer()
        trace = generate_trace("gzip", n_instructions=2000)
        simulate(trace, PRESET_MACHINES["full"], obs=observer)
        counts = observer.bus.counts
        assert counts.get("segment_hop", 0) > 0
        assert counts.get("lb_insert", 0) == counts.get("lb_release", 0)

    def test_event_limit_keeps_counts_exact(self):
        trace = generate_trace("gzip", n_instructions=1200)
        capped = Observer(ObsConfig(event_limit=16))
        simulate(trace, base_machine(), obs=capped)
        uncapped = Observer()
        simulate(trace, base_machine(), obs=uncapped)
        assert len(capped.bus) == 16 and capped.bus.dropped > 0
        assert capped.bus.counts == uncapped.bus.counts

    @pytest.mark.parametrize("name", ["conventional", "segmented", "full"])
    def test_port_retry_notes_tally_port_stall_counters(self, name):
        """Each port bounce emits one ``port_retry`` event whose note
        names the counter it charged, including the bounces port
        admission decides before building a search path."""
        bounced = 0
        for benchmark in ("mgrid", "gcc", "equake"):
            observer = Observer()
            stats = simulate(generate_trace(benchmark, n_instructions=1500),
                             PRESET_MACHINES[name], obs=observer).stats
            assert observer.bus.dropped == 0
            notes: dict = {}
            for event in observer.bus.events_of("port_retry"):
                notes[event.note] = notes.get(event.note, 0) + 1
            assert set(notes) <= {"sq", "lq", "dcache", "dcache-commit",
                                  "lq-commit", "sq-contention",
                                  "lq-contention"}
            assert notes.get("sq", 0) == stats.sq_port_stalls
            assert notes.get("lq", 0) == stats.lq_port_stalls
            assert notes.get("dcache", 0) + notes.get("dcache-commit", 0) \
                == stats.dcache_port_stalls
            assert notes.get("lq-commit", 0) == stats.store_commit_delays
            assert notes.get("sq-contention", 0) \
                + notes.get("lq-contention", 0) \
                == stats.contention_stalls + stats.contention_squashes
            bounced += sum(notes.values())
        assert bounced > 0


class TestCpiStack:
    @pytest.mark.parametrize("name", sorted(PRESET_MACHINES))
    def test_stack_sums_to_commit_slots(self, name):
        machine = PRESET_MACHINES[name]
        observer = Observer()
        result = simulate(generate_trace("gzip", n_instructions=1200),
                          machine, obs=observer)
        summary = observer.summary()
        width = machine.core.commit_width
        assert summary.cycles == result.stats.cycles
        assert sum(summary.cpi_slots.values()) \
            == result.stats.cycles * width == summary.total_slots
        assert summary.cpi_slots["commit"] == result.stats.committed

    def test_squash_recovery_attributed(self):
        observer = Observer()
        simulate(violation_trace(), base_machine(), warm=False,
                 obs=observer)
        assert observer.summary().cpi_slots["squash_recovery"] > 0


class TestSampler:
    def test_sampler_deterministic(self):
        trace = generate_trace("gzip", n_instructions=1200)
        runs = []
        for _ in range(2):
            observer = Observer(ObsConfig(sample_interval=32))
            simulate(trace, base_machine(), obs=observer)
            runs.append(observer.sampler.rows())
        assert runs[0] == runs[1] and len(runs[0]) > 0

    def test_sample_cadence_and_capacity(self):
        observer = Observer(ObsConfig(sample_interval=16,
                                      sample_capacity=4))
        simulate(generate_trace("gzip", n_instructions=1200),
                 base_machine(), obs=observer)
        rows = observer.sampler.rows()
        assert len(rows) == 4 and observer.sampler.dropped > 0
        cycles = [sample.cycle for sample in rows]
        assert all(b - a == 16 for a, b in zip(cycles, cycles[1:]))

    def test_csv_export(self):
        observer = Observer()
        simulate(generate_trace("gzip", n_instructions=800),
                 base_machine(), obs=observer)
        csv = observer.sampler.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("cycle,")
        assert len(lines) == len(observer.sampler.rows()) + 1


class TestChromeTrace:
    def _observed(self, with_tracer=False):
        observer = Observer()
        processor = Processor(base_machine(), obs=observer)
        tracer = None
        if with_tracer:
            tracer = PipelineTracer(limit=64)
            processor.tracer = tracer
        processor.run(generate_trace("gzip", n_instructions=800))
        return observer, tracer

    def test_export_is_schema_valid(self, tmp_path):
        observer, _ = self._observed()
        doc = export_chrome_trace(observer, label="test")
        assert validate_chrome_trace(doc) == []
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), doc)
        assert validate_chrome_trace_file(str(path)) == []
        with open(path) as handle:
            assert json.load(handle)["otherData"]["label"] == "test"

    def test_pipeline_slices_included_with_tracer(self):
        observer, tracer = self._observed(with_tracer=True)
        doc = export_chrome_trace(observer, tracer=tracer)
        assert validate_chrome_trace(doc) == []
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert slices and counters and instants

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "a", "pid": 0,
                              "ts": 0}]}) != []  # X without dur


class TestCliVerbs:
    def test_trace_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli.main(["trace", "--smoke"])
        out = capsys.readouterr().out
        assert "CPI stall attribution" in out and "Events" in out
        assert validate_chrome_trace_file(str(tmp_path / "trace.json")) \
            == []

    def test_profile_creates_and_merges_report(self, capsys, tmp_path):
        out = str(tmp_path / "BENCH_sweep.json")
        cli.main(["profile", "gzip", "-n", "400", "--top", "5",
                  "-o", out])
        assert "Hot functions" in capsys.readouterr().out
        with open(out) as handle:
            report = json.load(handle)
        assert len(report["profile"]["hot_functions"]) <= 5
        # Merging into an existing report preserves its cells.
        cli.main(["profile", "gzip", "-n", "400", "--lsq", "full",
                  "--ports", "1", "-o", out])
        with open(out) as handle:
            merged = json.load(handle)
        assert merged["cells"] == report["cells"]
        assert merged["profile"]["label"] == "full-1p"

    def test_bench_compare_gate(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        cli.main(["bench", "--smoke", "-o", "first.json"])
        cli.main(["bench", "--smoke", "-o", "second.json",
                  "--compare", "first.json"])
        assert "no regressions" in capsys.readouterr().out
        # A doctored baseline (halved sim times) must trip the gate.
        with open("first.json") as handle:
            doctored = json.load(handle)
        for row in doctored["cells"]:
            row["sim_s"] = row["sim_s"] / 4 or 1e-6
        with open("doctored.json", "w") as handle:
            json.dump(doctored, handle)
        with pytest.raises(SystemExit):
            cli.main(["bench", "--smoke", "-o", "third.json",
                      "--compare", "doctored.json"])
        assert "regression" in capsys.readouterr().out
