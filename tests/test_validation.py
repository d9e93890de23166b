"""The validation subsystem: oracle, invariants, checker, faults.

* The memory-model oracle computes the correct source of every load on
  hand-built traces (byte-granular, last-writer-wins).
* Clean runs validate cleanly: a hypothesis sweep over random
  (benchmark, LSQ preset, seed) combinations runs under the full
  checker without a single failure.
* Rigged corruptions are caught: deterministic fault injectors make the
  raising checker throw ``ValidationError`` / ``InvariantViolation``
  with a populated diagnostic bundle.
* Fault campaigns never end silent: every registered fault class is
  recovered, detected, or provably benign on every preset it applies
  to.
* The watchdog is configurable (``CoreConfig.watchdog_cycles`` /
  ``REPRO_WATCHDOG_CYCLES``) and raises ``SimulationDeadlock`` with a
  bundle.
* The CLI rejects unknown benchmarks/presets/figures with a clean
  nonzero exit, and ``check`` runs end to end.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.config import CoreConfig, base_machine
from repro.pipeline.dyninst import DynInst
from repro.pipeline.processor import Processor, simulate
from repro.validate import (
    FAULT_CLASSES,
    CommittedMemory,
    InvariantViolation,
    MemoryOracle,
    SimulationDeadlock,
    SkipSqSearchFault,
    SuppressLoadBufferFault,
    ValidationChecker,
    ValidationError,
    run_all_fault_classes,
    run_fault_campaign,
    scan,
)
from repro.workload import generate_trace
from repro.workload.isa import Instruction, OpClass
from repro.workload.trace import Trace


def preset_machine(name, ports=2):
    return replace(base_machine(), lsq=cli.PRESETS[name](ports=ports))


# ---------------------------------------------------------------------------
# memory-model oracle on hand-built traces
# ---------------------------------------------------------------------------

def hand_trace():
    return Trace([
        Instruction(pc=0x00, op=OpClass.STORE, addr=100, size=4),    # [0]
        Instruction(pc=0x04, op=OpClass.LOAD, dest=1,
                    addr=100, size=4),                               # [1]
        Instruction(pc=0x08, op=OpClass.STORE, addr=104, size=4),    # [2]
        Instruction(pc=0x0c, op=OpClass.LOAD, dest=2,
                    addr=100, size=8),                               # [3]
        Instruction(pc=0x10, op=OpClass.LOAD, dest=3,
                    addr=200, size=4),                               # [4]
        Instruction(pc=0x14, op=OpClass.STORE, addr=98, size=4),     # [5]
        Instruction(pc=0x18, op=OpClass.LOAD, dest=4,
                    addr=100, size=4),                               # [6]
    ], name="hand")


def test_oracle_correct_sources():
    oracle = MemoryOracle(hand_trace())
    assert oracle.correct_source(1) == 0       # exact-match store
    assert oracle.correct_source(3) == 2       # wide load: youngest wins
    assert oracle.correct_source(4) is None    # untouched address
    assert oracle.correct_source(6) == 5       # partial overlap, youngest
    assert len(oracle) == 4
    assert oracle.is_load(1) and not oracle.is_load(0)
    with pytest.raises(KeyError):
        oracle.correct_source(0)               # stores have no source


def test_committed_memory_versions():
    trace = hand_trace()
    memory = CommittedMemory()
    assert memory.version(trace[1]) is None
    memory.write(trace[0], 0)
    assert memory.version(trace[1]) == 0
    assert memory.version(trace[4]) is None
    memory.write(trace[5], 5)                  # bytes 98..101
    assert memory.version(trace[1]) == 5       # bytes 100..103: max(5, 0)
    memory.write(trace[2], 2)                  # bytes 104..107
    assert memory.version(trace[3]) == 5       # bytes 100..107: max(5, 2)


# ---------------------------------------------------------------------------
# invariant scan
# ---------------------------------------------------------------------------

def test_invariants_clean_on_fresh_processor():
    assert scan(Processor(base_machine())) == []


def test_invariants_flag_rigged_rob_disorder():
    processor = Processor(base_machine())
    alu = Instruction(pc=0x100, op=OpClass.INT_ALU, dest=1, srcs=(2,))
    processor.rob.dispatch(DynInst(5, 5, alu))
    processor.rob.dispatch(DynInst(3, 3, alu))
    names = {finding.name for finding in scan(processor)}
    assert "rob-order" in names
    # ...and committed work must stay committed:
    names = {finding.name for finding in scan(processor, min_seq=4)}
    assert any("not younger than last committed" in finding.message
               for finding in scan(processor, min_seq=4))
    assert "rob-order" in names


def test_invariants_flag_lsq_rob_mismatch():
    processor = Processor(base_machine())
    load = Instruction(pc=0x100, op=OpClass.LOAD, dest=1, addr=64, size=8)
    processor.rob.dispatch(DynInst(0, 0, load))   # in ROB, never in LQ
    names = {finding.name for finding in scan(processor)}
    assert "lsq-mirror" in names


# ---------------------------------------------------------------------------
# clean runs validate cleanly (hypothesis property)
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(bench=st.sampled_from(["bzip", "gcc", "mcf", "equake", "art"]),
       preset=st.sampled_from(sorted(cli.PRESETS)),
       seed=st.integers(0, 100))
def test_random_runs_pass_full_validation(bench, preset, seed):
    trace = generate_trace(bench, n_instructions=400, seed=seed)
    checker = ValidationChecker()      # raising: any failure throws
    result = simulate(trace, preset_machine(preset), checker=checker)
    assert checker.ok
    assert checker.checked_loads == result.stats.committed_loads
    assert checker.checked_cycles == result.stats.cycles


# ---------------------------------------------------------------------------
# rigged corruptions are caught, with diagnostic bundles
# ---------------------------------------------------------------------------

def test_skipped_sq_search_raises_validation_error():
    """Forcing dependent loads past the SQ search on a conventional
    machine commits stale loads the machine itself cannot notice (its
    store-execute-time check has already run) — the oracle must."""
    trace = generate_trace("gcc", n_instructions=2000, seed=0)
    checker = ValidationChecker()
    processor = Processor(preset_machine("conventional"), checker=checker)
    SkipSqSearchFault(seed=0, rate=1.0).install(processor)
    with pytest.raises(ValidationError) as excinfo:
        processor.run(trace)
    error = excinfo.value
    assert error.failure is not None
    assert error.bundle is not None
    text = str(error)
    assert "diagnostic bundle" in text
    assert "trace window" in text
    assert "pipetrace" in text


def test_suppressed_load_buffer_raises_invariant_violation():
    """Dropping load-buffer insertions breaks the NILP/LIV contract;
    the cycle-level invariant scan must catch it the cycle it happens."""
    trace = generate_trace("gcc", n_instructions=2000, seed=0)
    checker = ValidationChecker()
    processor = Processor(preset_machine("techniques"), checker=checker)
    SuppressLoadBufferFault(seed=0, rate=1.0).install(processor)
    with pytest.raises(InvariantViolation) as excinfo:
        processor.run(trace)
    assert excinfo.value.failure.kind.startswith("invariant:")
    assert excinfo.value.bundle is not None


# ---------------------------------------------------------------------------
# fault campaigns: zero silent corruptions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["conventional", "techniques", "segmented",
                                    "full"])
def test_fault_campaigns_never_silent(preset):
    trace = generate_trace("gcc", n_instructions=2000, seed=1)
    reports = run_all_fault_classes(trace, preset_machine(preset), seed=3)
    assert set(reports) == set(FAULT_CLASSES)
    for report in reports.values():
        assert report.ok, report.format()
        for outcome in report.outcomes:
            assert outcome.status in ("recovered", "detected", "benign")


@pytest.mark.parametrize("fault_name,preset", [
    ("skip-sq-search", "conventional"),
    ("suppress-load-buffer", "techniques"),
    ("drop-segment-search", "full"),
])
def test_every_fault_class_fires_and_is_caught(fault_name, preset):
    """Each registered injector, on a preset whose LSQ exercises the
    corrupted path, both applies (injects at least once) and is caught
    at least once — recovered by the machine or detected by the
    checker — so the campaign is not vacuously green."""
    trace = generate_trace("gcc", n_instructions=2000, seed=0)
    injector = FAULT_CLASSES[fault_name](seed=3, rate=1.0)
    report = run_fault_campaign(trace, preset_machine(preset), injector)
    assert report.ok, report.format()
    assert report.outcomes, f"{fault_name}: no faults injected"
    caught = [o for o in report.outcomes
              if o.status in ("recovered", "detected")]
    assert caught, f"{fault_name}: every fault classified benign\n" \
                   + report.format()


# ---------------------------------------------------------------------------
# configurable watchdog
# ---------------------------------------------------------------------------

def test_watchdog_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG_CYCLES", "123")
    assert CoreConfig().watchdog_cycles == 123
    monkeypatch.delenv("REPRO_WATCHDOG_CYCLES")
    assert CoreConfig().watchdog_cycles == 50_000
    with pytest.raises(ValueError):
        CoreConfig(watchdog_cycles=0)


def test_watchdog_deadlock_carries_bundle():
    machine = base_machine()
    machine = replace(machine, core=replace(machine.core, watchdog_cycles=2))
    trace = generate_trace("bzip", n_instructions=200, seed=0)
    with pytest.raises(SimulationDeadlock) as excinfo:
        simulate(trace, machine)
    assert excinfo.value.bundle is not None
    assert "no commit for 2 cycles" in str(excinfo.value)
    assert "diagnostic bundle" in str(excinfo.value)


# ---------------------------------------------------------------------------
# CLI robustness
# ---------------------------------------------------------------------------

def test_cli_unknown_benchmark_exits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "nosuchbench"])
    assert excinfo.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "nosuchbench" in err
    assert "bzip" in err    # lists the choices


def test_cli_unknown_preset_exits():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "bzip", "--lsq", "bogus"])
    assert excinfo.value.code == 2              # argparse choices error


def test_cli_unknown_figure_exits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["figure", "fig99"])
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "fig99" in capsys.readouterr().err


def test_cli_check_unknown_benchmark_exits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check", "nosuchbench"])
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "nosuchbench" in capsys.readouterr().err


def test_cli_check_smoke(capsys):
    cli.main(["check", "bzip", "-n", "600", "--lsq", "conventional"])
    out = capsys.readouterr().out
    assert "ok   bzip x conventional" in out
    assert "1/1 configuration(s) passed" in out


def test_cli_check_with_faults(capsys):
    cli.main(["check", "bzip", "-n", "600", "--lsq", "full", "--faults"])
    out = capsys.readouterr().out
    assert "ok   bzip x full" in out
    for name in FAULT_CLASSES:
        assert name in out


# ---------------------------------------------------------------------------
# classification branches: benign and silent, directly
# ---------------------------------------------------------------------------

class _StubInst:
    def __init__(self, state, squashed=False):
        self.state = state
        self.squashed = squashed


def _fault(inst, seq=5, trace_index=9):
    from repro.validate.faults import InjectedFault
    return InjectedFault(kind="stub", seq=seq, trace_index=trace_index,
                         cycle=1, detail="stub fault", inst=inst)


def test_classify_benign_branch():
    """Committed, unflagged, and the verdict record agrees with the
    oracle: the corruption provably did not matter."""
    from repro.pipeline.dyninst import InstState
    from repro.validate.faults import _classify

    fault = _fault(_StubInst(InstState.COMMITTED))
    outcome = _classify(fault, frozenset(), {9: (42, 42)})
    assert outcome.status == "benign"
    # A fault on an instruction without a verdict (e.g. a store) is
    # benign too — there is no value to have corrupted.
    assert _classify(fault, frozenset(), {}).status == "benign"


def test_classify_silent_branch():
    """Committed wrongly with nothing flagged: the one classification
    the subsystem exists to rule out, and it must fail the report."""
    from repro.pipeline.dyninst import InstState
    from repro.validate.faults import CampaignReport, _classify

    fault = _fault(_StubInst(InstState.COMMITTED))
    outcome = _classify(fault, frozenset(), {9: (41, 42)})
    assert outcome.status == "silent"
    # The same mismatch is NOT silent once the checker flagged the seq.
    flagged = _classify(fault, frozenset({5}), {9: (41, 42)})
    assert flagged.status == "detected"
    report = CampaignReport(fault_name="stub", trace_name="t",
                            outcomes=[outcome], checker=None)
    assert not report.ok
    assert "SILENT" in report.format()


def test_classify_unresolved_branch():
    from repro.pipeline.dyninst import InstState
    from repro.validate.faults import _classify

    outcome = _classify(_fault(_StubInst(InstState.DISPATCHED)),
                        frozenset(), {})
    assert outcome.status == "unresolved"


def test_nilp_corruption_campaign_is_benign_on_synthetic_traffic():
    """End-to-end benign coverage: NILP lies on organic traffic are
    value-invisible (stores still search the LQ), so the campaign
    classifies them benign — and proves it, never silent."""
    from repro.validate import NilpCorruptionFault

    trace = generate_trace("gcc", n_instructions=2000, seed=0)
    report = run_fault_campaign(trace, preset_machine("techniques"),
                                NilpCorruptionFault(seed=3, rate=1.0))
    assert report.outcomes, "no faults injected"
    assert report.ok, report.format()
    assert report.counts.get("benign", 0) > 0


def test_nilp_corruption_detected_on_rigged_trace():
    """The lie is invisible to the cycle invariants by construction, so
    the checker's missed-load-load cross-check is what must catch it:
    an older load stalled on its address register while a younger
    overlapping load issues (and, lied about, skips the load buffer)."""
    from repro.validate import NilpCorruptionFault

    insts = [Instruction(pc=0x1000, op=OpClass.INT_ALU, dest=5, srcs=())]
    pc = 0x1004
    for _ in range(12):
        insts.append(Instruction(pc=pc, op=OpClass.FP_MUL, dest=5,
                                 srcs=(5,)))
        pc += 4
    insts.append(Instruction(pc=pc, op=OpClass.LOAD, dest=6, srcs=(5,),
                             addr=0x9000, size=8))
    insts.append(Instruction(pc=pc + 4, op=OpClass.LOAD, dest=7, srcs=(),
                             addr=0x9000, size=8))
    trace = Trace(insts, name="rigged-nilp")
    report = run_fault_campaign(trace, preset_machine("techniques"),
                                NilpCorruptionFault(seed=0, rate=1.0))
    assert report.counts == {"detected": 1}, report.format()
    assert any(f.kind == "missed-load-load"
               for f in report.checker.failures)
