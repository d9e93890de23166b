"""The validation subsystem: oracle, invariants, checker, faults.

* The memory-model oracle computes the correct source of every load on
  hand-built traces (byte-granular, last-writer-wins).
* Clean runs validate cleanly: a hypothesis sweep over random
  benchmarks, LSQ presets, seeds and machine geometries (width, ROB,
  issue queue, predictor counter bits, search ports, load-buffer
  entries, segments) runs under the full checker without a single
  failure.
* Rigged corruptions are caught: deterministic fault injectors make the
  raising checker throw ``ValidationError`` / ``InvariantViolation``
  with a populated diagnostic bundle, and one corruption of each
  invariant family in a running machine fails in its own cycle, or
  within the backstop scan's interval when no watched event made it.
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
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.config import (AllocationPolicy, ContentionPolicy, CoreConfig,
                          base_machine)
from repro.core.load_buffer import LoadBuffer, NilpTracker
from repro.core.lsq import LoadStoreQueue
from repro.core.queues import SegmentedQueue
from repro.pipeline.dyninst import DynInst
from repro.pipeline.processor import Processor, simulate
from repro.pipeline.rob import ReorderBuffer
from repro.stats.counters import stats_digest
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
from repro.validate.checker import SCAN_INTERVAL
from repro.workload import ALL_BENCHMARKS, generate_trace
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

def _never_park(self, index, wait):
    return False


@settings(max_examples=50, deadline=None)
@given(bench=st.sampled_from(ALL_BENCHMARKS),
       preset=st.sampled_from(sorted(cli.PRESETS)),
       ports=st.sampled_from([1, 2]),
       load_buffer=st.sampled_from([None, 1, 2, 4]),
       width=st.sampled_from([2, 4, 8]),
       rob=st.sampled_from([48, 96, 256]),
       issue_queue=st.integers(8, 96),
       counter_bits=st.integers(1, 8),
       segments=st.integers(1, 4),
       segment_entries=st.integers(4, 28),
       allocation=st.sampled_from(sorted(AllocationPolicy,
                                         key=lambda p: p.name)),
       contention=st.sampled_from(sorted(ContentionPolicy,
                                         key=lambda p: p.name)),
       unified=st.booleans(),
       n=st.integers(150, 450),
       seed=st.integers(0, 10_000))
def test_random_runs_pass_full_validation(bench, preset, ports, load_buffer,
                                          width, rob, issue_queue,
                                          counter_bits, segments,
                                          segment_entries, allocation,
                                          contention, unified, n, seed):
    """Narrow machines, tiny ROBs and issue queues, saturating
    predictor counters, odd load-buffer sizes and segment geometries,
    outside the golden grid: structural corner cases are where ordering
    bugs hide, so every draw answers to the oracle and the invariants,
    once with blocked loads parked and once with every blocked load
    attempted each cycle (``Processor._park`` patched off); both runs
    must agree."""
    machine = preset_machine(preset, ports).with_core(
        fetch_width=width, issue_width=width, commit_width=width,
        rob_entries=rob, issue_queue_entries=issue_queue)
    machine = replace(machine, store_sets=replace(
        machine.store_sets, counter_bits=counter_bits))
    if load_buffer is not None and machine.lsq.load_buffer_entries:
        machine = machine.with_lsq(load_buffer_entries=load_buffer)
    machine = machine.with_lsq(
        segments=segments, segment_entries=segment_entries,
        allocation=allocation, contention=contention,
        unified_queue=unified)
    trace = generate_trace(bench, n_instructions=n, seed=seed)
    digests = []
    for park in (Processor._park, _never_park):
        with patch.object(Processor, "_park", park):
            checker = ValidationChecker()      # raising: any failure throws
            result = simulate(trace, machine, checker=checker)
        assert checker.ok
        assert checker.checked_loads == result.stats.committed_loads
        assert checker.checked_cycles == result.stats.cycles
        digests.append(stats_digest(result.stats))
    assert digests[0] == digests[1]


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


def _pipetrace_rows(pipetrace):
    """``({seq: glyph strip}, first cycle, last cycle)`` of a bundle's
    pipetrace ("cycles A..B" header, then one row per instruction)."""
    header, *rows = pipetrace.splitlines()
    first, last = header.split()[1].split("..")
    # Row layout: "%5d %-9s " then one column per cycle.
    strips = {int(row[:5]): row[16:] for row in rows}
    return strips, int(first), int(last)


def test_failure_bundle_draws_the_failing_instruction():
    """The bundle's pipetrace has a row for the instruction that failed,
    with its dispatch and its commit, over cycles up to the failure.
    On bzip the failing load waits 167 cycles to commit, longer than
    the window's usual span, so the window reaches back to its
    dispatch."""
    for bench in ("gcc", "bzip"):
        trace = generate_trace(bench, n_instructions=3000)
        processor = Processor(preset_machine("conventional"),
                              checker=ValidationChecker())
        SkipSqSearchFault(seed=1, rate=1.0).install(processor)
        with pytest.raises(ValidationError) as excinfo:
            processor.run(trace)
        failure = excinfo.value.failure
        strips, first, last = _pipetrace_rows(
            excinfo.value.bundle.pipetrace)
        assert "D" in strips[failure.seq] and "R" in strips[failure.seq]
        assert first <= failure.cycle <= last


def test_non_raising_bundle_draws_the_first_failure():
    """A run that goes on past its failures keeps the bundle taken at
    the first one, listing them all."""
    trace = generate_trace("gcc", n_instructions=3000)
    checker = ValidationChecker(raise_on_error=False)
    processor = Processor(preset_machine("conventional"), checker=checker)
    SkipSqSearchFault(seed=1, rate=1.0).install(processor)
    processor.run(trace)
    first = checker.failures[0]
    assert len(checker.failures) > 1
    bundle = checker.bundle()
    assert bundle.failures == checker.failures
    strips, start, end = _pipetrace_rows(bundle.pipetrace)
    assert first.seq in strips
    assert start <= first.cycle <= end


def test_suppressed_load_buffer_raises_invariant_violation():
    """Dropping load-buffer insertions breaks the NILP/LIV contract;
    the invariant checks must catch it the cycle it happens, naming the
    load's trace index and centring the bundle's trace window on it."""
    trace = generate_trace("gcc", n_instructions=2000, seed=0)
    checker = ValidationChecker()
    processor = Processor(preset_machine("techniques"), checker=checker)
    fault = SuppressLoadBufferFault(seed=0, rate=1.0)
    fault.install(processor)
    with pytest.raises(InvariantViolation) as excinfo:
        processor.run(trace)
    failure = excinfo.value.failure
    assert failure.kind.startswith("invariant:")
    assert excinfo.value.bundle is not None
    load = next(f for f in fault.injected if f.seq == failure.seq)
    assert failure.cycle == load.cycle
    assert failure.trace_index == load.trace_index
    marked = [line for line in excinfo.value.bundle.trace_window.splitlines()
              if line.startswith(">>")]
    assert marked[0].split()[1] == f"[{load.trace_index}]"


# ---------------------------------------------------------------------------
# each invariant family, corrupted once in a running machine
# ---------------------------------------------------------------------------

#: The cycle from which each corruption below strikes, once: mid-run.
_CORRUPT_FROM = 100


def _swap_into_tail(rob, original, inst):
    """Dispatch a non-memory instruction before the ROB's tail."""
    if inst.is_memory or rob.empty:
        return False
    original(rob, inst)
    entries = rob._entries
    entries[-1], entries[-2] = entries[-2], entries[-1]
    return True


def _keep_committed_load(lsq, original, load):
    """Commit a load from the ROB but leave it in the LQ."""
    return True


def _mistag(queue, original, inst):
    """Allocate an entry but tag it with the next segment."""
    original(queue, inst)
    inst.lsq_segment = (inst.lsq_segment + 1) % queue.num_segments
    return True


def _keep_released_slot(buffer, original, load):
    """Release a passed load's back-pointer but not its slot."""
    if load.load_buffer_slot < 0:
        return False
    load.load_buffer_slot = -1
    return True


def _skip_ooo_count(nilp, original, load):
    """Mark a load issued out of order without counting it."""
    load.ooo_issued = True
    return True


def _park_and_walk(processor, original, index, wait):
    """Park a load or store that bounced on a port but leave it in the
    memory stage's walk too."""
    entry = processor._mem_stage[index]
    original(processor, index, wait)
    processor._mem_stage.insert(index, entry)
    return True


def _overbook_a_port(lsq, original, cycle):
    """Begin a cycle, and book a far-future LQ port slot past capacity
    behind the calendar's back."""
    original(lsq, cycle)
    lsq.lq_ports._used[(0, cycle + 10 ** 6)] = lsq.lq_ports.ports + 1
    return True


#: family -> (preset, owner, method, corruption, caught at an event);
#: an event's corruption fails in its own cycle, any other within
#: SCAN_INTERVAL stepped cycles (the backstop scan).
_LIVE_CORRUPTIONS = {
    "rob-order": ("conventional", ReorderBuffer, "dispatch",
                  _swap_into_tail, True),
    "lsq-mirror": ("conventional", LoadStoreQueue, "commit_load",
                   _keep_committed_load, True),
    "queue-order": ("segmented", SegmentedQueue, "allocate", _mistag, True),
    "load-buffer": ("techniques", LoadBuffer, "release",
                    _keep_released_slot, True),
    "nilp": ("conventional", NilpTracker, "mark_ooo_issue",
             _skip_ooo_count, True),
    "port-calendar": ("conventional", LoadStoreQueue, "begin_cycle",
                      _overbook_a_port, False),
    "mem-stage": ("segmented", Processor, "_park", _park_and_walk, True),
}


@pytest.mark.parametrize("family", sorted(_LIVE_CORRUPTIONS))
def test_checker_catches_live_corruption(family, monkeypatch):
    """One corruption of each invariant family, made mid-run through
    the code that mutates the structure, raises that family's
    InvariantViolation: in the corrupting cycle when the checker
    watches the event, else within SCAN_INTERVAL stepped cycles."""
    preset, owner, name, corrupt, at_event = _LIVE_CORRUPTIONS[family]
    trace = generate_trace("gcc", n_instructions=2000, seed=0)
    processor = Processor(preset_machine(preset), checker=ValidationChecker())
    corrupted = []

    def due():
        return not corrupted and processor.cycle >= _CORRUPT_FROM

    original = getattr(owner, name)

    def patched(self, *args):
        if due() and corrupt(self, original, *args):
            corrupted.append(processor.cycle)
            return None
        return original(self, *args)

    monkeypatch.setattr(owner, name, patched)
    stepped = []
    step = Processor.step

    def counted(self):
        stepped.append(self.cycle)
        step(self)

    monkeypatch.setattr(Processor, "step", counted)
    with pytest.raises(InvariantViolation) as excinfo:
        processor.run(trace)
    failure = excinfo.value.failure
    assert failure.kind == f"invariant:{family}"
    assert len(corrupted) == 1
    if at_event:
        assert failure.cycle == corrupted[0]
    else:
        assert failure.cycle >= corrupted[0]
        assert sum(1 for cycle in stepped
                   if corrupted[0] <= cycle <= failure.cycle) \
            <= SCAN_INTERVAL


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


def test_unchecked_watchdog_bundle_has_a_pipetrace():
    """Without a checker the bundle still draws the in-flight ROB."""
    machine = base_machine()
    machine = replace(machine, core=replace(machine.core, watchdog_cycles=5))
    with pytest.raises(SimulationDeadlock) as excinfo:
        simulate(generate_trace("mcf", n_instructions=2000), machine)
    strips, first, last = _pipetrace_rows(excinfo.value.bundle.pipetrace)
    assert strips and first <= last


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
    cli.main(["check", "bzip", "-n", "600", "--lsq", "conventional",
              "--no-cache"])
    out = capsys.readouterr().out
    assert "ok   bzip x conventional" in out
    assert "1/1 configuration(s) passed" in out


def test_cli_check_sweeps_a_selection_through_the_cache(capsys, tmp_path):
    argv = ["check", "gcc,bzip", "-n", "400", "--lsq", "conventional,full",
            "--cache", str(tmp_path)]
    cli.main(argv)
    first = capsys.readouterr().out
    assert "4/4 configuration(s) passed" in first
    assert "0 validated run(s) replayed from cache" in first
    cli.main(argv)
    second = capsys.readouterr().out
    assert second.count("[cached]") == 4
    assert "4 validated run(s) replayed from cache" in second


def test_cli_check_exit_codes(capsys, monkeypatch):
    argv = ["check", "gcc", "-n", "300", "--lsq", "conventional",
            "--no-cache"]
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_WATCHDOG_CYCLES", "2")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
    assert excinfo.value.code == cli.EXIT_WATCHDOG
    assert "HUNG gcc x conventional" in capsys.readouterr().out

    def fail(self, cell):
        raise ValidationError("rigged")

    monkeypatch.setattr("repro.harness.engine.SweepEngine.run_cell", fail)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL gcc x conventional" in out and "1 FAILED" in out


def test_cli_check_with_faults(capsys):
    cli.main(["check", "bzip", "-n", "600", "--lsq", "full", "--faults",
              "--no-cache"])
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
