"""Parked memory-stage loads and stores: "wake, don't poll" in the
reference engine.

On segmented queues a load or store that bounces on a port leaves the
memory stage's walk and waits, keyed by the first port slots it needs,
until its key changes; while it waits, each walk attempts it only while
those slots are free and otherwise charges it what an attempt would
have charged.  The reference here is the same engine with parking
patched off, so every bounced operation is attempted every cycle.  Both
must agree on every statistic, on the checker's scan count, on
everything an observer reports, on where ``max_cycles`` and the
watchdog stop a run, and on what every fault campaign finds; parking
must also actually park.
"""

from dataclasses import replace

import pytest

from repro import cli
from repro.config import LsqConfig, base_machine
from repro.core.lsq import LoadStoreQueue
from repro.pipeline.processor import Processor, simulate
from repro.stats.counters import stats_digest
from repro.validate import (
    InvariantViolation,
    SimulationDeadlock,
    ValidationChecker,
    run_all_fault_classes,
)
from repro.workload import generate_trace
from tests.conftest import observed_run

#: Port-starved segmented (mgrid, equake) cells, which park, and
#: full-technique (equake, mgrid), quiet-heavy conventional (mcf) and
#: unified-queue (equake) cells, which must not be disturbed.
CELLS = [("mgrid", "segmented", 2), ("equake", "segmented", 2),
         ("equake", "full", 1), ("mgrid", "full", 1),
         ("mcf", "conventional", 2), ("equake", "unified", 1)]


def _machine(preset, ports):
    if preset == "unified":
        lsq = LsqConfig(search_ports=ports, unified_queue=True,
                        segments=2, segment_entries=24)
    else:
        lsq = cli.PRESETS[preset](ports=ports)
    return replace(base_machine(), lsq=lsq)


def never_park(self, index, wait):
    return False


@pytest.fixture(scope="module", params=CELLS,
                ids=["-".join(map(str, cell)) for cell in CELLS])
def cell(request):
    bench, preset, ports = request.param
    return generate_trace(bench, n_instructions=3000), \
        _machine(preset, ports)


def _both(monkeypatch, run):
    """``run()`` with parking, then with every blocked load attempted."""
    parked = run()
    with monkeypatch.context() as patch:
        patch.setattr(Processor, "_park", never_park)
        polled = run()
    return parked, polled


def _checked_run(trace, machine, checker=None):
    """Digest, cycles, checked cycles, and the load and store gate
    checks plus attempts the memory stage made."""
    processor = Processor(machine, checker=checker)
    lsq = processor.lsq
    calls = {"load": 0, "store": 0}

    def counted(method, kind):
        def call(*args):
            calls[kind] += 1
            return method(*args)
        return call

    lsq.load_blocked = counted(lsq.load_blocked, "load")
    lsq.try_execute_load = counted(lsq.try_execute_load, "load")
    lsq.store_blocked = counted(lsq.store_blocked, "store")
    lsq.try_execute_store = counted(lsq.try_execute_store, "store")
    stats = processor.run(trace).stats
    return stats_digest(stats), stats.cycles, \
        checker.checked_cycles if checker is not None else None, \
        calls["load"], calls["store"]


def test_parking_matches_polling(cell, monkeypatch):
    trace, machine = cell
    parked, polled = _both(
        monkeypatch,
        lambda: _checked_run(trace, machine, ValidationChecker()))
    assert parked[:3] == polled[:3]
    assert parked[2] == parked[1]
    assert parked[3] <= polled[3] and parked[4] <= polled[4]


@pytest.mark.parametrize("bench", ["mgrid", "equake"])
def test_parking_saves_most_attempts(bench, monkeypatch):
    """Where loads and stores wait long on a port, most gate checks and
    attempts go."""
    trace = generate_trace(bench, n_instructions=6000)
    parked, polled = _both(
        monkeypatch, lambda: _checked_run(trace, _machine("segmented", 2)))
    assert parked[:2] == polled[:2]
    assert parked[3] < polled[3] * 2 // 3
    assert parked[4] < polled[4]


@pytest.mark.parametrize("bench,preset,ports", [
    ("mgrid", "segmented", 2), ("mcf", "conventional", 2),
    ("equake", "full", 1)])
def test_observed_parking_matches_polling(bench, preset, ports,
                                          monkeypatch):
    """An observed run parks and skips like a plain one, and reports
    what the polled run reports: statistics, CPI slots, sampler rows,
    events."""
    trace = generate_trace(bench, n_instructions=3000)
    machine = _machine(preset, ports)
    parked, polled = _both(monkeypatch,
                           lambda: observed_run(trace, machine, 7))
    assert parked[0] == polled[0]
    __, steps, cycles, loads = parked
    assert steps < cycles == polled[2]
    if preset == "segmented":
        assert loads < polled[3]


def test_max_cycles_stops_at_the_same_cycle(cell, monkeypatch):
    trace, machine = cell
    cycles = simulate(trace, machine).stats.cycles
    for limit in (cycles // 3, cycles // 2 + 7):
        parked, polled = _both(
            monkeypatch, lambda: simulate(trace, machine,
                                          max_cycles=limit).stats)
        assert parked.cycles == polled.cycles == limit
        assert stats_digest(parked) == stats_digest(polled)


def test_watchdog_trips_at_the_same_cycle(cell, monkeypatch):
    trace, machine = cell
    machine = replace(machine, core=replace(machine.core,
                                            watchdog_cycles=40))

    def deadlock():
        with pytest.raises(SimulationDeadlock) as caught:
            simulate(trace, machine)
        return str(caught.value)

    parked, polled = _both(monkeypatch, deadlock)
    assert parked == polled


def test_fault_campaigns_find_the_same_failures(cell, monkeypatch):
    trace, machine = cell

    def campaigns():
        found = {}
        for name, report in run_all_fault_classes(trace, machine,
                                                  seed=3).items():
            assert report.ok, report.format()
            found[name] = (
                [(f.kind, f.seq, f.cycle) for f in report.checker.failures],
                [(o.fault.seq, o.fault.cycle, o.status)
                 for o in report.outcomes])
        return found

    parked, polled = _both(monkeypatch, campaigns)
    assert parked == polled
    assert any(faults for __, faults in parked.values()), \
        "no fault injected"


def test_checker_catches_a_missing_store_commit_wake(monkeypatch):
    """Without the store-commit wake, a load stays keyed on the SQ slot
    of a store that has left the queue: the mem-stage invariant must
    flag it at the end of that store's commit cycle."""
    trace = generate_trace("mgrid", n_instructions=3000)
    machine = _machine("segmented", 2)
    processor = Processor(machine, checker=ValidationChecker())
    missed = []
    commit_releases = LoadStoreQueue.commit_releases

    def no_wake(self, store, segment, parked):
        if commit_releases(self, store, segment,
                           [waits[:] for waits in parked]):
            missed.append(processor.cycle)
        return []

    monkeypatch.setattr(LoadStoreQueue, "commit_releases", no_wake)
    with pytest.raises(InvariantViolation) as caught:
        processor.run(trace)
    failure = caught.value.failure
    assert failure.kind == "invariant:mem-stage"
    assert "keyed on SQ segment" in failure.message
    assert missed and failure.cycle == missed[-1]
