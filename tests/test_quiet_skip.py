"""Quiet-cycle skipping in the reference engine.

``Processor.run`` jumps over cycles in which no stage can act and
charges them through the counters a stepped quiet cycle bumps.  The
reference here is the same engine with skipping patched off, so it
steps every cycle.  Both must agree on every statistic, on the
checker's scan count, on where ``max_cycles`` and the watchdog stop a
run, and on what a fault campaign finds; skipping must also actually
skip.
"""

from dataclasses import replace

import pytest

from repro import cli
from repro.config import base_machine
from repro.pipeline.processor import Processor, simulate
from repro.stats.counters import stats_digest
from repro.validate import (
    SimulationDeadlock,
    SkipSqSearchFault,
    ValidationChecker,
    run_fault_campaign,
)
from repro.workload import generate_trace

#: Quiet-heavy (mcf), port-starved segmented (mgrid) and full-technique
#: (equake) cells.
CELLS = [("mcf", "conventional", 2), ("mgrid", "segmented", 2),
         ("equake", "full", 1)]


def _machine(preset, ports):
    return replace(base_machine(), lsq=cli.PRESETS[preset](ports=ports))


def _never_skip(self, max_cycles, watchdog):
    return False


@pytest.fixture(scope="module", params=CELLS,
                ids=["-".join(map(str, cell)) for cell in CELLS])
def cell(request):
    bench, preset, ports = request.param
    return generate_trace(bench, n_instructions=3000), \
        _machine(preset, ports)


def _both(monkeypatch, run):
    """``run()`` with skipping, then with every cycle stepped."""
    skipped = run()
    with monkeypatch.context() as patch:
        patch.setattr(Processor, "_skip_quiet", _never_skip)
        stepped = run()
    return skipped, stepped


def _checked_run(trace, machine, interval=1):
    checker = ValidationChecker(invariant_interval=interval)
    processor = Processor(machine, checker=checker)
    step = processor.step
    steps = [0]

    def counted():
        steps[0] += 1
        step()

    processor.step = counted
    stats = processor.run(trace).stats
    return stats_digest(stats), stats.cycles, checker.checked_cycles, \
        steps[0]


def test_skipping_matches_stepping(cell, monkeypatch):
    trace, machine = cell
    skipped, stepped = _both(monkeypatch,
                             lambda: _checked_run(trace, machine))
    digest, cycles, checked, steps = skipped
    assert (digest, cycles, checked) == stepped[:3]
    assert checked == cycles and stepped[3] == cycles
    assert steps < cycles


def test_sparse_invariant_scans_count_alike(cell, monkeypatch):
    trace, machine = cell
    skipped, stepped = _both(
        monkeypatch, lambda: _checked_run(trace, machine, interval=3))
    assert skipped[:3] == stepped[:3]
    assert skipped[2] == (skipped[1] + 2) // 3


def test_max_cycles_stops_at_the_same_cycle(cell, monkeypatch):
    trace, machine = cell
    cycles = simulate(trace, machine).stats.cycles
    for limit in (cycles // 3, cycles // 2 + 7):
        skipped, stepped = _both(
            monkeypatch, lambda: simulate(trace, machine,
                                          max_cycles=limit).stats)
        assert skipped.cycles == stepped.cycles == limit
        assert stats_digest(skipped) == stats_digest(stepped)


def test_watchdog_trips_at_the_same_cycle(cell, monkeypatch):
    trace, machine = cell
    machine = replace(machine, core=replace(machine.core,
                                            watchdog_cycles=40))

    def deadlock():
        with pytest.raises(SimulationDeadlock) as caught:
            simulate(trace, machine)
        return str(caught.value)

    skipped, stepped = _both(monkeypatch, deadlock)
    assert skipped == stepped


def test_fault_campaign_finds_the_same_failures(cell, monkeypatch):
    trace, machine = cell

    def campaign():
        report = run_fault_campaign(trace, machine,
                                    SkipSqSearchFault(seed=3))
        failures = [(failure.kind, failure.seq, failure.cycle)
                    for failure in report.checker.failures]
        faults = [(outcome.fault.seq, outcome.fault.cycle, outcome.status)
                  for outcome in report.outcomes]
        return failures, faults

    skipped, stepped = _both(monkeypatch, campaign)
    assert skipped == stepped
    assert skipped[1], "no faults injected"
