"""Shared fixtures and trace-building helpers."""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.config import LsqConfig, MachineConfig, base_machine
from repro.obs import ObsConfig, Observer
from repro.pipeline.processor import Processor
from repro.stats.counters import stats_digest
from repro.workload.isa import Instruction, OpClass
from repro.workload.trace import Trace

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_TRACKED_REPORTS = ("BENCH_sweep.json", "BENCH_core.json",
                    "BENCH_service.json")


def _report_digests():
    digests = {}
    for name in _TRACKED_REPORTS:
        path = _REPO_ROOT / name
        if path.exists():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="session", autouse=True)
def tracked_bench_reports_stay_untouched():
    """No test may clobber a committed benchmark baseline.

    A bench invocation that forgets ``-o`` (or a chdir) writes its
    report to the repo root, silently replacing the tracked perf
    baseline with debug output — which then gets committed.  Hash the
    tracked reports before the session and fail loudly if any changed.
    """
    before = _report_digests()
    yield
    after = _report_digests()
    changed = sorted(name for name in before
                     if after.get(name) != before[name])
    assert not changed, (
        f"test run modified tracked benchmark report(s) {changed}; "
        "point bench/profile output at tmp_path with -o")


def alu(pc=0x1000, dest=1, srcs=()):
    return Instruction(pc=pc, op=OpClass.INT_ALU, dest=dest, srcs=tuple(srcs))


def load(addr, pc=0x2000, dest=2, srcs=(), size=8):
    return Instruction(pc=pc, op=OpClass.LOAD, dest=dest, srcs=tuple(srcs),
                       addr=addr, size=size)


def store(addr, pc=0x3000, srcs=(), size=8):
    return Instruction(pc=pc, op=OpClass.STORE, srcs=tuple(srcs),
                       addr=addr, size=size)


def branch(pc=0x4000, taken=True, target=0x1000, srcs=()):
    return Instruction(pc=pc, op=OpClass.BRANCH, srcs=tuple(srcs),
                       taken=taken, target=target)


def make_trace(instructions, name="test"):
    return Trace(instructions, name=name)


def observed_run(trace, machine, sample_interval=16):
    """Run ``trace`` with an Observer attached.  Returns everything it
    reports (``SimStats`` digest, CPI slots, sampler rows, stored
    events, per-kind event counts), then the cycles stepped, the
    cycles simulated and the loads the memory stage attempted."""
    observer = Observer(ObsConfig(sample_interval=sample_interval))
    processor = Processor(machine, obs=observer)
    calls = {"step": 0, "load": 0}

    def counted(method, kind):
        def call(*args):
            calls[kind] += 1
            return method(*args)
        return call

    processor.step = counted(processor.step, "step")
    lsq = processor.lsq
    lsq.try_execute_load = counted(lsq.try_execute_load, "load")
    stats = processor.run(trace).stats
    summary = observer.summary()
    reported = (stats_digest(stats), summary.cpi_slots, summary.samples,
                observer.bus.events(), summary.event_counts)
    return reported, calls["step"], stats.cycles, calls["load"]


def filler(n, base_pc=0x8000):
    """n independent single-cycle ALU ops."""
    return [alu(pc=base_pc + 4 * i, dest=(i % 8) + 1) for i in range(n)]


@pytest.fixture
def machine() -> MachineConfig:
    return base_machine()


@pytest.fixture
def small_machine() -> MachineConfig:
    """A small machine so queue-capacity effects trigger quickly."""
    return base_machine(lq_entries=8, sq_entries=8)
