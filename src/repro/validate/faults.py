"""Fault injection: prove the detection/recovery machinery earns its keep.

Each :class:`FaultInjector` deterministically (seed-driven) corrupts one
internal decision of the LSQ while a trace runs under the full
:class:`~repro.validate.checker.ValidationChecker`:

* :class:`SkipSqSearchFault` — forces "skip the store-queue search" on
  loads that actually have an older overlapping store in flight,
  mimicking a pair-predictor misprediction path gone wrong;
* :class:`SuppressLoadBufferFault` — drops load-buffer insertions for
  out-of-order-issued loads, breaking the NILP/LIV contract;
* :class:`DropSegmentSearchFault` — silently truncates the youngest
  segment from forwarding searches, modelling a broken segmented
  search pipeline;
* :class:`MembarDropFault` — drops the memory-barrier issue gate for
  selected instructions, letting them run past an incomplete
  ``MEMBAR`` (the litmus rig's fenced variants exist to catch this);
* :class:`NilpCorruptionFault` — makes the NILP pointer lie that an
  out-of-order load issued in order, so it gets neither a load-buffer
  entry nor out-of-order bookkeeping.

After the run, :func:`run_fault_campaign` classifies every injected
fault:

``recovered``
    the corrupted instruction was squashed and replayed — the machine's
    own violation detection caught it;
``detected``
    the instruction committed, but the oracle or an invariant flagged
    it — the *checker* caught what the machine missed;
``benign``
    the corruption was harmless (e.g. the skipped store had already
    committed, so memory held the right value anyway);
``silent``
    the instruction committed wrongly and nothing noticed — the one
    outcome that must never happen (``report.ok`` asserts there are
    zero of these).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pipeline.dyninst import InstState
from repro.pipeline.processor import Processor
from repro.validate.checker import ValidationChecker


@dataclass
class InjectedFault:
    """One corrupted decision."""

    kind: str
    seq: int
    trace_index: int
    cycle: int
    detail: str
    inst: object = field(repr=False)


class FaultInjector:
    """Base class: deterministic, seed-driven corruption of one LSQ path."""

    name = "abstract"

    def __init__(self, seed: int = 0, rate: float = 0.25) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        self.rng = random.Random(seed)
        self.rate = rate
        self.injected: List[InjectedFault] = []

    def install(self, processor: Processor) -> None:
        raise NotImplementedError

    def _record(self, processor: Processor, inst, detail: str) -> None:
        self.injected.append(InjectedFault(
            kind=self.name, seq=inst.seq, trace_index=inst.trace_index,
            cycle=processor.cycle, detail=detail, inst=inst))


class SkipSqSearchFault(FaultInjector):
    """Force dependent loads to skip the store-queue search."""

    name = "skip-sq-search"

    def install(self, processor: Processor) -> None:
        lsq = processor.lsq
        original = lsq._needs_sq_search
        # Per-load decisions, made at the load's first attempt: a load
        # waiting on its SQ first slot is keyed on its search need, so
        # the need must not flip between attempts.
        decisions: Dict[int, bool] = {}

        def corrupted(load):
            decision = original(load)
            skip = decisions.get(load.seq)
            if skip is None:
                skip = (decision and lsq._oracle_match(load) is not None
                        and self.rng.random() < self.rate)
                decisions[load.seq] = skip
                if skip:
                    self._record(processor, load,
                                 "forced skip of the SQ search on a load "
                                 "with an older overlapping store in "
                                 "flight")
            return decision and not skip

        lsq._needs_sq_search = corrupted


class SuppressLoadBufferFault(FaultInjector):
    """Drop load-buffer insertions of out-of-order-issued loads."""

    name = "suppress-load-buffer"

    def install(self, processor: Processor) -> None:
        buffer = processor.lsq.load_buffer
        original = buffer.insert

        def corrupted(load):
            if self.rng.random() < self.rate:
                self._record(processor, load,
                             "suppressed load-buffer insertion")
                load.load_buffer_slot = -1
                return
            original(load)

        buffer.insert = corrupted


class DropSegmentSearchFault(FaultInjector):
    """Truncate the youngest segment from forwarding searches."""

    name = "drop-segment-search"

    def install(self, processor: Processor) -> None:
        lsq = processor.lsq
        original = lsq._sq_search

        def corrupted(load, path):
            if path and self.rng.random() < self.rate:
                self._record(processor, load,
                             f"dropped segment {path[0]} (the youngest "
                             f"stores) from the forwarding search")
                path = path[1:]
            return original(load, path)

        lsq._sq_search = corrupted


class MembarDropFault(FaultInjector):
    """Drop the memory-barrier issue gate for selected instructions."""

    name = "drop-membar"

    def install(self, processor: Processor) -> None:
        lsq = processor.lsq
        original = lsq._membar_blocks
        # Per-instruction decisions: once an instruction's gate is
        # dropped it stays dropped, so issue logic sees a consistent
        # (corrupted) ordering rather than a flickering one.
        decisions: Dict[int, bool] = {}

        def corrupted(inst):
            if not original(inst):
                return False
            drop = decisions.get(inst.seq)
            if drop is None:
                drop = self.rng.random() < self.rate
                decisions[inst.seq] = drop
                if drop:
                    self._record(processor, inst,
                                 "dropped the memory-barrier gate; the "
                                 "instruction issues past an incomplete "
                                 "MEMBAR")
            return not drop

        lsq._membar_blocks = corrupted


class _LyingNilp:
    """Proxy over :class:`~repro.core.load_buffer.NilpTracker` whose
    in-order answer can lie (the tracker itself has ``__slots__``, so
    corruption happens one level up).

    The lie is sticky per load: ``load_blocked`` and
    ``_finish_load_issue`` must see the same answer, otherwise the LSQ
    would insert a "blocked" load into the buffer after all.  A load
    lied about is genuinely out of order yet gets no load-buffer entry
    and no out-of-order bookkeeping — the tracker's own state stays
    self-consistent, so the cycle invariants cannot see the corruption
    and the memory-model oracle has to catch any wrong value.
    """

    def __init__(self, real: object, fault: "NilpCorruptionFault",
                 processor: Processor) -> None:
        self._real = real
        self._fault = fault
        self._processor = processor
        self._decisions: Dict[int, bool] = {}

    def __getattr__(self, name):
        return getattr(self._real, name)

    def is_in_order(self, load) -> bool:
        if self._real.is_in_order(load):
            return True
        lie = self._decisions.get(load.seq)
        if lie is None:
            lie = self._fault.rng.random() < self._fault.rate
            self._decisions[load.seq] = lie
            if lie:
                self._fault._record(
                    self._processor, load,
                    "NILP pointer corrupted: an out-of-order load is "
                    "reported in order (no load-buffer entry, no "
                    "out-of-order bookkeeping)")
        return lie


class NilpCorruptionFault(FaultInjector):
    """Make the NILP pointer lie that out-of-order loads are in order."""

    name = "corrupt-nilp"

    def install(self, processor: Processor) -> None:
        lsq = processor.lsq
        lsq.nilp = _LyingNilp(lsq.nilp, self, processor)


#: Registry of every fault class, keyed by its reporting name.
FAULT_CLASSES: Dict[str, type] = {
    cls.name: cls
    for cls in (SkipSqSearchFault, SuppressLoadBufferFault,
                DropSegmentSearchFault, MembarDropFault,
                NilpCorruptionFault)
}


@dataclass
class FaultOutcome:
    fault: InjectedFault
    status: str   # "recovered" | "detected" | "benign" | "unresolved"


@dataclass
class CampaignReport:
    """Per-fault classification for one injected run."""

    fault_name: str
    trace_name: str
    outcomes: List[FaultOutcome]
    checker: ValidationChecker

    @property
    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def silent(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.status == "silent"]

    @property
    def ok(self) -> bool:
        """True when no injected fault escaped unnoticed."""
        return not self.silent

    def format(self) -> str:
        counts = self.counts
        summary = ", ".join(f"{status}={count}"
                            for status, count in sorted(counts.items()))
        lines = [f"{self.fault_name} on {self.trace_name}: "
                 f"{len(self.outcomes)} injected ({summary or 'none'})"]
        for outcome in self.silent:
            fault = outcome.fault
            lines.append(f"  SILENT: seq {fault.seq} "
                         f"trace[{fault.trace_index}] at cycle "
                         f"{fault.cycle}: {fault.detail}")
        return "\n".join(lines)


def _classify(fault: InjectedFault, failed_seqs: frozenset,
              verdicts: Dict[int, tuple]) -> FaultOutcome:
    inst = fault.inst
    if inst.squashed:
        return FaultOutcome(fault, "recovered")
    if inst.state is InstState.COMMITTED:
        if fault.seq in failed_seqs:
            return FaultOutcome(fault, "detected")
        verdict = verdicts.get(fault.trace_index)
        if verdict is not None and verdict[0] != verdict[1]:
            # Committed wrongly yet nothing flagged it — the checker's
            # own verdict record contradicts its failure list.  This is
            # the outcome the whole subsystem exists to rule out.
            return FaultOutcome(fault, "silent")
        return FaultOutcome(fault, "benign")
    # Only possible when the run was cut short by max_cycles.
    return FaultOutcome(fault, "unresolved")


def run_fault_campaign(trace, machine, injector: FaultInjector,
                       max_cycles: Optional[int] = None) -> CampaignReport:
    """Run ``trace`` with ``injector`` active and classify every fault.

    The run executes under a non-raising full checker; a fault is
    acceptable only when the machine recovered from it, the checker
    detected it, or it provably did not matter.  ``report.ok`` is the
    zero-silent-corruption property.
    """
    checker = ValidationChecker(raise_on_error=False)
    processor = Processor(machine, checker=checker)
    injector.install(processor)
    processor.run(trace, max_cycles=max_cycles)
    failed_seqs = frozenset(failure.seq for failure in checker.failures)
    outcomes = [_classify(fault, failed_seqs, checker.load_verdicts)
                for fault in injector.injected]
    return CampaignReport(fault_name=injector.name, trace_name=trace.name,
                          outcomes=outcomes, checker=checker)


def run_all_fault_classes(trace, machine, seed: int = 0,
                          rate: float = 0.25) -> Dict[str, CampaignReport]:
    """One campaign per registered fault class (fresh injector each)."""
    reports = {}
    for name, cls in FAULT_CLASSES.items():
        reports[name] = run_fault_campaign(trace, machine,
                                           cls(seed=seed, rate=rate))
    return reports
