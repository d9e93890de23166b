"""The validation checker: cross-checks a running processor.

A :class:`ValidationChecker` attaches to one
:class:`~repro.pipeline.processor.Processor` run and validates it on
two levels:

1. **Memory-model oracle** — every *committed* load
   is checked against the golden sequential replay
   (:class:`~repro.validate.oracle.MemoryOracle`): the store it
   actually observed (forwarding store, or the youngest committed store
   in the data cache at access time) must be the store a sequential
   machine would have observed.  The checker also verifies commit
   order (each trace instruction commits exactly once, in order) and —
   in configurations that promise hardware load-load ordering — that
   the machine raises a violation whenever an older load executes
   after a younger overlapping load already obtained its value.

2. **Cycle-level invariants** — after each
   simulated cycle the structural invariants of
   :mod:`repro.validate.invariants` must hold.

With ``raise_on_error=True`` (the default) the first discrepancy
raises :class:`~repro.validate.bundle.ValidationError` (or
:class:`~repro.validate.bundle.InvariantViolation`) carrying a
:class:`~repro.validate.bundle.DiagnosticBundle`; with
``raise_on_error=False`` failures accumulate in ``checker.failures``
for post-run inspection (the mode the fault-injection harness uses).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.config import LoadQueueSearchMode
from repro.validate import invariants
from repro.validate.bundle import (
    DiagnosticBundle,
    InvariantViolation,
    ValidationError,
    ValidationFailure,
    build_bundle,
)
from repro.validate.oracle import CommittedMemory, MemoryOracle

#: Load-queue search modes that promise hardware load-load ordering;
#: under MEMBAR/INVALIDATION the machine makes no such promise
#: (ordering is the programmer's or the coherence protocol's job).
_ORDERING_ENFORCED = frozenset({
    LoadQueueSearchMode.SEARCH_LQ,
    LoadQueueSearchMode.LOAD_BUFFER,
    LoadQueueSearchMode.IN_ORDER,
    LoadQueueSearchMode.IN_ORDER_ALWAYS_SEARCH,
})

_MISSING = object()

#: Cap on recorded failures in non-raising mode (a badly corrupted run
#: would otherwise accumulate one failure per cycle).
MAX_RECORDED_FAILURES = 512


class ValidationChecker:
    """Oracle + invariant cross-checking for one simulation run."""

    def __init__(self, *, raise_on_error: bool = True,
                 invariant_interval: int = 1) -> None:
        if invariant_interval < 1:
            raise ValueError("invariant_interval must be >= 1")
        self.raise_on_error = raise_on_error
        self.invariant_interval = invariant_interval
        self.failures: List[ValidationFailure] = []
        self.checked_loads = 0
        self.checked_cycles = 0
        self.processor = None
        self.oracle: Optional[MemoryOracle] = None
        #: committed-load verdicts: trace index -> (observed, expected),
        #: kept so the fault harness can re-derive correctness without
        #: trusting the failure list.
        self.load_verdicts: Dict[int, Tuple[object, object]] = {}
        self._memory = CommittedMemory()
        self._store_trace: Dict[int, int] = {}   # store seq -> trace index
        self._observed: Dict[int, Optional[int]] = {}  # load seq -> source
        self._commit_index = 0                   # next trace index to commit
        self._last_seq = -1                      # last committed seq
        self._seen: Set[Tuple[str, int]] = set()
        # True while the pipeline state has changed since the last scan
        # (only possible with invariant_interval > 1).
        self._unscanned = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, processor, trace) -> None:
        """Bind to one run (called by ``Processor.run``)."""
        from repro.pipeline.debug import PipelineTracer
        self.processor = processor
        self.failures = []
        self._seen = set()
        self._memory = CommittedMemory()
        self._store_trace = {}
        self._observed = {}
        self._commit_index = 0
        self._last_seq = -1
        self._unscanned = False
        self.checked_loads = 0
        self.checked_cycles = 0
        self.load_verdicts = {}
        self.oracle = MemoryOracle(trace)
        if processor.tracer is None:
            # Keep a rolling last-64-instruction pipetrace so every
            # diagnostic bundle has one.
            processor.tracer = PipelineTracer(limit=64, rolling=True)

    # ------------------------------------------------------------------
    # failure plumbing
    # ------------------------------------------------------------------

    def _fail(self, kind: str, seq: int, trace_index: int, message: str,
              expected: object = None, observed: object = None,
              invariant: bool = False, cycle: Optional[int] = None) -> None:
        key = (kind, seq)
        if key in self._seen:
            return
        self._seen.add(key)
        if cycle is None:
            cycle = self.processor.cycle if self.processor else -1
        failure = ValidationFailure(
            kind=kind, cycle=cycle,
            seq=seq, trace_index=trace_index,
            expected=expected, observed=observed, message=message)
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(failure)
        if self.raise_on_error:
            bundle = build_bundle(self.processor, seq=seq,
                                  trace_index=trace_index,
                                  failures=[failure])
            error = InvariantViolation if invariant else ValidationError
            raise error(failure.format(), failure=failure, bundle=bundle)

    @property
    def ok(self) -> bool:
        return not self.failures

    def bundle(self) -> DiagnosticBundle:
        """Diagnostic bundle for the current processor state."""
        first = self.failures[0] if self.failures else None
        return build_bundle(
            self.processor,
            seq=first.seq if first else -1,
            trace_index=first.trace_index if first else -1,
            failures=self.failures)

    def report(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return (f"validation: {status}; {self.checked_loads} committed "
                f"loads cross-checked, {self.checked_cycles} cycles of "
                f"invariants")

    # ------------------------------------------------------------------
    # processor hooks
    # ------------------------------------------------------------------

    def on_dispatch(self, inst) -> None:
        if inst.is_store:
            self._store_trace[inst.seq] = inst.trace_index

    def on_load_executed(self, load, violation) -> None:
        """Record the observed source; check load-load enforcement."""
        if load.forwarded_from is not None:
            source = self._store_trace.get(load.forwarded_from)
            if source is None:
                self._fail(
                    "unknown-forwarding-store", load.seq, load.trace_index,
                    f"load forwarded from untracked store seq "
                    f"{load.forwarded_from}")
            self._observed[load.seq] = source
        else:
            self._observed[load.seq] = self._memory.version(load.inst)
        self._check_load_load(load, violation)

    def _check_load_load(self, load, violation) -> None:
        """An older load executing after a younger overlapping load
        already issued must trigger a load-load violation (in modes
        that enforce hardware load-load ordering)."""
        lsq = self.processor.lsq
        if lsq.config.lq_search not in _ORDERING_ENFORCED:
            return
        for other in lsq.lq.entries():
            if other.seq <= load.seq:
                continue
            if (other.is_load and other.mem_executed and not other.squashed
                    and other is not load and other.overlaps(load)):
                if violation is None or violation.squash_seq > other.seq:
                    self._fail(
                        "missed-load-load", other.seq, other.trace_index,
                        f"load seq {other.seq} obtained its value before "
                        f"older overlapping load seq {load.seq} executed, "
                        f"and no load-load violation was raised")
                return  # oldest younger match decides

    def on_commit(self, inst) -> None:
        if inst.trace_index != self._commit_index:
            self._fail(
                "commit-order", inst.seq, inst.trace_index,
                f"committed trace index {inst.trace_index}, expected "
                f"{self._commit_index} (each trace instruction must "
                f"commit exactly once, in order)")
        self._commit_index = inst.trace_index + 1
        if inst.seq <= self._last_seq:
            self._fail(
                "commit-order", inst.seq, inst.trace_index,
                f"committed seq {inst.seq} not younger than previously "
                f"committed seq {self._last_seq}")
        self._last_seq = inst.seq
        if inst.is_store:
            self._memory.write(inst.inst, inst.trace_index)
            self._store_trace.pop(inst.seq, None)
        elif inst.is_load:
            self._check_committed_load(inst)

    def _check_committed_load(self, load) -> None:
        observed = self._observed.pop(load.seq, _MISSING)
        if observed is _MISSING:
            self._fail(
                "unobserved-load", load.seq, load.trace_index,
                "load committed without a recorded memory access")
            return
        expected = self.oracle.correct_source(load.trace_index)
        self.checked_loads += 1
        self.load_verdicts[load.trace_index] = (observed, expected)
        if observed != expected:
            self._fail(
                "stale-load", load.seq, load.trace_index,
                f"committed load at trace[{load.trace_index}] "
                f"(pc={load.pc:#x}, addr={load.addr:#x}) observed the "
                f"wrong store", expected=expected, observed=observed)

    def on_squash(self, seq: int, cycle: int) -> None:
        if seq <= self._last_seq:
            self._fail(
                "squash-committed", seq, -1,
                f"squash from seq {seq} would undo committed seq "
                f"{self._last_seq}")
        self._observed = {s: v for s, v in self._observed.items() if s < seq}
        self._store_trace = {s: v for s, v in self._store_trace.items()
                             if s < seq}

    def end_cycle(self) -> None:
        cycle = self.processor.cycle
        if cycle % self.invariant_interval:
            self._unscanned = True
            return
        self.checked_cycles += 1
        self._scan(cycle)

    def skip_cycles(self, start: int, stop: int) -> None:
        """Account for the quiet cycles ``start .. stop-1`` the
        processor skipped instead of stepping.

        No stage acts in a quiet cycle, so nothing :func:`invariants.scan`
        reads changes: a scan there finds what the scan after the last
        stepped cycle found, and failures de-duplicate by ``(kind, seq)``.
        The window's due scans therefore count in ``checked_cycles``
        without running.  Only when ``invariant_interval`` left that
        last state unscanned does the window's first due scan run.
        """
        interval = self.invariant_interval
        first = start + (-start) % interval
        if first >= stop:
            return
        self.checked_cycles += (stop - 1 - first) // interval + 1
        if self._unscanned:
            self._scan(first)

    def _scan(self, cycle: int) -> None:
        self._unscanned = False
        for finding in invariants.scan(self.processor,
                                       min_seq=self._last_seq):
            self._fail("invariant:" + finding.name, finding.seq, -1,
                       finding.message, invariant=True, cycle=cycle)
