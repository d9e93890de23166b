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

2. **Structural invariants** — the invariants of
   :mod:`repro.validate.invariants` must hold.  At the end of every
   stepped cycle each is checked on the entries that cycle's
   dispatches, commits and load executions touched, and on the memory
   stage (:func:`~repro.validate.invariants.cycle_findings`).  The full
   :func:`~repro.validate.invariants.scan` runs as a backstop after
   every squash, every :data:`SCAN_INTERVAL` stepped cycles and
   whenever the ROB drains (the last cycle of a run among them).
   Corruption at one of those events fails in its own cycle;
   corruption anywhere else within :data:`SCAN_INTERVAL` stepped
   cycles.

The checker also keeps the last :data:`RECENT_COMMITS` instructions to
commit, so a diagnostic bundle can draw the pipetrace leading up to a
failure (:func:`~repro.validate.bundle.build_bundle`).

With ``raise_on_error=True`` (the default) the first discrepancy
raises :class:`~repro.validate.bundle.ValidationError` (or
:class:`~repro.validate.bundle.InvariantViolation`) carrying a
:class:`~repro.validate.bundle.DiagnosticBundle`; with
``raise_on_error=False`` failures accumulate in ``checker.failures``
for post-run inspection (the mode the fault-injection harness uses).
Either way the bundle is taken when the first failure is recorded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

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

if TYPE_CHECKING:
    from repro.pipeline.dyninst import DynInst

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

#: Committed instructions kept for diagnostic pipetraces.
RECENT_COMMITS = 64

#: Stepped cycles between backstop scans.
SCAN_INTERVAL = 64


class ValidationChecker:
    """Oracle + invariant cross-checking for one simulation run."""

    def __init__(self, *, raise_on_error: bool = True) -> None:
        self.raise_on_error = raise_on_error
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
        #: The last RECENT_COMMITS committed instructions, oldest first.
        self.recent_commits: Deque["DynInst"] = deque(maxlen=RECENT_COMMITS)
        #: The bundle taken at the first failure.
        self._first_bundle: Optional[DiagnosticBundle] = None
        self._until_scan = SCAN_INTERVAL   # stepped cycles to the backstop
        self._squashed = False             # a squash since the last scan
        self._tally: Tuple[int, ...] = ()  # invariants.tally() last cycle
        self._executed: List["DynInst"] = []  # loads executed this cycle

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, processor, trace) -> None:
        """Bind to one run (called by ``Processor.run``)."""
        self.processor = processor
        self.failures = []
        self._seen = set()
        self._memory = CommittedMemory()
        self._store_trace = {}
        self._observed = {}
        self._commit_index = 0
        self._last_seq = -1
        self.recent_commits.clear()
        self._first_bundle = None
        self._until_scan = SCAN_INTERVAL
        self._squashed = False
        self._tally = invariants.tally(processor)
        self._executed = []
        self.checked_loads = 0
        self.checked_cycles = 0
        self.load_verdicts = {}
        self.oracle = MemoryOracle(trace)

    # ------------------------------------------------------------------
    # failure plumbing
    # ------------------------------------------------------------------

    def _fail(self, kind: str, seq: int, trace_index: int, message: str,
              expected: object = None, observed: object = None,
              invariant: bool = False) -> None:
        key = (kind, seq)
        if key in self._seen:
            return
        self._seen.add(key)
        cycle = self.processor.cycle if self.processor else -1
        failure = ValidationFailure(
            kind=kind, cycle=cycle,
            seq=seq, trace_index=trace_index,
            expected=expected, observed=observed, message=message)
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(failure)
        if self._first_bundle is None:
            self._first_bundle = build_bundle(self.processor, seq=seq,
                                              trace_index=trace_index,
                                              failures=[failure])
        if self.raise_on_error:
            error = InvariantViolation if invariant else ValidationError
            raise error(failure.format(), failure=failure,
                        bundle=self._first_bundle)

    @property
    def ok(self) -> bool:
        return not self.failures

    def bundle(self) -> DiagnosticBundle:
        """The bundle taken at the first failure, listing every failure;
        with none, one of the current processor state."""
        if self._first_bundle is None:
            return build_bundle(self.processor)
        return replace(self._first_bundle, failures=list(self.failures))

    def report(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return (f"validation: {status}; {self.checked_loads} committed "
                f"loads cross-checked, {self.checked_cycles} cycles of "
                f"invariants")

    # ------------------------------------------------------------------
    # processor hooks
    # ------------------------------------------------------------------

    def _report(self, findings: List[invariants.Finding]) -> None:
        for finding in findings:
            self._fail("invariant:" + finding.name, finding.seq,
                       finding.trace_index, finding.message, invariant=True)

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
        self._executed.append(load)

    def _check_load_load(self, load, violation) -> None:
        """An older load executing after a younger overlapping load
        already issued must trigger a load-load violation (in modes
        that enforce hardware load-load ordering)."""
        lsq = self.processor.lsq
        if lsq.config.lq_search not in _ORDERING_ENFORCED:
            return
        match = None      # the oldest younger match decides
        for other in reversed(lsq.lq):
            if other.seq <= load.seq:
                break
            if (other.is_load and other.mem_executed and not other.squashed
                    and other.overlaps(load)):
                match = other
        if match is not None and (violation is None
                                  or violation.squash_seq > match.seq):
            self._fail(
                "missed-load-load", match.seq, match.trace_index,
                f"load seq {match.seq} obtained its value before "
                f"older overlapping load seq {load.seq} executed, "
                f"and no load-load violation was raised")

    def on_commit(self, inst) -> None:
        self.recent_commits.append(inst)
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
        self._squashed = True

    def end_cycle(self) -> None:
        """Check what this stepped cycle can have broken, or run the
        backstop scan when one is due."""
        self.checked_cycles += 1
        processor = self.processor
        self._until_scan -= 1
        tally = invariants.tally(processor)
        if self._until_scan <= 0 or self._squashed or processor.rob.empty:
            self._until_scan = SCAN_INTERVAL
            self._squashed = False
            findings = invariants.scan(processor, min_seq=self._last_seq)
        else:
            findings = invariants.cycle_findings(
                processor, self._last_seq, self._tally, tally,
                self._executed)
        self._tally = tally
        self._executed = []
        self._report(findings)

    def skip_cycles(self, start: int, stop: int) -> None:
        """Account for the quiet cycles ``start .. stop-1`` the
        processor skipped instead of stepping.

        No stage acts in a quiet cycle, so nothing the invariants read
        changes: a check there finds what the checks of the last stepped
        cycle found, and failures de-duplicate by ``(kind, seq)``.  The
        skipped cycles therefore count in ``checked_cycles`` without
        being checked, and not toward the next backstop scan.
        """
        self.checked_cycles += stop - start
