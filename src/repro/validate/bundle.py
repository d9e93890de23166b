"""Structured validation errors and the diagnostic bundle.

Every failure the validation subsystem can raise — a memory-model
mismatch from the oracle, a structural invariant violation, or the
deadlock watchdog firing — carries a :class:`DiagnosticBundle`: the
machine configuration, a pipetrace of the instructions around the
failing one, the trace window around it, and a one-line pipeline state
summary.  ``bundle.format()`` is everything needed to reproduce
and debug the failure from a cold start.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional

from repro.pipeline.debug import draw

#: Instruction rows and cycle columns of a bundle's pipetrace.
PIPETRACE_ROWS = 64
PIPETRACE_CYCLES = 100
#: How far back a pipetrace may widen to the failing instruction's
#: dispatch (cycles before the failure).
PIPETRACE_REACH = 4 * PIPETRACE_CYCLES


@dataclass
class ValidationFailure:
    """One detected discrepancy (machine behaviour vs. the oracle)."""

    kind: str                 # e.g. "stale-load", "invariant:rob-order"
    cycle: int
    seq: int = -1             # dynamic sequence number involved
    trace_index: int = -1     # trace position involved
    expected: object = None   # oracle's answer (store trace index / None)
    observed: object = None   # what the machine actually did
    message: str = ""

    def format(self) -> str:
        parts = [f"[{self.kind}] cycle {self.cycle}"]
        if self.seq >= 0:
            parts.append(f"seq {self.seq}")
        if self.trace_index >= 0:
            parts.append(f"trace index {self.trace_index}")
        head = " ".join(parts)
        detail = self.message
        if self.expected is not None or self.observed is not None:
            detail += (f" (expected source: {self._name(self.expected)}, "
                       f"observed source: {self._name(self.observed)})")
        return f"{head}: {detail}"

    @staticmethod
    def _name(source: object) -> str:
        if source is None:
            return "initial memory"
        return f"store @trace[{source}]"


class ValidationError(Exception):
    """The simulator executed a memory operation incorrectly.

    Raised by the :class:`~repro.validate.checker.ValidationChecker`
    when a *committed* load observed a different store than the golden
    in-order replay says it should have (``failure`` has the details,
    ``bundle`` the reproduction context).
    """

    def __init__(self, message: str,
                 failure: Optional[ValidationFailure] = None,
                 bundle: Optional["DiagnosticBundle"] = None) -> None:
        super().__init__(message)
        self.failure = failure
        self.bundle = bundle

    def __str__(self) -> str:
        base = super().__str__()
        if self.bundle is not None:
            return f"{base}\n{self.bundle.format()}"
        return base


class InvariantViolation(ValidationError):
    """A cycle-level structural invariant does not hold."""


class SimulationDeadlock(RuntimeError):
    """The watchdog fired: no instruction committed for too long."""

    def __init__(self, message: str,
                 bundle: Optional["DiagnosticBundle"] = None) -> None:
        super().__init__(message)
        self.bundle = bundle

    def __str__(self) -> str:
        base = super().__str__()
        if self.bundle is not None:
            return f"{base}\n{self.bundle.format()}"
        return base


@dataclass
class DiagnosticBundle:
    """Everything needed to reproduce one failure."""

    trace_name: str
    cycle: int
    machine_summary: str
    pipeline_state: str
    pipetrace: str
    trace_window: str
    failures: List[ValidationFailure] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            "================ diagnostic bundle ================",
            f"trace:   {self.trace_name}",
            f"cycle:   {self.cycle}",
            f"machine: {self.machine_summary}",
            f"state:   {self.pipeline_state}",
        ]
        if self.failures:
            lines.append("failures:")
            lines.extend(f"  {failure.format()}" for failure in self.failures)
        lines.append("---- pipetrace ----")
        lines.append(self.pipetrace)
        lines.append("---- trace window ----")
        lines.append(self.trace_window)
        lines.append("===================================================")
        return "\n".join(lines)


def _machine_summary(machine) -> str:
    lsq = machine.lsq
    shape = (f"{lsq.segments}x{lsq.segment_entries}" if lsq.segmented
             else f"LQ{lsq.lq_entries}/SQ{lsq.sq_entries}")
    return (f"{shape} ports={lsq.search_ports} "
            f"predictor={lsq.predictor.value} lq_search={lsq.lq_search.value} "
            f"load_buffer={lsq.load_buffer_entries} "
            f"unified={lsq.unified_queue} "
            f"width={machine.core.issue_width}")


def _trace_window(trace, center: int, radius: int = 8) -> str:
    if trace is None or not len(trace):
        return "(no trace)"
    center = min(max(center, 0), len(trace) - 1)
    lo = max(center - radius, 0)
    hi = min(center + radius + 1, len(trace))
    lines = []
    for index in range(lo, hi):
        inst = trace[index]
        marker = ">>" if index == center else "  "
        mem = (f" addr={inst.addr:#x} size={inst.size}"
               if inst.is_memory else "")
        lines.append(f"{marker} [{index}] pc={inst.pc:#x} "
                     f"{inst.op.name}{mem}")
    return "\n".join(lines)


def _pipetrace(processor, seq: int) -> str:
    """The PIPETRACE_ROWS instructions around ``seq`` (the ROB head when
    negative) over the PIPETRACE_CYCLES cycles up to now, reaching back
    to the dispatch of ``seq`` when that lies within PIPETRACE_REACH
    cycles of now.

    Rows come from the in-flight ROB and, when a checker is attached,
    the instructions it saw commit last; squashed instructions are gone
    from both.
    """
    checker = processor.checker
    insts = list(checker.recent_commits) if checker is not None else []
    insts.extend(processor.rob)
    if not insts:
        return "(no instruction in flight or recently committed)"
    if seq < 0:
        head = processor.rob.head
        seq = head.seq if head is not None else insts[-1].seq
    center = bisect_left([inst.seq for inst in insts], seq)
    first = max(0, min(center - PIPETRACE_ROWS // 2,
                       len(insts) - PIPETRACE_ROWS))
    rows = insts[first:first + PIPETRACE_ROWS]
    end = processor.cycle
    # Rows are in dispatch order, and dispatch is each one's first stage.
    start = max(rows[0].dispatch_cycle, end - PIPETRACE_CYCLES + 1)
    if center < len(insts) and insts[center].seq == seq:
        dispatch = insts[center].dispatch_cycle
        if end - dispatch < PIPETRACE_REACH:
            start = min(start, dispatch)
    return draw(rows, start, end)


def build_bundle(processor, seq: int = -1, trace_index: int = -1,
                 failures: Optional[List[ValidationFailure]] = None
                 ) -> DiagnosticBundle:
    """Snapshot ``processor`` into a :class:`DiagnosticBundle`.

    ``seq`` centres the pipetrace and ``trace_index`` the trace window.
    When unknown, each falls back to the ROB head (the oldest unfinished
    instruction); with the ROB empty, to the youngest commit the checker
    kept and to the fetch pointer.
    """
    trace = processor._trace
    if trace_index < 0:
        head = processor.rob.head
        trace_index = (head.trace_index if head is not None
                       else processor._fetch_index)
    pipetrace = _pipetrace(processor, seq)
    # Parked loads are memory-stage entries too (Processor._park).
    mem_stage = len(processor._mem_stage) + sum(
        len(waits) for waits in processor._parked.lists)
    state = (f"rob={len(processor.rob)} iq={len(processor.iq)} "
             f"mem_stage={mem_stage} "
             f"lq={len(processor.lsq.lq)} sq={len(processor.lsq.sq)} "
             f"last_commit_cycle={processor._last_commit_cycle}")
    if seq >= 0:
        state += f" failing_seq={seq}"
    return DiagnosticBundle(
        trace_name=trace.name if trace is not None else "(none)",
        cycle=processor.cycle,
        machine_summary=_machine_summary(processor.machine),
        pipeline_state=state,
        pipetrace=pipetrace,
        trace_window=_trace_window(trace, trace_index),
        failures=list(failures or ()),
    )
