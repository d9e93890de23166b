"""Validation subsystem: memory-model oracle, invariants, fault injection.

The simulator's correctness rests on memory ordering — store-to-load
forwarding, violation detection, squash-and-replay.  This package turns
those from beliefs into checked properties:

* :class:`~repro.validate.oracle.MemoryOracle` — golden sequential
  replay giving the architecturally-correct source of every load;
* :mod:`repro.validate.invariants` — structural invariants (ROB/LSQ
  mirroring, load-buffer/NILP consistency, port booking), checked at
  the events that can break them, with a full scan as backstop;
* :class:`~repro.validate.checker.ValidationChecker` — attaches to a
  :class:`~repro.pipeline.processor.Processor` (``simulate(...,
  validate=True)``) and raises :class:`ValidationError` with a
  :class:`DiagnosticBundle` on the first discrepancy;
* :mod:`repro.validate.faults` — seeded injectors that corrupt LSQ
  decisions and assert every fault is recovered, detected, or benign —
  never silent.

See ``docs/VALIDATION.md`` for the full semantics.
"""

from repro.validate.bundle import (
    DiagnosticBundle,
    InvariantViolation,
    SimulationDeadlock,
    ValidationError,
    ValidationFailure,
    build_bundle,
)
from repro.validate.oracle import CommittedMemory, MemoryOracle
from repro.validate.invariants import Finding, scan
from repro.validate.checker import ValidationChecker
from repro.validate.faults import (
    FAULT_CLASSES,
    CampaignReport,
    DropSegmentSearchFault,
    FaultInjector,
    MembarDropFault,
    NilpCorruptionFault,
    SkipSqSearchFault,
    SuppressLoadBufferFault,
    run_all_fault_classes,
    run_fault_campaign,
)

__all__ = [
    "DiagnosticBundle",
    "InvariantViolation",
    "SimulationDeadlock",
    "ValidationError",
    "ValidationFailure",
    "build_bundle",
    "CommittedMemory",
    "MemoryOracle",
    "Finding",
    "scan",
    "ValidationChecker",
    "FAULT_CLASSES",
    "CampaignReport",
    "DropSegmentSearchFault",
    "FaultInjector",
    "MembarDropFault",
    "NilpCorruptionFault",
    "SkipSqSearchFault",
    "SuppressLoadBufferFault",
    "run_all_fault_classes",
    "run_fault_campaign",
]
