"""Dynamic (in-flight) instruction state.

A :class:`DynInst` wraps one trace :class:`~repro.workload.isa.Instruction`
for one trip through the pipeline.  After a memory-order violation the
same trace instruction is re-fetched as a *new* DynInst with a larger
sequence number, so sequence numbers always reflect current program
order among in-flight instructions.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.workload.isa import OP_FLAGS, Instruction


class InstState(enum.IntEnum):
    DISPATCHED = 0   # in ROB + issue queue, waiting for operands
    ISSUED = 1       # selected; executing (memory ops: address generation)
    EXECUTING = 2    # memory ops: performing the LSQ/cache access
    COMPLETE = 3     # result available; waiting for in-order commit
    COMMITTED = 4
    SQUASHED = 5


class DynInst:
    """One in-flight dynamic instruction.

    The trace instruction's classification bits and operands
    (``is_load`` … ``latency``) are copied into slots at construction:
    the simulator reads them millions of times per run, and a plain
    slot read is several times cheaper than a property chained through
    ``Instruction`` and ``OpClass``.  They are immutable by contract
    (``inst`` is frozen).
    """

    __slots__ = (
        "seq", "trace_index", "inst", "state",
        "is_load", "is_store", "is_memory", "is_branch", "is_membar",
        "addr", "size", "pc", "latency",
        "pending_sources", "consumers", "prev_writer",
        "issue_cycle", "complete_cycle",
        "forwarded_from", "forwarded_from_pc", "ooo_issued",
        "load_buffer_slot", "wait_store_seq", "predicted_dependent",
        "searched_sq", "lsq_segment", "lsq_virtual", "ssid",
        "mispredicted", "mem_executed",
    )

    def __init__(self, seq: int, trace_index: int, inst: Instruction) -> None:
        self.seq = seq
        self.trace_index = trace_index
        self.inst = inst
        self.state = InstState.DISPATCHED
        (self.is_load, self.is_store, self.is_memory, self.is_branch,
         self.is_membar, self.latency) = OP_FLAGS[inst.op]
        self.addr = inst.addr
        self.size = inst.size
        self.pc = inst.pc
        self.pending_sources = 0
        self.consumers: List["DynInst"] = []
        self.prev_writer: Optional["DynInst"] = None
        self.issue_cycle = -1
        self.complete_cycle = -1
        # -- memory bookkeeping -----------------------------------------
        self.forwarded_from: Optional[int] = None  # seq of forwarding store
        self.forwarded_from_pc: Optional[int] = None
        self.ooo_issued = False          # issued while an older load wasn't
        self.load_buffer_slot = -1
        self.wait_store_seq: Optional[int] = None  # store-set synchronisation
        self.predicted_dependent = False
        self.searched_sq = False
        self.lsq_segment = -1            # segment holding this entry
        self.lsq_virtual = -1            # ring position (no-self-circular)
        self.ssid: Optional[int] = None  # store-set id at dispatch
        self.mispredicted = False
        self.mem_executed = False        # address resolved at the LSQ

    # -- convenience ------------------------------------------------------

    @property
    def squashed(self) -> bool:
        return self.state is InstState.SQUASHED

    @property
    def issued(self) -> bool:
        state = self.state
        return (state is InstState.ISSUED or state is InstState.EXECUTING
                or state is InstState.COMPLETE
                or state is InstState.COMMITTED)

    @property
    def complete(self) -> bool:
        state = self.state
        return state is InstState.COMPLETE or state is InstState.COMMITTED

    def overlaps(self, other: "DynInst") -> bool:
        """Same byte-overlap test as ``Instruction.overlaps``, over the
        cached operand slots (the hottest predicate in the simulator)."""
        if not (self.is_memory and other.is_memory):
            return False
        return (self.addr < other.addr + other.size
                and other.addr < self.addr + self.size)

    def __repr__(self) -> str:
        return (f"DynInst(seq={self.seq}, pc={self.pc:#x}, "
                f"op={self.inst.op.name}, state={self.state.name})")
