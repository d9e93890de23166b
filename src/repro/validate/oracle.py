"""Golden memory-model oracle: sequential in-order replay of a trace.

The simulator is trace driven and never interprets data values, so
"the load got the right value" is expressed in terms of *sources*: the
architecturally-correct source of a load is the youngest earlier store
in trace program order whose access overlaps the load's bytes (or
initial memory when no such store exists).  A sequential processor —
one instruction at a time, in order — would observe exactly that store,
which is what :class:`MemoryOracle` computes in one pass.

The out-of-order machine executes the same trace with forwarding,
speculation, and squash-and-replay; the
:class:`~repro.validate.checker.ValidationChecker` reconstructs which
store each *committed* load actually observed (the forwarding store,
or the youngest store that had written the data cache when the load
performed its access) and cross-checks it against this oracle.  Any
mismatch is a memory-ordering bug the violation-detection machinery
failed to catch.

Byte granularity matters: when several stores each cover part of a
load, both the simulator's forwarding and a real last-writer-wins
memory agree that the *youngest overlapping* store is the observed
source, so the oracle reports ``max`` over the load's bytes.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional

from repro.workload.isa import OP_FLAGS


def _youngest(writers: Dict[int, int], inst) -> int:
    """Youngest writer of any of ``inst``'s bytes (-1 for none)."""
    return max(map(writers.get, range(inst.addr, inst.addr + inst.size),
                   repeat(-1)), default=-1)


class MemoryOracle:
    """Per-load architecturally-correct sources for one trace."""

    def __init__(self, trace) -> None:
        self.trace = trace
        #: load trace index -> source store trace index (None = memory).
        self._correct: Dict[int, Optional[int]] = {}
        last_writer: Dict[int, int] = {}   # byte address -> store index
        for index, inst in enumerate(trace):
            is_load, is_store = OP_FLAGS[inst.op][:2]
            if is_store:
                last_writer.update(dict.fromkeys(
                    range(inst.addr, inst.addr + inst.size), index))
            elif is_load:
                source = _youngest(last_writer, inst)
                self._correct[index] = source if source >= 0 else None

    def correct_source(self, trace_index: int) -> Optional[int]:
        """Store trace index a sequential machine would observe.

        ``None`` means the load reads initial memory.  Raises
        :class:`KeyError` for indices that are not loads.
        """
        return self._correct[trace_index]

    def is_load(self, trace_index: int) -> bool:
        return trace_index in self._correct

    def __len__(self) -> int:
        return len(self._correct)


class CommittedMemory:
    """Byte-versioned model of the committed (architectural) memory.

    Tracks, per byte, the trace index of the youngest *committed* store;
    a load that reads the data cache observes ``version`` of its bytes
    at the moment of its access.
    """

    def __init__(self) -> None:
        self._version: Dict[int, int] = {}

    def write(self, inst, trace_index: int) -> None:
        self._version.update(dict.fromkeys(
            range(inst.addr, inst.addr + inst.size), trace_index))

    def version(self, inst) -> Optional[int]:
        """Youngest committed store overlapping ``inst`` (None = none)."""
        source = _youngest(self._version, inst)
        return source if source >= 0 else None
