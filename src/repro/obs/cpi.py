"""CPI stall attribution: charge every commit slot to exactly one cause.

The machine retires up to ``commit_width`` instructions per cycle, so a
run exposes ``cycles x commit_width`` *commit slots*.  Each slot either
retired an instruction (the ``commit`` bucket — useful work) or idled
for a reason.  This module charges every idle slot to one cause, so the
buckets always sum to ``cycles x commit_width`` exactly — the defining
invariant of a CPI stack, and the property the tier-1 tests assert.

Attribution runs after each stepped cycle, from the end-of-cycle hook,
and once for each quiet span the processor skips.  All idle slots of a
cycle share one cause, picked by the first matching rule:

1. ROB empty inside a squash-recovery window -> ``squash_recovery``
   (the refetch penalty of a memory-order violation);
2. ROB empty otherwise -> ``fetch`` (I-cache misses, branch bubbles,
   trace exhausted);
3. ROB head waiting on a store-set prediction -> ``store_set``;
4. ROB head lost an LSQ/D-cache port this cycle -> ``lsq_port``;
5. ROB head is a memory op with its access in flight -> ``cache_miss``;
6. ROB full behind an incomplete head -> ``rob_full``
   (a long-latency non-memory chain backing the window up);
7. anything else -> ``other`` (operand waits, FU latency).

Rules 3-5 read per-cycle *deltas* of the existing ``SimStats`` counters
rather than re-deriving pipeline state, so attribution never perturbs
the simulation (bit-identical ``SimStats`` with the observer attached).
A quiet span commits nothing and charges the same stalls every cycle,
so its deltas classify each of its cycles alike; only rule 1's window
can end inside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple

if TYPE_CHECKING:
    from repro.pipeline.dyninst import DynInst
    from repro.pipeline.processor import Processor

#: Attribution buckets, in report order.  ``commit`` is useful work.
CPI_CAUSES: Tuple[str, ...] = (
    "commit", "fetch", "squash_recovery", "store_set", "lsq_port",
    "cache_miss", "rob_full", "other",
)

#: SimStats counters whose per-cycle deltas drive rules 3-5.
_DELTA_FIELDS: Tuple[str, ...] = (
    "committed", "store_set_waits", "sq_port_stalls", "lq_port_stalls",
    "dcache_port_stalls", "contention_stalls", "store_commit_delays",
    "load_buffer_full_stalls",
)


class CpiStack:
    """Per-cause commit-slot accounting for one simulation."""

    def __init__(self, commit_width: int) -> None:
        if commit_width < 1:
            raise ValueError("commit width must be >= 1")
        self.commit_width = commit_width
        self.cycles = 0
        self.slots: Dict[str, int] = {cause: 0 for cause in CPI_CAUSES}
        self._last: Dict[str, int] = {}
        self._recovery_until = -1

    # -- hooks ------------------------------------------------------------

    def note_recovery(self, until_cycle: int) -> None:
        """A violation squash: refetch runs until ``until_cycle``."""
        self._recovery_until = max(self._recovery_until, until_cycle)

    def on_cycles_end(self, processor: "Processor", start: int,
                      stop: int) -> None:
        """Attribute the slots of cycles ``start`` .. ``stop``-1 (one
        stepped cycle, or a quiet span)."""
        stats = processor.stats
        deltas = {}
        for name in _DELTA_FIELDS:
            value = int(getattr(stats, name))
            deltas[name] = value - self._last.get(name, 0)
            self._last[name] = value
        width = self.commit_width
        self.cycles += stop - start
        committed = min(deltas["committed"], width)
        self.slots["commit"] += committed
        idle = (stop - start) * width - committed
        head = processor.rob.head
        if head is None:
            recovering = min(max(self._recovery_until - start, 0) * width,
                             idle)
            self.slots["squash_recovery"] += recovering
            self.slots["fetch"] += idle - recovering
        elif idle:
            self.slots[self._classify(processor, head, deltas)] += idle

    @staticmethod
    def _classify(processor: "Processor", head: "DynInst",
                  deltas: Mapping[str, int]) -> str:
        """Rules 3-7: the cause of idle slots behind ``head``."""
        if head.complete:
            # Head retired mid-cycle and a younger incomplete head took
            # its place, or commit stopped on a store's structural
            # retry; charge the port if one was lost, else "other".
            if deltas["dcache_port_stalls"] or deltas["store_commit_delays"]:
                return "lsq_port"
            return "other"
        if head.is_memory and not head.mem_executed:
            if deltas["store_set_waits"] or deltas["load_buffer_full_stalls"]:
                return "store_set"
            if (deltas["sq_port_stalls"] or deltas["lq_port_stalls"]
                    or deltas["dcache_port_stalls"]
                    or deltas["contention_stalls"]):
                return "lsq_port"
            return "other"
        if head.is_memory:
            # Address resolved, access in flight: memory latency.
            return "cache_miss"
        if processor.rob.full:
            return "rob_full"
        return "other"

    # -- results ----------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.cycles * self.commit_width

    def stack(self) -> Dict[str, int]:
        """Slot-cycles per cause (copy); sums to :attr:`total_slots`."""
        return dict(self.slots)
