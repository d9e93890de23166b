"""Issue queue: wakeup/select scheduling.

Dispatched instructions wait here until their source operands are
complete.  Wakeup is event driven: when a producer completes, the
processor decrements each consumer's pending-source count and hands
zero-pending instructions to the queue's ready heap.  Select is
oldest-first up to the machine's issue width (subject to functional-unit
and memory-port availability, which the processor enforces).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.pipeline.dyninst import DynInst, InstState


class IssueQueue:
    """Occupancy tracking plus an oldest-first ready heap."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("issue queue capacity must be positive")
        self.capacity = capacity
        self._occupancy = 0
        self._ready: List[tuple] = []  # (seq, DynInst)

    def __len__(self) -> int:
        return self._occupancy

    @property
    def full(self) -> bool:
        return self._occupancy >= self.capacity

    def dispatch(self, inst: DynInst) -> None:
        if self.full:
            raise RuntimeError("dispatch into a full issue queue")
        self._occupancy += 1
        if inst.pending_sources == 0:
            self.wake(inst)

    def wake(self, inst: DynInst) -> None:
        """Mark ``inst`` ready for selection."""
        heapq.heappush(self._ready, (inst.seq, inst))

    def has_ready(self) -> bool:
        """True when the ready heap holds any entry.

        Conservative: a stale (squashed or already-issued) entry counts
        until :meth:`pop_ready` discards it, so a False answer means
        select would find nothing this cycle.
        """
        return bool(self._ready)

    def pop_ready(self) -> Optional[DynInst]:
        """Oldest ready instruction, or ``None``.

        Lazily discards squashed or already-issued entries (squash
        recovery and store-set re-wakes can leave stale heap entries).
        """
        while self._ready:
            __, inst = heapq.heappop(self._ready)
            # SQUASHED is covered: it is not DISPATCHED either.
            if inst.state is not InstState.DISPATCHED:
                continue
            return inst
        return None

    def unpop(self, inst: DynInst) -> None:
        """Return an instruction taken with :meth:`pop_ready` this cycle."""
        heapq.heappush(self._ready, (inst.seq, inst))

    def release(self) -> None:
        """Free one slot (called when an instruction leaves the queue)."""
        if self._occupancy <= 0:
            raise RuntimeError("release from an empty issue queue")
        self._occupancy -= 1

    def squash(self, count: int) -> None:
        """Drop ``count`` occupants (their heap entries die lazily)."""
        if count > self._occupancy:
            raise RuntimeError("squashing more entries than present")
        self._occupancy -= count
