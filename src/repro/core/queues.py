"""Queue structures for the (optionally segmented) load/store queue.

A :class:`SegmentedQueue` is one side (loads or stores) of the LSQ.
With ``segments == 1`` it degenerates to the conventional flat CAM.
With more segments it implements Section 3: entries are allocated into
chained segments under one of two policies and searches proceed one
segment per cycle.

* **no-self-circular** — the whole structure is one ring; allocation
  advances linearly from segment to segment even when earlier segments
  have free entries, so a small in-flight window still straddles
  segment boundaries over time (the effect behind the integer slowdowns
  in Figure 11).
* **self-circular** — each segment is its own ring; allocation stays in
  the current tail segment while it has free entries, compacting the
  window into as few segments as possible.

:class:`PortCalendar` books per-segment search ports cycle by cycle so
pipelined multi-segment searches can detect the contention cases of
Section 3.2.

Host-cost vs model-cost separation (see docs/PERFORMANCE.md): the queue
keeps three incrementally-maintained views of the same entries so the
*host* never rescans what the *model* already knows —

* ``_order`` — a deque holding exactly the live window in program
  order; commit pops the left end, squash the right, so memory stays
  bounded by occupancy and :meth:`entries` is zero-copy.
* ``_seg_seqs`` — per-segment sorted sequence-number lists, giving the
  pipelined search itinerary (:meth:`backward_path` /
  :meth:`forward_path`) and its first segment (:meth:`forward_head`)
  by bisection instead of a full scan.
* ``_granules`` — an address-granule index (8-byte granules) mapping
  each granule to the seq-sorted entries touching it, so associative
  searches visit only same-address candidates
  (:meth:`candidate_lists`) while the *modeled* segment/port charges
  still come from the full search itinerary.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import (TYPE_CHECKING, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.config import AllocationPolicy
from repro.core.hotpath import hotpath

if TYPE_CHECKING:
    from repro.pipeline.dyninst import DynInst

#: Address-granule size used by the candidate index: two accesses can
#: only overlap in bytes if they touch a common 8-byte granule.
GRANULE_SHIFT = 3

#: sim-lint (SIM-T) blessing: these accessors *compute* the modeled
#: search itinerary from the host-side indexes above — their results
#: are model-architectural answers ("which segments does the paper's
#: pipelined search visit, in what order") and are the sanctioned
#: inputs for segment/port charges and search-length statistics.
#: Everything else derived from ``_order``/``_seg_seqs``/``_granules``
#: stays host-only and must not price the model.
SIM_LINT_MODEL_VIEWS = frozenset({
    "backward_path", "forward_path", "backward_plan", "forward_plan",
    "forward_head",
})


class SegmentedQueue:
    """One side of the LSQ: program-ordered entries in segments."""

    __slots__ = (
        "name", "num_segments", "segment_entries", "policy",
        "_segments", "_seg_seqs", "_order", "_virtual", "_tail_segment",
        "_occupied", "_granules", "live_loads",
    )

    def __init__(self, name: str, segments: int, segment_entries: int,
                 policy: AllocationPolicy) -> None:
        if segments < 1 or segment_entries < 1:
            raise ValueError("segments and segment_entries must be >= 1")
        self.name = name
        self.num_segments = segments
        self.segment_entries = segment_entries
        self.policy = policy
        self._segments: List[List[DynInst]] = [[] for _ in range(segments)]
        # Parallel per-segment seq lists (always sorted ascending):
        # search itineraries come from bisecting these.
        self._seg_seqs: List[List[int]] = [[] for _ in range(segments)]
        # Live window in program order: commit pops left, squash pops
        # right, so the deque never outgrows the queue's occupancy.
        self._order: Deque[DynInst] = deque()
        self._virtual = 0           # ring cursor (no-self-circular)
        self._tail_segment = 0      # current tail segment (self-circular)
        self._occupied = 0          # segments currently holding entries
        # granule -> seq-sorted entries touching that granule.
        self._granules: Dict[int, List[DynInst]] = {}
        #: Loads currently in the queue (O(1) occupancy sampling for the
        #: unified-queue configuration).
        self.live_loads = 0

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    @property
    def capacity(self) -> int:
        return self.num_segments * self.segment_entries

    @property
    def empty(self) -> bool:
        return not self._order

    def entries(self) -> Iterable[DynInst]:
        """In-flight entries in program order (zero-copy view)."""
        return iter(self._order)

    def __reversed__(self) -> Iterator[DynInst]:
        """In-flight entries, youngest first (zero-copy view)."""
        return reversed(self._order)

    @property
    def oldest(self) -> Optional[DynInst]:
        return self._order[0] if self._order else None

    @property
    def youngest(self) -> Optional[DynInst]:
        return self._order[-1] if self._order else None

    def head_segment(self) -> int:
        """Segment holding the oldest entry (tail segment when empty)."""
        oldest = self.oldest
        if oldest is None:
            return self._tail_segment if \
                self.policy is AllocationPolicy.SELF_CIRCULAR else \
                (self._virtual // self.segment_entries) % self.num_segments
        return oldest.lsq_segment

    # -- allocation ---------------------------------------------------------

    def _target_segment(self) -> Optional[int]:
        if self.policy is AllocationPolicy.NO_SELF_CIRCULAR:
            target = (self._virtual // self.segment_entries) % self.num_segments
            if len(self._segments[target]) < self.segment_entries:
                return target
            return None
        # self-circular: stay in the tail segment while it has room.
        for step in range(self.num_segments):
            candidate = (self._tail_segment + step) % self.num_segments
            if len(self._segments[candidate]) < self.segment_entries:
                return candidate
        return None

    def can_allocate(self) -> bool:
        return self._target_segment() is not None

    @hotpath
    def allocate(self, inst: DynInst) -> int:
        """Place ``inst`` (the current youngest) and return its segment."""
        target = self._target_segment()
        if target is None:
            raise RuntimeError(f"{self.name}: allocate into a full queue")
        inst.lsq_segment = target
        inst.lsq_virtual = self._virtual
        self._virtual += 1
        self._tail_segment = target
        segment = self._segments[target]
        if not segment:
            self._occupied += 1
        segment.append(inst)
        self._seg_seqs[target].append(inst.seq)
        self._order.append(inst)
        if inst.is_load:
            self.live_loads += 1
        granules = self._granules
        addr = inst.addr
        for granule in range(addr >> GRANULE_SHIFT,
                             ((addr + inst.size - 1) >> GRANULE_SHIFT) + 1):
            bucket = granules.get(granule)
            if bucket is None:
                granules[granule] = [inst]
            else:
                bucket.append(inst)
        return target

    def _index_remove(self, inst: DynInst) -> None:
        """Drop ``inst`` from every granule bucket it touches."""
        granules = self._granules
        addr = inst.addr
        for granule in range(addr >> GRANULE_SHIFT,
                             ((addr + inst.size - 1) >> GRANULE_SHIFT) + 1):
            bucket = granules[granule]
            if bucket[0] is inst:        # commit releases the oldest
                bucket.pop(0)
            elif bucket[-1] is inst:     # squash releases the youngest
                bucket.pop()
            else:
                bucket.remove(inst)
            if not bucket:
                del granules[granule]

    # -- release ---------------------------------------------------------------

    @hotpath
    def commit_head(self, inst: DynInst) -> None:
        """Release the oldest entry (must be ``inst``)."""
        order = self._order
        if not order or order[0] is not inst:
            raise RuntimeError(f"{self.name}: commit out of order")
        order.popleft()
        segment = self._segments[inst.lsq_segment]
        if not segment or segment[0] is not inst:
            # The oldest overall entry is the oldest in its segment.
            raise RuntimeError(f"{self.name}: segment bookkeeping broken")
        segment.pop(0)
        self._seg_seqs[inst.lsq_segment].pop(0)
        if not segment:
            self._occupied -= 1
        if inst.is_load:
            self.live_loads -= 1
        self._index_remove(inst)
        inst.lsq_segment = -1

    def squash_from(self, seq: int) -> List[DynInst]:
        """Drop every entry with sequence >= ``seq``; return them."""
        dropped: List[DynInst] = []
        order = self._order
        while order and order[-1].seq >= seq:
            inst = order.pop()
            dropped.append(inst)
            segment = self._segments[inst.lsq_segment]
            seqs = self._seg_seqs[inst.lsq_segment]
            if segment and segment[-1] is inst:
                segment.pop()
                seqs.pop()
            else:
                where = segment.index(inst)
                segment.pop(where)
                seqs.pop(where)
            if not segment:
                self._occupied -= 1
            if inst.is_load:
                self.live_loads -= 1
            self._index_remove(inst)
            inst.lsq_segment = -1
        if dropped:
            self._virtual = dropped[-1].lsq_virtual
            youngest = self.youngest
            if youngest is not None:
                self._tail_segment = youngest.lsq_segment
            else:
                self._tail_segment = (self._virtual // self.segment_entries
                                      ) % self.num_segments
        return dropped

    # -- search itineraries -------------------------------------------------

    @hotpath
    def backward_path(self, seq: int) -> List[int]:
        """Segments a backward (towards-head) search visits, in order.

        Visit order starts at the segment holding the youngest entry
        older than ``seq`` and proceeds towards the head; segments with
        no qualifying entry are pruned by their occupancy bits.  Found
        by bisecting the per-segment seq lists — no entry scan.
        """
        if self.num_segments == 1:      # flat CAM: visit segment 0 or skip
            seqs = self._seg_seqs[0]
            return [0] if seqs and seqs[0] < seq else []
        keyed: List[Tuple[int, int]] = []
        for segment, seqs in enumerate(self._seg_seqs):
            if not seqs or seqs[0] >= seq:
                continue
            keyed.append((seqs[bisect_left(seqs, seq) - 1], segment))
        keyed.sort(reverse=True)
        path: List[int] = []
        for __, segment in keyed:
            path.append(segment)
        return path

    @hotpath
    def forward_path(self, seq: int) -> List[int]:
        """Segments a forward (towards-tail) search visits, in order.

        Visit order starts at the segment holding the oldest entry
        younger than ``seq`` and proceeds towards the tail.
        """
        if self.num_segments == 1:      # flat CAM: visit segment 0 or skip
            seqs = self._seg_seqs[0]
            return [0] if seqs and seqs[-1] > seq else []
        keyed: List[Tuple[int, int]] = []
        for segment, seqs in enumerate(self._seg_seqs):
            if not seqs or seqs[-1] <= seq:
                continue
            keyed.append((seqs[bisect_right(seqs, seq)], segment))
        keyed.sort()
        path: List[int] = []
        for __, segment in keyed:
            path.append(segment)
        return path

    @hotpath
    def forward_head(self, seq: int) -> int:
        """First segment of :meth:`forward_path`, or -1 when it is empty.

        The segment holding the oldest entry younger than ``seq``, found
        with one bisection per segment and without building the path
        (port admission only needs the first slot to bounce a search).
        """
        if self.num_segments == 1:
            seqs = self._seg_seqs[0]
            return 0 if seqs and seqs[-1] > seq else -1
        head = -1
        oldest = -1
        for segment, seqs in enumerate(self._seg_seqs):
            if not seqs or seqs[-1] <= seq:
                continue
            younger = seqs[bisect_right(seqs, seq)]
            if head < 0 or younger < oldest:
                oldest = younger
                head = segment
        return head

    # -- candidate index ----------------------------------------------------

    @hotpath
    def candidate_lists(self, addr: int,
                        size: int) -> List[List[DynInst]]:
        """Seq-sorted entry lists that may overlap ``[addr, addr+size)``.

        Two accesses share a byte only if they share an 8-byte granule,
        so the union of these lists is a superset of every overlapping
        entry; callers still apply the precise ``overlaps`` test.  The
        returned lists are the live index buckets — read-only views.
        """
        granules = self._granules
        first = addr >> GRANULE_SHIFT
        last = (addr + size - 1) >> GRANULE_SHIFT
        if first == last:
            bucket = granules.get(first)
            return [bucket] if bucket is not None else []
        out: List[List[DynInst]] = []
        for granule in range(first, last + 1):
            bucket = granules.get(granule)
            if bucket is not None:
                out.append(bucket)
        return out

    # -- reference search plans ---------------------------------------------

    def backward_plan(self, seq: int) -> List[Tuple[int, List[DynInst]]]:
        """Segments to visit for a backward (towards-head) search.

        Returns ``[(segment, entries_older_than_seq_youngest_first), ...]``
        in :meth:`backward_path` order.  This is the white-box/reference
        view (tests, validation); the simulator's hot path pairs
        :meth:`backward_path` with :meth:`candidate_lists` instead.
        """
        plan: List[Tuple[int, List[DynInst]]] = []
        for segment in self.backward_path(seq):
            cut = bisect_left(self._seg_seqs[segment], seq)
            plan.append((segment, self._segments[segment][cut - 1::-1]))
        return plan

    def forward_plan(self, seq: int) -> List[Tuple[int, List[DynInst]]]:
        """Segments to visit for a forward (towards-tail) search.

        Returns ``[(segment, entries_younger_than_seq_oldest_first), ...]``
        in :meth:`forward_path` order (reference view, as above).
        """
        plan: List[Tuple[int, List[DynInst]]] = []
        for segment in self.forward_path(seq):
            cut = bisect_right(self._seg_seqs[segment], seq)
            plan.append((segment, self._segments[segment][cut:]))
        return plan

    def occupied_segments(self) -> int:
        return self._occupied

    def segment_contents(self) -> List[List[DynInst]]:
        """Per-segment entry lists (copies), for white-box validation."""
        return [list(segment) for segment in self._segments]


class PortCalendar:
    """Cycle-by-cycle booking of per-segment search ports.

    ``last_exhausted`` is the latest cycle holding a slot booked to
    capacity (-1 before any).  Only a pipelined search's later slots
    can lie after the current cycle, so while ``last_exhausted <=
    cycle`` a search starting at ``cycle`` is admitted or bounced by
    its first slot alone.  ``exhausted`` counts the slots booked to
    capacity so far: while it stands still, no slot has filled.
    """

    __slots__ = ("ports", "_used", "_sweep_cycle", "last_exhausted",
                 "exhausted")

    def __init__(self, ports_per_segment: int) -> None:
        if ports_per_segment <= 0:
            raise ValueError("ports_per_segment must be positive")
        self.ports = ports_per_segment
        self._used: Dict[Tuple[int, int], int] = {}
        self._sweep_cycle = 0
        self.last_exhausted = -1
        self.exhausted = 0

    def available(self, segment: int, cycle: int) -> bool:
        return self._used.get((segment, cycle), 0) < self.ports

    def free_ports(self, segment: int, cycle: int) -> int:
        return self.ports - self._used.get((segment, cycle), 0)

    def reserve(self, segment: int, cycle: int) -> None:
        key = (segment, cycle)
        used = self._used.get(key, 0) + 1
        if used > self.ports:
            raise RuntimeError("reserving an exhausted port slot")
        self._used[key] = used
        if used == self.ports:
            self.exhausted += 1
            if cycle > self.last_exhausted:
                self.last_exhausted = cycle

    def check_path(self, segments: List[int], start_cycle: int) -> str:
        """Classify availability along a pipelined search path.

        Returns ``"ok"`` (all slots free), ``"busy_now"`` (the first
        slot is taken — an ordinary structural stall), or
        ``"busy_later"`` (a downstream slot is taken — the Section 3.2
        contention case).
        """
        if not segments:
            return "ok"
        if not self.available(segments[0], start_cycle):
            return "busy_now"
        if self.last_exhausted <= start_cycle:
            return "ok"
        for offset in range(1, len(segments)):
            if not self.available(segments[offset], start_cycle + offset):
                return "busy_later"
        return "ok"

    def reserve_path(self, segments: List[int], start_cycle: int) -> None:
        for offset, segment in enumerate(segments):
            self.reserve(segment, start_cycle + offset)

    def begin_cycle(self, cycle: int) -> None:
        """Garbage-collect bookings for past cycles."""
        if cycle - self._sweep_cycle < 64:
            return
        self._sweep_cycle = cycle
        stale = [key for key in self._used if key[1] < cycle]
        for key in stale:
            del self._used[key]

    def overbooked(self) -> List[Tuple[int, int, int]]:
        """Slots booked beyond capacity as ``(segment, cycle, used)``
        triples — always empty unless the booking discipline is broken
        (the invariant checker asserts exactly that)."""
        return [(segment, cycle, used)
                for (segment, cycle), used in self._used.items()
                if used > self.ports]
