"""The load/store queue: the orchestrating model of the paper's designs.

One :class:`LoadStoreQueue` class covers every configuration in the
evaluation; the :class:`~repro.config.LsqConfig` selects the design
point:

* **conventional** — every load searches the store queue (forwarding)
  and the load queue (load-load ordering); every store searches the load
  queue at *execute* (store-load ordering).  Searches arbitrate for
  ``search_ports`` per queue per cycle.
* **store-load pair predictor** (Section 2.1) — loads predicted
  independent skip the store-queue search; store-load ordering checks
  move to store *commit*.
* **load buffer** (Section 2.2) — load-load checks move to a tiny
  dedicated buffer of out-of-order-issued loads; the load queue is
  searched only by stores.
* **segmentation** (Section 3) — both queues become chains of segments;
  searches pipeline across segments at one segment per cycle with
  per-segment ports, and the Section 3.2 contention cases are resolved
  by delaying store commits and squashing (or stalling) in-flight loads.

The processor drives the queue through a small API:
``allocate`` (dispatch), ``load_blocked``/``try_execute_load``/
``try_execute_store`` (memory stage), ``try_commit_store``/
``commit_load`` (retire), and ``squash_from`` (recovery).  The
``try_*`` methods return ``Retry`` when structural hazards (ports,
contention) require another attempt.

A load or store that bounces on a port may wait without being
re-attempted ("wake, don't poll"): its ``Retry.wait`` is a *wait code*
naming the first slots it needs, and :meth:`LoadStoreQueue.wait_verdicts`
says what an attempt would charge while they stay taken.  The processor
keeps the waiting operations; :meth:`LoadStoreQueue.commit_releases`
says which loads a store commit re-keys (see ``Processor._park`` and
docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.config import (
    ContentionPolicy,
    LoadQueueSearchMode,
    LsqConfig,
    PredictorMode,
    StoreSetConfig,
)
from repro.core.hotpath import hotpath
from repro.core.load_buffer import LoadBuffer, NilpTracker
from repro.core.queues import PortCalendar, SegmentedQueue
from repro.core.store_sets import Predictor, make_predictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.events import EventBus
from repro.pipeline.dyninst import DynInst
from repro.stats.counters import SimStats

#: Components any stage may touch directly (sim-lint SIM-M registry):
#: the observability layer, like stats/tracer, is write-from-anywhere.
SIM_LINT_INTERFACES = frozenset({"obs"})

#: Replay penalty (cycles) when a pipelined-search contention squashes an
#: in-flight load — "similar to a flush due to a load miss" (Section 3.2),
#: i.e. a scheduler replay, much cheaper than a full fetch squash.
CONTENTION_REPLAY_PENALTY = 4

#: Extra load latency when early (speculative) scheduling of the load's
#: dependents is forgone because its segmented search is not confined to
#: the head segment (Section 3): dependents wait for the value instead
#: of being woken back-to-back, costing the scheduler's load-to-use loop.
EARLY_SCHEDULING_PENALTY = 3

#: A pipelined search itinerary: the segment ids to visit, in order.
#: The *entries* a search examines come from the queue's address-granule
#: candidate index instead ("index the host, charge the model": the
#: modeled port/segment charges follow the itinerary, the host walks
#: only same-address candidates — see docs/PERFORMANCE.md).
SearchPath = List[int]


class Violation(NamedTuple):
    """A detected memory-order violation: squash ``squash_seq`` onward."""

    squash_seq: int
    kind: str                 # "store-load" | "load-load"
    extra_penalty: int = 0    # e.g. pair-predictor counter rollback


class Retry(NamedTuple):
    """Structural hazard: try again at ``next_cycle``.

    ``wait`` is the wait code of a load or store that bounced on a port
    and may wait for it (-1: retry by stepping, e.g. after contention)."""

    next_cycle: int
    wait: int = -1


class LoadResult(NamedTuple):
    latency: int              # cycles until the value is available
    forwarded: bool
    violation: Optional[Violation]


class StoreResult(NamedTuple):
    violation: Optional[Violation]


class CommitResult(NamedTuple):
    violation: Optional[Violation]


class LoadStoreQueue:
    """All four LSQ designs behind one processor-facing interface."""

    # No __slots__ here on purpose: there is one LoadStoreQueue per
    # simulation (no allocation pressure) and the fault-injection
    # harness patches its methods per instance.

    def __init__(self, config: LsqConfig, ss_config: StoreSetConfig,
                 memory: MemoryHierarchy, stats: SimStats,
                 pair_rollback_penalty: int = 1) -> None:
        self.config = config
        self.ss_config = ss_config
        self.memory = memory
        self.stats = stats
        self.pair_rollback_penalty = pair_rollback_penalty

        if config.segmented:
            lq_shape = sq_shape = (config.segments, config.segment_entries)
        else:
            lq_shape = (1, config.lq_entries)
            sq_shape = (1, config.sq_entries)
        if config.unified_queue:
            # One combined CAM: loads and stores share entries and every
            # search arbitrates for the same ports.
            entries = (config.segment_entries if config.segmented
                       else config.lq_entries + config.sq_entries)
            shape = (config.segments if config.segmented else 1, entries)
            combined = SegmentedQueue("LSQ", *shape,
                                      policy=config.allocation)
            self.lq = self.sq = combined
            self.lq_ports = self.sq_ports = PortCalendar(config.search_ports)
        else:
            self.lq = SegmentedQueue("LQ", *lq_shape,
                                     policy=config.allocation)
            self.sq = SegmentedQueue("SQ", *sq_shape,
                                     policy=config.allocation)
            self.lq_ports = PortCalendar(config.search_ports)
            self.sq_ports = PortCalendar(config.search_ports)

        # Per-config constants, computed once: whether loads search the
        # LQ, whether the SQ and LQ port pools are separate (then loads
        # keep first-slot links, see allocate()), and the NILP gate.
        lq_search = config.lq_search
        self._search_lq = lq_search in (
            LoadQueueSearchMode.SEARCH_LQ,
            LoadQueueSearchMode.IN_ORDER_ALWAYS_SEARCH)
        self._separate_pools = self.sq_ports is not self.lq_ports
        self._buffer_gate = lq_search is LoadQueueSearchMode.LOAD_BUFFER
        self._in_order_gate = lq_search in (
            LoadQueueSearchMode.IN_ORDER,
            LoadQueueSearchMode.IN_ORDER_ALWAYS_SEARCH)
        self._perfect_predictor = config.predictor is PredictorMode.PERFECT
        # Wait codes: a load that bounced on the data port or a first
        # port slot may wait, keyed on its (SQ, LQ) first slots, when
        # those cannot change while it waits and no gate can close on
        # it: segmented queues (a flat queue's slots are all free again
        # next cycle, so waiting costs more than it saves), separate
        # pools (slots come from the links, see allocate()), the
        # conventional predictor (its search need is fixed; the pair
        # predictor's moves with its counters) and no NILP gate.  A
        # store that bounced on its LQ first slot waits keyed on it.
        segments = self._segments = self.sq.num_segments
        #: Whether bounced loads and stores may wait (see above).
        self.parks = (config.segmented and self._separate_pools
                      and config.predictor is PredictorMode.CONVENTIONAL
                      and not (self._buffer_gate or self._in_order_gate))
        # Load codes: one per (SQ first slot, LQ first slot) pair, -1
        # for a search not made; then one store code per LQ segment.
        self._store_waits = (segments + 1) ** 2
        #: Number of wait codes (see wait_slots()).
        self.wait_codes = self._store_waits + segments if self.parks else 0
        self._wait_slots: List[Tuple[int, int]] = [
            (sq_head, lq_head) for sq_head in range(-1, segments)
            for lq_head in range(-1, segments)]
        self._wait_slots += [(-1, lq_head) for lq_head in range(segments)]
        # Per SQ segment, the wait codes keyed on that SQ first slot.
        self._store_slot_waits: List[List[int]] = [
            [wait for wait in range(self._store_waits)
             if self._wait_slots[wait][0] == segment]
            for segment in range(segments)]

        #: Optional event bus (repro.obs); wired by Observer.attach().
        self.obs: Optional[EventBus] = None
        self.predictor: Predictor = make_predictor(config.predictor,
                                                   ss_config, stats)
        self.load_buffer = LoadBuffer(config.load_buffer_entries)
        self.nilp = NilpTracker()
        self._stores: Dict[int, DynInst] = {}
        # Memory barriers currently in flight (software load-load
        # ordering, Section 2.2's first option).
        self._membars: List[DynInst] = []
        # Scheme (2): synthetic external-invalidation traffic.
        self._inval_accum = 0.0
        self._inval_ring: List[int] = []
        self._inval_cursor = 0

    # ------------------------------------------------------------------
    # per-cycle upkeep
    # ------------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        self.lq_ports.begin_cycle(cycle)
        self.sq_ports.begin_cycle(cycle)

    def sample(self, cycles: int = 1) -> None:
        """Accumulate occupancy statistics (Tables 4 and 5) for
        ``cycles`` cycles of unchanged occupancy (a quiet window the
        processor skips is charged in one call)."""
        if self.config.unified_queue:
            # live_loads is the host-side mirror of the modeled load
            # occupancy: it counts exactly the live LOAD slots of the
            # program-order window (asserted against a full window scan
            # by the parity tests), so charging it here prices the
            # model, not the host shortcut.
            loads = self.lq.live_loads
            self.stats.lq_occupancy_cycles += loads * cycles  # sim-lint: ignore[SIM-T001]
            self.stats.sq_occupancy_cycles += (len(self.lq) - loads) * cycles  # sim-lint: ignore[SIM-T001]
        else:
            self.stats.lq_occupancy_cycles += len(self.lq) * cycles
            self.stats.sq_occupancy_cycles += len(self.sq) * cycles
        self.stats.ooo_load_cycles += self.nilp.ooo_in_flight * cycles

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def can_allocate(self, inst: DynInst) -> bool:
        if inst.is_load:
            return self.lq.can_allocate()
        return self.sq.can_allocate()

    def allocate(self, inst: DynInst) -> None:
        if inst.is_load:
            if self._separate_pools:
                # First-slot links.  The SQ tail stays this load's
                # youngest older store until it commits (later stores
                # are younger; a squash removing it removes the load),
                # and this load stays its LQ predecessor's successor
                # until a squash removes it.  A link whose target has
                # left the queue reads segment -1: no search.  Executed
                # loads need no links (_finish_load_issue()).
                inst.older_store = self.sq.youngest
                tail = self.lq.youngest
                if tail is not None and not tail.mem_executed:
                    tail.next_load = inst
            self.lq.allocate(inst)
            self.nilp.on_allocate(inst)
            self.predictor.on_load_dispatch(inst)
            if inst.predicted_dependent:
                self.stats.loads_predicted_dependent += 1
        else:
            self.sq.allocate(inst)
            self._stores[inst.seq] = inst
            self.predictor.on_store_dispatch(inst)

    # ------------------------------------------------------------------
    # load issue gating
    # ------------------------------------------------------------------

    @hotpath
    def load_blocked(self, load: DynInst) -> Optional[str]:
        """Why this load may not yet access memory (None when free)."""
        # With no barrier in flight, or no store-set wait outside the
        # perfect predictor, a gate's answer is "not blocked": skip it.
        if self._membars and self._membar_blocks(load):
            return "membar"
        if self._perfect_predictor or load.wait_store_seq is not None:
            blocker = self._store_set_blocker(load)
            if blocker is not None:
                return blocker
        if self._buffer_gate:
            if not self.nilp.is_in_order(load) and self.load_buffer.full:
                return "load_buffer_full"
        elif self._in_order_gate:
            if not self.nilp.is_in_order(load):
                return "in_order"
        return None

    def store_blocked(self, store: DynInst) -> Optional[str]:
        """Why this store may not yet execute."""
        if self._membar_blocks(store):
            return "membar"
        if self._store_set_order_blocks(store):
            return "store_store"
        return None

    def _store_set_order_blocks(self, store: DynInst) -> bool:
        """Chrysos/Emer store-store ordering within a set (optional)."""
        if not self.ss_config.store_store_ordering or store.ssid is None:
            return False
        for other in self.sq.entries():
            if other.seq >= store.seq:
                break
            if other.ssid == store.ssid and not other.mem_executed:
                return True
        return False

    @hotpath
    def _membar_blocks(self, inst: DynInst) -> bool:
        """True when an older in-flight memory barrier is incomplete."""
        membars = self._membars
        if not membars:
            return False
        # Prune completed/squashed barriers in place (no per-call list).
        live = 0
        for membar in membars:
            if not membar.squashed and not membar.complete:
                membars[live] = membar
                live += 1
        if live != len(membars):
            del membars[live:]
        seq = inst.seq
        for membar in membars:
            if membar.seq < seq:
                return True
        return False

    # ------------------------------------------------------------------
    # memory barriers (Section 2.2's software alternative)
    # ------------------------------------------------------------------

    def on_membar_dispatch(self, membar: DynInst) -> None:
        self._membars.append(membar)

    def try_execute_membar(self, membar: DynInst,
                           cycle: int) -> Union[StoreResult, Retry]:
        """A barrier completes once every older memory op is *performed*:
        loads have their data back, stores have resolved addresses."""
        for entry in self.lq.entries():
            if entry.seq >= membar.seq:
                break
            if not entry.complete:
                self.stats.membar_stalls += 1
                return Retry(cycle + 1)
        for entry in self.sq.entries():
            if entry.seq >= membar.seq:
                break
            if not entry.mem_executed:
                self.stats.membar_stalls += 1
                return Retry(cycle + 1)
        return StoreResult(violation=None)

    # ------------------------------------------------------------------
    # external invalidations (Section 2.2, scheme 2 / MIPS R10000)
    # ------------------------------------------------------------------

    def poll_invalidation(self, cycle: int) -> Optional[Violation]:
        """Inject synthetic coherence traffic.

        Invalidation arrivals are deterministic at ``invalidation_rate``
        per cycle; each searches the load queue for outstanding loads to
        a recently written line and squashes the oldest match, exactly
        as the R10000 treats an external invalidation.
        """
        if self.config.lq_search is not LoadQueueSearchMode.INVALIDATION:
            return None
        self._inval_accum += self.config.invalidation_rate
        if self._inval_accum < 1.0 or not self._inval_ring:
            return None
        self._inval_accum -= 1.0
        addr = self._inval_ring[self._inval_cursor % len(self._inval_ring)]
        self._inval_cursor += 1
        self.stats.invalidation_searches += 1
        self.stats.lq_searches += 1
        # Any entry whose address equals ``addr`` starts in the granule
        # holding ``addr``, so the index bucket (seq-sorted == program
        # order) yields the same first match as a full queue scan.
        for bucket in self.lq.candidate_lists(addr, 1):
            for entry in bucket:
                if entry.mem_executed and entry.addr == addr:
                    self.stats.load_load_squashes += 1
                    return Violation(entry.seq, "load-load")
        return None

    def skip_invalidations(self, cycle: int, stop: int) -> int:
        """Accrue the invalidation traffic of the quiet cycles ``cycle``
        .. ``stop``-1 as :meth:`poll_invalidation` would, one add per
        cycle, up to the first cycle an invalidation arrives in; return
        that cycle (left to be stepped) or ``stop``."""
        if self.config.lq_search is not LoadQueueSearchMode.INVALIDATION:
            return stop
        rate = self.config.invalidation_rate
        accum = self._inval_accum
        ring = self._inval_ring
        while cycle < stop and (accum + rate < 1.0 or not ring):
            accum += rate
            cycle += 1
        self._inval_accum = accum
        return cycle

    def _note_written_line(self, addr: int) -> None:
        if self.config.lq_search is LoadQueueSearchMode.INVALIDATION:
            if len(self._inval_ring) < 64:
                self._inval_ring.append(addr)
            else:
                self._inval_ring[self._inval_cursor % 64] = addr

    def _store_set_blocker(self, load: DynInst) -> Optional[str]:
        if self.config.predictor is PredictorMode.PERFECT:
            match = self._oracle_match(load)
            if match is not None and not match.mem_executed:
                return "store_set"
            return None
        if load.wait_store_seq is None:
            return None
        store = self._stores.get(load.wait_store_seq)
        if (store is not None and not store.squashed
                and not store.mem_executed and store.seq < load.seq):
            return "store_set"
        return None

    def _oracle_match(self, load: DynInst) -> Optional[DynInst]:
        """Youngest older overlapping store (oracle view of trace addrs)."""
        best: Optional[DynInst] = None
        load_seq = load.seq
        for bucket in self.sq.candidate_lists(load.addr, load.size):
            for store in bucket:            # seq-sorted ascending
                if store.seq >= load_seq:
                    break
                if store.is_store and store.overlaps(load) and (
                        best is None or store.seq > best.seq):
                    best = store
        return best

    # ------------------------------------------------------------------
    # load execution
    # ------------------------------------------------------------------

    def _needs_sq_search(self, load: DynInst) -> bool:
        """Whether ``load`` searches the SQ.  Under the conventional
        predictor the answer must not change between a load's attempts:
        a waiting load's code reads it once."""
        mode = self.config.predictor
        if mode is PredictorMode.CONVENTIONAL:
            return True
        if mode is PredictorMode.PERFECT:
            return self._oracle_match(load) is not None
        return self.predictor.should_search(load)

    @hotpath
    def try_execute_load(self, load: DynInst,
                         cycle: int) -> Union[LoadResult, Retry]:
        """Attempt the memory-stage access for a load.

        Returns a :class:`LoadResult`, or :class:`Retry` on a structural
        hazard (search port, data-cache port, or pipelined-search
        contention under the STALL policy / SQUASH replay).
        """
        # First call: the skip-sq-search fault injector decides here, at
        # a load's first attempt.
        need_sq = self._needs_sq_search(load)
        need_lq = self._search_lq

        # Ports are checked before any search path is built (paths are
        # pure): on a port-starved machine most attempts bounce.
        if not self.memory.d_ports.available(cycle):
            self.stats.dcache_port_stalls += 1
            return Retry(cycle + 1, self._load_wait(load, need_sq)
                         if self.parks else -1)

        # Searches against a region the occupancy bits show empty do not
        # activate the CAM, hence need no port (the search *event* is
        # still counted against bandwidth demand, as in the paper).
        sq_path: SearchPath = []
        lq_path: SearchPath = []
        if self._separate_pools:
            # Each search's first slot comes from the load's links (see
            # allocate()): the segment of its youngest older store, and
            # of its LQ successor; -1 when there is none.  A search
            # bounces on a taken first slot.  When its calendar has no
            # exhausted slot after this cycle, a free first slot admits
            # it, and its path is built once both searches are admitted;
            # otherwise its path is built now and checked in full.
            sq_head = lq_head = -1
            if need_sq and load.older_store is not None:
                sq_head = load.older_store.lsq_segment
            if need_lq and load.next_load is not None:
                lq_head = load.next_load.lsq_segment
            if sq_head >= 0:
                calendar = self.sq_ports
                if not calendar.available(sq_head, cycle):
                    return self._port_stall(
                        "sq", cycle, self._load_wait(load, need_sq)
                        if self.parks else -1)
                if calendar.last_exhausted > cycle:
                    sq_path = self.sq.backward_path(load.seq)
                    outcome = self._admit_search(calendar, sq_path,
                                                 cycle, self.stats, "sq")
                    if outcome is not None:
                        return outcome
            if lq_head >= 0:
                calendar = self.lq_ports
                if not calendar.available(lq_head, cycle):
                    return self._port_stall(
                        "lq", cycle, self._load_wait(load, need_sq)
                        if self.parks else -1)
                if calendar.last_exhausted > cycle:
                    lq_path = self.lq.forward_path(load.seq)
                    outcome = self._admit_search(calendar, lq_path,
                                                 cycle, self.stats, "lq")
                    if outcome is not None:
                        return outcome
            if sq_head >= 0 and not sq_path:
                sq_path = self.sq.backward_path(load.seq)
            if lq_head >= 0 and not lq_path:
                lq_path = self.lq.forward_path(load.seq)
        else:
            if need_sq:
                sq_path = self.sq.backward_path(load.seq)
            if need_lq:
                lq_path = self.lq.forward_path(load.seq)
            # Unified queue: both searches draw on one port pool, so
            # admission must consider their joint demand per slot.
            if sq_path and lq_path:
                outcome = self._admit_joint(self.sq_ports, sq_path,
                                            lq_path, cycle)
            elif sq_path:
                outcome = self._admit_search(self.sq_ports, sq_path,
                                             cycle, self.stats, "sq")
            else:
                outcome = self._admit_search(self.lq_ports, lq_path,
                                             cycle, self.stats, "lq")
            if outcome is not None:
                return outcome

        # All hazards cleared: reserve and perform.  The data port was
        # admitted by the d_ports.available() hazard check above, under
        # the same cycle, so this booking cannot be denied.
        self.memory.try_reserve_data_port(cycle)  # sim-lint: ignore[SIM-P002]
        self.sq_ports.reserve_path(sq_path, cycle)
        self.lq_ports.reserve_path(lq_path, cycle)

        forwarded_store: Optional[DynInst] = None
        segments_searched = 0
        if need_sq:
            forwarded_store, segments_searched = self._sq_search(load, sq_path)
        violation = self._lq_ordering_check(load, lq_path)

        latency = self._load_latency(load, forwarded_store, segments_searched,
                                     sq_path, cycle)
        self._finish_load_issue(load)
        return LoadResult(latency=latency,
                          forwarded=forwarded_store is not None,
                          violation=violation)

    def _admit_joint(self, calendar: PortCalendar, path_a: List[int],
                     path_b: List[int], cycle: int) -> Optional[Retry]:
        """Admission for two pipelined searches on one shared port pool."""
        demand: Dict[Tuple[int, int], int] = {}
        for path in (path_a, path_b):
            for offset, segment in enumerate(path):
                key = (segment, cycle + offset)
                demand[key] = demand.get(key, 0) + 1
        shortfall_now = any(
            calendar.free_ports(segment, at) < count
            for (segment, at), count in demand.items() if at == cycle)
        if shortfall_now:
            self.stats.sq_port_stalls += 1
            return Retry(cycle + 1)
        shortfall_later = any(
            calendar.free_ports(segment, at) < count
            for (segment, at), count in demand.items() if at > cycle)
        if shortfall_later:
            if self.config.contention is ContentionPolicy.STALL:
                self.stats.contention_stalls += 1
                return Retry(cycle + 1)
            self.stats.contention_squashes += 1
            return Retry(cycle + CONTENTION_REPLAY_PENALTY)
        return None

    def _admit_search(self, calendar: PortCalendar, path: List[int],
                      cycle: int, stats: SimStats,
                      which: str) -> Optional[Retry]:
        """Check a pipelined search path; None means admitted."""
        if not path:
            return None
        state = calendar.check_path(path, cycle)
        if state == "ok":
            return None
        if state == "busy_now":
            return self._port_stall(which, cycle)
        # busy_later: Section 3.2 contention.
        if self.config.contention is ContentionPolicy.STALL:
            stats.contention_stalls += 1
            return Retry(cycle + 1)
        stats.contention_squashes += 1
        return Retry(cycle + CONTENTION_REPLAY_PENALTY)

    def _port_stall(self, which: str, cycle: int, wait: int = -1) -> Retry:
        """Charge a ``which`` ("sq"/"lq") search whose first port slot
        is taken this cycle: an ordinary structural stall."""
        if which == "sq":
            self.stats.sq_port_stalls += 1
        else:
            self.stats.lq_port_stalls += 1
        return Retry(cycle + 1, wait)

    # ------------------------------------------------------------------
    # waiting loads and stores
    # ------------------------------------------------------------------

    def ports_exhausted(self) -> int:
        """How many port slots (search ports and data ports) have been
        booked to capacity: verdicts can change only when it moves."""
        return (self.sq_ports.exhausted + self.lq_ports.exhausted
                + self.memory.d_ports.exhausted)

    def _load_wait(self, load: DynInst, need_sq: bool) -> int:
        """The wait code of ``load``, bouncing on a port: its (SQ, LQ)
        first slots as :meth:`try_execute_load` reads them, or -1 for
        the LQ tail when loads search the LQ (its LQ first slot changes
        when a younger load dispatches)."""
        sq_head = lq_head = -1
        if need_sq and load.older_store is not None:
            sq_head = load.older_store.lsq_segment
        if self._search_lq:
            if load.next_load is None or load.next_load.lsq_segment < 0:
                return -1
            lq_head = load.next_load.lsq_segment
        return (sq_head + 1) * (self._segments + 1) + lq_head + 1

    def wait_slots(self, wait: int) -> Tuple[int, int]:
        """The (SQ, LQ) first slots a wait code is keyed on; -1 for
        none."""
        return self._wait_slots[wait]

    def is_store_wait(self, wait: int) -> bool:
        """Whether ``wait`` is a store's code (its LQ first slot)."""
        return wait >= self._store_waits

    @hotpath
    def wait_verdicts(self, waits: List[int], cycle: int,
                      verdicts: List[Optional[str]],
                      opened: List[int]) -> None:
        """What attempting a load or store waiting on each code of
        ``waits`` would charge now, into ``verdicts[wait]``: the port
        whose stall counter it bumps ("dcache", "sq" or "lq"), or
        None when the attempt could get further and must be made; the
        codes with None are appended to ``opened``.  The checks run in
        the order of :meth:`try_execute_load`: the data port, the SQ
        first slot, the SQ horizon (a busy later slot makes the SQ
        path's admission the question), the LQ first slot; a store
        checks its LQ first slot only (:meth:`try_execute_store`).
        """
        dcache_busy = not self.memory.d_ports.available(cycle)
        sq_ports = self.sq_ports
        lq_ports = self.lq_ports
        sq_horizon = sq_ports.last_exhausted > cycle
        wait_slots = self._wait_slots
        store_waits = self._store_waits
        for wait in waits:
            sq_head, lq_head = wait_slots[wait]
            note: Optional[str] = None
            if wait >= store_waits:
                if not lq_ports.available(lq_head, cycle):
                    note = "lq"
            elif dcache_busy:
                note = "dcache"
            elif sq_head >= 0 and not sq_ports.available(sq_head, cycle):
                note = "sq"
            elif (lq_head >= 0 and (sq_head < 0 or not sq_horizon)
                  and not lq_ports.available(lq_head, cycle)):
                note = "lq"
            verdicts[wait] = note
            if note is None:
                opened.append(wait)

    def commit_releases(self, store: DynInst, segment: int,
                        parked: List[List[list]]) -> List[list]:
        """The waiting loads ``store``'s commit re-keys, removed from
        ``parked`` (per wait code, a seq-sorted list of entries whose
        item 1 is the load).  ``store`` sat in SQ ``segment``; loads
        whose youngest older store it was skip the SQ search from now
        on.  They are the oldest loads keyed on that SQ first slot."""
        released: List[list] = []
        for wait in self._store_slot_waits[segment]:
            waits = parked[wait]
            cut = 0
            while cut < len(waits) and waits[cut][1].older_store is store:
                cut += 1
            if cut:
                released += waits[:cut]
                del waits[:cut]
        return released

    @hotpath
    def _sq_search(self, load: DynInst, path: "SearchPath",
                   ) -> Tuple[Optional[DynInst], int]:
        """Forwarding search: youngest older overlapping *executed* store.

        Returns ``(store_or_None, segments_searched)`` and records the
        bandwidth/Table 6 statistics.  The candidate index supplies the
        per-segment youngest qualifying store; the modeled search still
        visits ``path`` one segment per cycle and stops at the first
        segment holding a match, exactly as the per-entry scan did.
        """
        self.stats.sq_searches += 1
        load_seq = load.seq
        best: Dict[int, DynInst] = {}
        for bucket in self.sq.candidate_lists(load.addr, load.size):
            for store in bucket:            # seq-sorted ascending
                if store.seq >= load_seq:
                    break
                if store.is_store and store.mem_executed \
                        and store.overlaps(load):
                    prev = best.get(store.lsq_segment)
                    if prev is None or store.seq > prev.seq:
                        best[store.lsq_segment] = store
        segments_searched = 0
        match: Optional[DynInst] = None
        for segment in path:
            segments_searched += 1
            match = best.get(segment)
            if match is not None:
                break
        segments_searched = max(segments_searched, 1)
        self.stats.sq_segment_visits += segments_searched
        hist = self.stats.segment_search_hist
        hist[segments_searched] = hist.get(segments_searched, 0) + 1
        if self.obs is not None and segments_searched > 1:
            self.obs.emit("segment_hop", seq=load.seq, pc=load.pc,
                          arg=segments_searched, note="sq")
        if match is not None:
            self.stats.sq_search_matches += 1
            self.stats.forwarded_loads += 1
            load.forwarded_from = match.seq
            load.forwarded_from_pc = match.pc
            if self.obs is not None:
                self.obs.emit("forward", seq=load.seq, pc=load.pc,
                              arg=match.seq)
        elif self.config.predictor in (PredictorMode.PAIR,
                                       PredictorMode.AGGRESSIVE):
            self.stats.useless_searches += 1
        return match, segments_searched

    @hotpath
    def _lq_ordering_check(self, load: DynInst,
                           path: "SearchPath") -> Optional[Violation]:
        """Load-load ordering: find a younger, already-issued,
        same-address load (Section 2.2)."""
        if self._search_lq:
            self.stats.lq_searches += 1
            self.stats.lq_segment_visits += max(len(path), 1)
            if self.obs is not None and len(path) > 1:
                self.obs.emit("segment_hop", seq=load.seq, pc=load.pc,
                              arg=len(path), note="lq")
            load_seq = load.seq
            best: Dict[int, DynInst] = {}
            for bucket in self.lq.candidate_lists(load.addr, load.size):
                for other in bucket:        # seq-sorted ascending
                    if other.seq <= load_seq:
                        continue
                    if other.is_load and other.mem_executed \
                            and other.overlaps(load):
                        prev = best.get(other.lsq_segment)
                        if prev is None or other.seq < prev.seq:
                            best[other.lsq_segment] = other
            if best:
                for segment in path:   # oldest match in path order
                    hit = best.get(segment)
                    if hit is not None:
                        self.stats.load_load_squashes += 1
                        return Violation(hit.seq, "load-load")
            return None
        if self._buffer_gate:
            self.stats.load_buffer_searches += 1
            hit = self.load_buffer.search(load)
            if hit is not None:
                self.stats.load_load_squashes += 1
                return Violation(hit.seq, "load-load")
        # MEMBAR and INVALIDATION modes: no per-load ordering search at
        # all — ordering is the programmer's or the coherence protocol's
        # job (Section 2.2).
        return None

    def _load_latency(self, load: DynInst,
                      forwarded_store: Optional[DynInst],
                      segments_searched: int, sq_path: List[int],
                      cycle: int) -> int:
        if forwarded_store is not None:
            latency = self.memory.config.l1d.hit_latency
        else:
            latency = self.memory.data_access(load.addr,
                                              cycle=cycle).latency
        if self.config.segmented:
            latency += max(segments_searched - 1, 0)
            # A path is built only for a load that searches the SQ.
            if (self.config.early_scheduling_head_only and sq_path
                    and sq_path[0] != self.sq.head_segment()):
                # Section 3: early scheduling of dependents is forgone
                # unless the search is confined to the head segment.
                latency += EARLY_SCHEDULING_PENALTY
        return latency

    def _finish_load_issue(self, load: DynInst) -> None:
        """NILP/LIV bookkeeping once the load's access is under way."""
        in_order = self.nilp.is_in_order(load)
        use_buffer = self._buffer_gate
        if not in_order:
            self.nilp.mark_ooo_issue(load)
            if use_buffer:
                self.load_buffer.insert(load)
        load.mem_executed = True
        load.older_store = load.next_load = None
        for passed in self.nilp.advance():
            if use_buffer and passed.load_buffer_slot >= 0:
                self.load_buffer.release(passed)
                # The released load performs one final buffer search
                # (Section 2.2.1); with sequential issue semantics it
                # cannot find a new violation, but the bandwidth is real.
                self.stats.load_buffer_searches += 1

    # ------------------------------------------------------------------
    # store execution and commit
    # ------------------------------------------------------------------

    def try_execute_store(self, store: DynInst,
                          cycle: int) -> Union[StoreResult, Retry]:
        """Store address generation + (conventional) load-queue search."""
        if self.config.detection_at_commit:
            store.mem_executed = True
            self.predictor.on_store_issue(store)
            return StoreResult(violation=None)

        path: SearchPath = []
        # The first slot is the segment of the oldest younger load: it
        # stays put until a squash, so the store may wait on it.
        head = self.lq.forward_head(store.seq)
        if head >= 0:
            if not self.lq_ports.available(head, cycle):
                return self._port_stall(
                    "lq", cycle, self._store_waits + head
                    if self.parks else -1)
            path = self.lq.forward_path(store.seq)
            outcome = self._admit_search(self.lq_ports, path, cycle,
                                         self.stats, "lq")
            if outcome is not None:
                return outcome
        self.lq_ports.reserve_path(path, cycle)
        store.mem_executed = True
        self.predictor.on_store_issue(store)
        violation = self._store_ordering_check(store, path)
        return StoreResult(violation=violation)

    def _store_ordering_check(self, store: DynInst,
                              path: "SearchPath") -> Optional[Violation]:
        """Find the oldest younger issued load with a stale value."""
        self.stats.lq_searches += 1
        self.stats.lq_segment_visits += max(len(path), 1)
        if self.obs is not None and len(path) > 1:
            self.obs.emit("segment_hop", seq=store.seq, pc=store.pc,
                          arg=len(path), note="lq-store")
        store_seq = store.seq
        best: Dict[int, DynInst] = {}
        for bucket in self.lq.candidate_lists(store.addr, store.size):
            for load in bucket:             # seq-sorted ascending
                if load.seq <= store_seq:
                    continue
                if not load.is_load or not load.mem_executed \
                        or not load.overlaps(store):
                    continue
                if (load.forwarded_from is None
                        or load.forwarded_from < store_seq):
                    prev = best.get(load.lsq_segment)
                    if prev is None or load.seq < prev.seq:
                        best[load.lsq_segment] = load
        if best:
            for segment in path:       # oldest match in path order
                hit = best.get(segment)
                if hit is None:
                    continue
                self.stats.store_load_squashes += 1
                self.predictor.train_violation(hit.pc, store.pc)
                extra = 0
                if self.config.detection_at_commit:
                    extra = self.pair_rollback_penalty
                    self.stats.missed_dependences += 1
                return Violation(hit.seq, "store-load",
                                 extra_penalty=extra)
        return None

    def try_commit_store(self, store: DynInst,
                         cycle: int) -> Union[CommitResult, Retry]:
        """Retire a store: cache write plus (pair-mode) the deferred
        store-load ordering search."""
        if not self.memory.d_ports.available(cycle):
            self.stats.dcache_port_stalls += 1
            return Retry(cycle + 1)

        violation: Optional[Violation] = None
        if self.config.detection_at_commit:
            path: SearchPath = []
            head = self.lq.forward_head(store.seq)
            # A taken first slot delays the commit before the path is
            # built; otherwise the whole path must be free.
            admitted = head < 0 or self.lq_ports.available(head, cycle)
            if head >= 0 and admitted:
                path = self.lq.forward_path(store.seq)
                admitted = self.lq_ports.check_path(path, cycle) == "ok"
            if not admitted:
                # Stores are no longer in the pipeline: contention is
                # resolved by simply delaying the commit (Section 3.2).
                self.stats.store_commit_delays += 1
                return Retry(cycle + 1)
            self.lq_ports.reserve_path(path, cycle)
            violation = self._store_ordering_check(store, path)

        # Pre-admitted: try_commit_store() only reaches this point after
        # the d_ports.available() check at its top passed for this cycle.
        self.memory.try_reserve_data_port(cycle)  # sim-lint: ignore[SIM-P002]
        self.memory.data_access(store.addr, write=True, cycle=cycle)
        self._note_written_line(store.addr)
        self.predictor.on_store_commit(store)
        self.sq.commit_head(store)
        self._stores.pop(store.seq, None)
        return CommitResult(violation=violation)

    # ------------------------------------------------------------------
    # load commit, squash
    # ------------------------------------------------------------------

    def commit_load(self, load: DynInst) -> None:
        self.lq.commit_head(load)
        if load.forwarded_from_pc is not None:
            # Pair-predictor training on every observed match (Figure 2).
            self.predictor.train_pair(load.pc, load.forwarded_from_pc)

    def maybe_clear_predictor(self, committed: int) -> None:
        self.predictor.maybe_clear(committed)

    def squash_from(self, seq: int) -> None:
        for store in self.sq.squash_from(seq):
            self.predictor.on_store_squash(store)
            self._stores.pop(store.seq, None)
        self.nilp.on_squash(seq)
        self.lq.squash_from(seq)
        self.load_buffer.squash_from(seq)
        self._membars = [m for m in self._membars if m.seq < seq]
