"""Machine configuration for the LSQ-scaling reproduction.

Every experiment in the paper is a combination of

* a **core** configuration (Table 1 of the paper: widths, window sizes,
  functional units, branch predictor, penalties),
* a **memory hierarchy** configuration (L1 I/D, L2, main memory), and
* a **load/store queue** configuration (the paper's contribution: number
  of entries, search ports, predictor mode, load-buffer mode,
  segmentation).

This module defines plain dataclasses for each of those pieces plus the
two machine presets used in the evaluation: :func:`base_machine`
(Section 4, Table 1) and :func:`scaled_machine` (Section 4.3: 12-wide
issue, 96-entry issue queue, 3-cycle L1 hit).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace
from typing import Any, Optional


def _default_watchdog_cycles() -> int:
    """Deadlock-watchdog threshold: ``REPRO_WATCHDOG_CYCLES`` env
    override, else 50k cycles (generous for any real stall)."""
    return int(os.environ.get("REPRO_WATCHDOG_CYCLES", "50000"))


class PredictorMode(enum.Enum):
    """How loads decide whether to search the store queue.

    ``CONVENTIONAL``
        Every load searches the store queue (the paper's base case).
        The store-set predictor is still used for memory-dependence
        speculation (loads wait on predicted-dependent unissued stores),
        as in Table 1.
    ``PAIR``
        The paper's store-load pair predictor: the LFST entry carries a
        multi-bit in-flight store counter; a load predicted independent
        skips the store-queue search, and store-load order violations are
        detected when the store *commits*.
    ``AGGRESSIVE``
        Alias-free idealisation of ``PAIR``: unbounded, exact-PC tables
        (Section 4.1.1's "aggressive predictor").
    ``PERFECT``
        Oracle: a load searches the store queue exactly when a matching
        older store is in flight (Section 4.1.1's "perfect predictor").
    """

    CONVENTIONAL = "conventional"
    PAIR = "pair"
    AGGRESSIVE = "aggressive"
    PERFECT = "perfect"


class LoadQueueSearchMode(enum.Enum):
    """How load-load order violations are detected (Section 2.2).

    ``SEARCH_LQ``
        Every load associatively searches the whole load queue
        (conventional; consumes a load-queue search port).
    ``LOAD_BUFFER``
        Loads search only the small load buffer of out-of-order-issued
        loads (the paper's technique; no load-queue port needed).
    ``IN_ORDER_ALWAYS_SEARCH``
        Loads issue in program order *with respect to each other* but
        still fruitlessly search the load queue (Figure 9's leftmost
        bar).
    ``IN_ORDER``
        Loads issue in program order and skip the search entirely
        (Figure 9's "0-entry load buffer").
    ``MEMBAR``
        No hardware load-load checks at all: ordering is the
        *programmer's* job via memory-barrier instructions in the trace
        (the software option of Section 2.2).
    ``INVALIDATION``
        Scheme (2) of Section 2.2 (MIPS R10000): no per-load searches;
        external coherence invalidations search the load queue instead.
        Invalidation traffic is injected at ``LsqConfig
        .invalidation_rate`` per cycle.
    """

    SEARCH_LQ = "search_lq"
    LOAD_BUFFER = "load_buffer"
    IN_ORDER_ALWAYS_SEARCH = "in_order_always_search"
    IN_ORDER = "in_order"
    MEMBAR = "membar"
    INVALIDATION = "invalidation"


class OrderingModel(enum.Enum):
    """Declared memory-consistency contract of an LSQ configuration.

    The litmus rig (:mod:`repro.litmus`) verifies every observed
    outcome against the outcome set this declaration allows.  The
    simulated pipeline commits any single interleaving sequentially, so
    clean runs can only produce SC-reachable outcomes; the declaration
    states the *contract* the configuration promises, which is what the
    checker holds faulted runs to.

    ``AUTO``
        Resolve from ``lq_search``: modes that enforce hardware
        load-load ordering declare ``TSO``; ``MEMBAR``/``INVALIDATION``
        (no per-load ordering promise) declare ``RELAXED``.
    ``SC``
        Sequential consistency: program order is preserved between all
        pairs of memory operations.
    ``TSO``
        Total store order: a store may be reordered after a later load
        (store buffering); all other program-order pairs hold.
    ``RELAXED``
        No ordering promises except those re-established by explicit
        ``MEMBAR`` instructions (Section 2.2's software option).
    """

    AUTO = "auto"
    SC = "sc"
    TSO = "tso"
    RELAXED = "relaxed"


class AllocationPolicy(enum.Enum):
    """Entry-allocation policy for the segmented LSQ (Section 3.1)."""

    NO_SELF_CIRCULAR = "no_self_circular"
    SELF_CIRCULAR = "self_circular"


class ContentionPolicy(enum.Enum):
    """What to do when pipelined segment searches collide (Section 3.2).

    ``SQUASH`` squashes the in-flight load whose search lost arbitration
    (the paper's primary mechanism); ``STALL`` delays the search by a
    cycle instead (the paper's alternative).
    """

    SQUASH = "squash"
    STALL = "stall"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int
    hit_latency: int
    ports: int = 1

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.block_bytes):
            raise ValueError(
                "cache size must be a multiple of associativity * block size"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        if self.ports <= 0:
            raise ValueError("cache ports must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """The full hierarchy of Table 1."""

    l1i: CacheConfig = CacheConfig(
        size_bytes=64 * 1024, associativity=2, block_bytes=32, hit_latency=2, ports=2
    )
    l1d: CacheConfig = CacheConfig(
        size_bytes=64 * 1024, associativity=2, block_bytes=32, hit_latency=2, ports=4
    )
    l2: CacheConfig = CacheConfig(
        size_bytes=2 * 1024 * 1024,
        associativity=8,
        block_bytes=64,
        hit_latency=12,
        ports=1,
    )
    memory_latency: int = 150
    # Miss-status holding registers on the L1-D miss path: bounds the
    # number of outstanding misses and merges accesses to an in-flight
    # block.  0 = unmodelled (unbounded overlap), the paper's implicit
    # assumption and this repo's calibrated default.
    l1d_mshrs: int = 0


@dataclass(frozen=True)
class StoreSetConfig:
    """Store-set / store-load pair predictor tables (Table 1).

    ``clear_interval`` is the committed-instruction period of the
    Chrysos/Emer-style table invalidation, scaled down in proportion to
    our short synthetic runs (they clear every ~1M cycles over 100M+
    instruction runs).  Clearing is what separates the realistic pair
    predictor from the alias-free aggressive idealisation: after a
    clear, one violation re-trains a whole aliased SSIT group, while
    the aggressive predictor pays one squash per load PC (Section
    4.1.1's constructive interference).
    """

    ssit_entries: int = 4096
    lfst_entries: int = 128
    counter_bits: int = 3
    clear_interval: int = 8192
    # Chrysos/Emer refinement: stores within one store set execute in
    # program order (their memory-dependence paper's full rule; the LSQ
    # paper's mechanisms do not rely on it, so it defaults off).
    store_store_ordering: bool = False

    def __post_init__(self) -> None:
        for name in ("ssit_entries", "lfst_entries"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if not 1 <= self.counter_bits <= 8:
            raise ValueError("counter_bits must be in [1, 8]")

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class LsqConfig:
    """Configuration of the load/store queue under evaluation.

    ``lq_entries``/``sq_entries`` give the capacity of the (split) load
    and store queues; when ``segments > 1`` each queue is built from
    ``segments`` chained segments of ``segment_entries`` entries and the
    flat capacities are ignored.
    """

    lq_entries: int = 32
    sq_entries: int = 32
    search_ports: int = 2
    predictor: PredictorMode = PredictorMode.CONVENTIONAL
    lq_search: LoadQueueSearchMode = LoadQueueSearchMode.SEARCH_LQ
    load_buffer_entries: int = 2
    segments: int = 1
    segment_entries: int = 28
    allocation: AllocationPolicy = AllocationPolicy.SELF_CIRCULAR
    contention: ContentionPolicy = ContentionPolicy.SQUASH
    # Section 3: forgo early (speculative) scheduling of load dependents
    # unless the load sits in the head segment.  Kept as a knob for the
    # ablation bench.
    early_scheduling_head_only: bool = True
    # Section 2.1: with the pair predictor, store-load order violations
    # are detected at store *commit* rather than store *execute*.  This
    # follows the predictor mode by default; the ablation bench overrides
    # it explicitly.
    detect_at_commit: Optional[bool] = None
    # Section 2.2, scheme (2): external-invalidation arrivals per cycle
    # when ``lq_search`` is INVALIDATION (the paper notes invalidations
    # are rare and may be filtered by L2/L3).
    invalidation_rate: float = 0.002
    # Declared memory-consistency contract (see OrderingModel): what
    # the litmus rig holds observed outcomes to.  AUTO derives it from
    # lq_search via resolved_ordering_model.
    ordering_model: OrderingModel = OrderingModel.AUTO
    # One combined queue holding loads and stores (the structure the
    # paper's Figure 5 draws "for brevity") instead of the split LQ/SQ
    # modern processors implement.  Capacity is shared and every search
    # competes for the same ports — the ablation that shows why the
    # split design is standard.
    unified_queue: bool = False

    def __post_init__(self) -> None:
        if self.lq_entries <= 0 or self.sq_entries <= 0:
            raise ValueError("queue capacities must be positive")
        if self.search_ports <= 0:
            raise ValueError("search_ports must be positive")
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if self.segments > 1 and self.segment_entries <= 0:
            raise ValueError("segment_entries must be positive when segmented")
        if self.load_buffer_entries < 0:
            raise ValueError("load_buffer_entries must be >= 0")

    @property
    def segmented(self) -> bool:
        return self.segments > 1

    @property
    def effective_lq_entries(self) -> int:
        return self.segments * self.segment_entries if self.segmented else self.lq_entries

    @property
    def effective_sq_entries(self) -> int:
        return self.segments * self.segment_entries if self.segmented else self.sq_entries

    @property
    def resolved_ordering_model(self) -> OrderingModel:
        """The declared ordering model, with ``AUTO`` resolved.

        Hardware load-load ordering (search-the-LQ, load-buffer, or
        in-order issue) plus execute/commit-time store-load checks make
        the configuration at least TSO; without a per-load ordering
        mechanism (``MEMBAR``/``INVALIDATION``) only barriers order
        loads, so the declaration weakens to RELAXED.
        """
        if self.ordering_model is not OrderingModel.AUTO:
            return self.ordering_model
        if self.lq_search in (LoadQueueSearchMode.MEMBAR,
                              LoadQueueSearchMode.INVALIDATION):
            return OrderingModel.RELAXED
        return OrderingModel.TSO

    @property
    def detection_at_commit(self) -> bool:
        """Resolve the violation-detection point.

        The pair predictor (and its idealised variants that also skip
        searches) require detection at commit; the conventional design
        detects at store execute.
        """
        if self.detect_at_commit is not None:
            return self.detect_at_commit
        return self.predictor in (PredictorMode.PAIR, PredictorMode.AGGRESSIVE)


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 1)."""

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 256
    issue_queue_entries: int = 64
    int_units: int = 8
    fp_units: int = 8
    int_registers: int = 356
    fp_registers: int = 356
    branch_mispredict_penalty: int = 14
    # Extra cycle charged on recovery to roll back the pair predictor's
    # LFST counters (Section 2.1.2).
    pair_rollback_penalty: int = 1
    # Abort the run when no instruction commits for this many cycles
    # (deadlock guard); default from REPRO_WATCHDOG_CYCLES, else 50000.
    watchdog_cycles: int = field(default_factory=_default_watchdog_cycles)

    def __post_init__(self) -> None:
        if min(self.fetch_width, self.issue_width, self.commit_width) <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.rob_entries <= 0 or self.issue_queue_entries <= 0:
            raise ValueError("window sizes must be positive")
        if self.watchdog_cycles <= 0:
            raise ValueError("watchdog_cycles must be positive")


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Hybrid GAg + PAg predictor, 4K entries each (Table 1)."""

    gag_entries: int = 4096
    pag_entries: int = 4096
    pag_history_entries: int = 1024
    history_bits: int = 12
    chooser_entries: int = 4096


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine: core + memory + LSQ + predictors."""

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    lsq: LsqConfig = field(default_factory=LsqConfig)
    store_sets: StoreSetConfig = field(default_factory=StoreSetConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    def with_lsq(self, **kwargs: Any) -> "MachineConfig":
        """Return a copy with load/store-queue parameters replaced."""
        return replace(self, lsq=replace(self.lsq, **kwargs))

    def with_core(self, **kwargs: Any) -> "MachineConfig":
        """Return a copy with core parameters replaced."""
        return replace(self, core=replace(self.core, **kwargs))


def base_machine(**lsq_overrides: Any) -> MachineConfig:
    """The paper's base configuration (Table 1).

    Keyword arguments override :class:`LsqConfig` fields, e.g.
    ``base_machine(search_ports=1, predictor=PredictorMode.PAIR)``.
    """
    machine = MachineConfig()
    if lsq_overrides:
        machine = machine.with_lsq(**lsq_overrides)
    return machine


def scaled_machine(**lsq_overrides: Any) -> MachineConfig:
    """The scaled processor of Section 4.3.

    Issue width 8 -> 12, issue queue 64 -> 96, L1 hit latency 2 -> 3
    cycles, cache sizes unchanged.
    """
    machine = base_machine(**lsq_overrides)
    machine = machine.with_core(fetch_width=12, issue_width=12, commit_width=12,
                                issue_queue_entries=96)
    slower_l1i = replace(machine.memory.l1i, hit_latency=3)
    slower_l1d = replace(machine.memory.l1d, hit_latency=3)
    memory = replace(machine.memory, l1i=slower_l1i, l1d=slower_l1d)
    return replace(machine, memory=memory)


# -- LSQ presets used throughout the evaluation ------------------------------

def conventional_lsq(ports: int = 2, lq_entries: int = 32,
                     sq_entries: int = 32) -> LsqConfig:
    """The base-case LSQ: split 32+32, all loads search both queues."""
    return LsqConfig(lq_entries=lq_entries, sq_entries=sq_entries,
                     search_ports=ports)


def techniques_lsq(ports: int = 1, load_buffer_entries: int = 2,
                   lq_entries: int = 32, sq_entries: int = 32) -> LsqConfig:
    """Pair predictor + load buffer (Section 4.1.3), flat queues."""
    return LsqConfig(lq_entries=lq_entries, sq_entries=sq_entries,
                     search_ports=ports, predictor=PredictorMode.PAIR,
                     lq_search=LoadQueueSearchMode.LOAD_BUFFER,
                     load_buffer_entries=load_buffer_entries)


def segmented_lsq(ports: int = 2, segments: int = 4, segment_entries: int = 28,
                  allocation: AllocationPolicy = AllocationPolicy.SELF_CIRCULAR,
                  ) -> LsqConfig:
    """Segmentation alone (Section 4.2): conventional searches, 4 x 28."""
    return LsqConfig(search_ports=ports, segments=segments,
                     segment_entries=segment_entries, allocation=allocation)


def full_techniques_lsq(ports: int = 1, segments: int = 4,
                        segment_entries: int = 28,
                        load_buffer_entries: int = 2) -> LsqConfig:
    """All three techniques combined (Section 4.3)."""
    return LsqConfig(search_ports=ports, predictor=PredictorMode.PAIR,
                     lq_search=LoadQueueSearchMode.LOAD_BUFFER,
                     load_buffer_entries=load_buffer_entries,
                     segments=segments, segment_entries=segment_entries,
                     allocation=AllocationPolicy.SELF_CIRCULAR)
