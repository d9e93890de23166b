"""Store-set predictor and the store-load pair extension (Section 2.1).

The structures follow Chrysos & Emer: a Store Set ID Table (SSIT)
indexed by (hashed) PC maps loads and stores to store-set identifiers,
and a Last Fetched Store Table (LFST) indexed by SSID tracks the most
recently fetched store of each set.

The paper's extension adds a **multi-bit counter** per LFST entry that
counts the set's in-flight stores from fetch to *commit*:

* store dispatch: ``valid = True``, ``counter += 1`` (saturating);
* store issue: ``valid = False`` when it is the last-fetched store
  (the store-set synchronisation point — waiting loads may go);
* store commit: ``counter -= 1``;
* squash: the counter is rolled back for each squashed store (the paper
  charges one extra recovery cycle for this work).

A load reads the SSIT at dispatch; if it maps to a set it is *predicted
dependent* and (a) waits for the set's last-fetched store to issue
(store-set semantics) and (b) at issue, searches the store queue only
when the counter is non-zero (pair-predictor semantics).

Training: store-set prediction trains on violations only; the pair
predictor additionally trains on every observed store-to-load forwarding
(Figure 2's store0-load2 pair), which this module receives via
:meth:`train_pair` at load commit.

Tables are cleared periodically (as in Chrysos & Emer) to evict stale
pairings; the interval here is scaled down in proportion to the shorter
synthetic runs.

Two table implementations share the logic:

* :class:`_RealTables` — finite SSIT/LFST with index aliasing (Table 1:
  4K / 128 entries);
* :class:`_IdealTables` — unbounded exact-PC tables, the "aggressive"
  predictor of Section 4.1.1 (no aliasing, hence no constructive
  interference).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.config import PredictorMode, StoreSetConfig
from repro.obs.events import EventBus
from repro.stats.counters import SimStats

if TYPE_CHECKING:
    from repro.pipeline.dyninst import DynInst

#: Components any stage may touch directly (sim-lint SIM-M registry):
#: the observability layer, like stats/tracer, is write-from-anywhere.
SIM_LINT_INTERFACES = frozenset({"obs"})


class _LfstEntry:
    __slots__ = ("store_seq", "valid", "counter")

    def __init__(self) -> None:
        self.store_seq = -1
        self.valid = False
        self.counter = 0


class _RealTables:
    """Finite, aliasing SSIT + LFST (the realistic hardware)."""

    __slots__ = ("config", "_ssit", "_lfst", "_ssit_mask", "_lfst_mask")

    def __init__(self, config: StoreSetConfig) -> None:
        self.config = config
        self._ssit: List[Optional[int]] = [None] * config.ssit_entries
        self._lfst = [_LfstEntry() for _ in range(config.lfst_entries)]
        self._ssit_mask = config.ssit_entries - 1
        self._lfst_mask = config.lfst_entries - 1

    def _index(self, pc: int) -> int:
        # XOR-folded so PCs that alias in the SSIT need not alias in the
        # (low-bits-indexed) instruction cache.
        return ((pc >> 2) ^ (pc >> 14)) & self._ssit_mask

    def ssid_for(self, pc: int) -> Optional[int]:
        return self._ssit[self._index(pc)]

    def lfst(self, ssid: int) -> _LfstEntry:
        return self._lfst[ssid & self._lfst_mask]

    def assign(self, pc: int, ssid: int) -> None:
        self._ssit[self._index(pc)] = ssid

    def new_ssid(self, load_pc: int) -> int:
        return self._index(load_pc) & self._lfst_mask

    def clear(self) -> None:
        self._ssit = [None] * self.config.ssit_entries
        for entry in self._lfst:
            entry.store_seq = -1
            entry.valid = False
            entry.counter = 0


class _IdealTables:
    """Unbounded exact-PC tables (the alias-free aggressive predictor)."""

    def __init__(self, config: StoreSetConfig) -> None:
        self.config = config
        self._ssit: Dict[int, int] = {}
        self._lfst: Dict[int, _LfstEntry] = {}
        self._next_ssid = 0

    def ssid_for(self, pc: int) -> Optional[int]:
        return self._ssit.get(pc)

    def lfst(self, ssid: int) -> _LfstEntry:
        entry = self._lfst.get(ssid)
        if entry is None:
            entry = _LfstEntry()
            self._lfst[ssid] = entry
        return entry

    def assign(self, pc: int, ssid: int) -> None:
        self._ssit[pc] = ssid

    def new_ssid(self, load_pc: int) -> int:
        self._next_ssid += 1
        return self._next_ssid

    def clear(self) -> None:
        self._ssit.clear()
        self._lfst.clear()


class PairPredictor:
    """Store-set + store-load pair prediction over either table flavour."""

    def __init__(self, config: StoreSetConfig, stats: SimStats,
                 mode: PredictorMode) -> None:
        if mode not in (PredictorMode.PAIR, PredictorMode.AGGRESSIVE,
                        PredictorMode.CONVENTIONAL):
            raise ValueError(f"PairPredictor does not implement {mode}")
        self.config = config
        self.stats = stats
        self.mode = mode
        #: Optional event bus (repro.obs); wired by Observer.attach().
        self.obs: Optional[EventBus] = None
        self.clear_interval = config.clear_interval
        self._clears = 0
        self.tables: Union[_RealTables, _IdealTables]
        if mode is PredictorMode.AGGRESSIVE:
            self.tables = _IdealTables(config)
        else:
            self.tables = _RealTables(config)

    # -- pipeline hooks ---------------------------------------------------

    def on_load_dispatch(self, load: DynInst) -> None:
        """SSIT/LFST access at fetch (Figure 3, load row)."""
        ssid = self.tables.ssid_for(load.pc)
        load.ssid = ssid
        if ssid is None:
            return
        load.predicted_dependent = True
        entry = self.tables.lfst(ssid)
        if entry.valid and -1 < entry.store_seq < load.seq:
            load.wait_store_seq = entry.store_seq

    def on_store_dispatch(self, store: DynInst) -> None:
        """valid := True, counter += 1, update LFST (Figure 3, store row)."""
        ssid = self.tables.ssid_for(store.pc)
        store.ssid = ssid
        if ssid is None:
            return
        entry = self.tables.lfst(ssid)
        entry.store_seq = store.seq
        entry.valid = True
        entry.counter = min(entry.counter + 1, self.config.counter_max)

    def on_store_issue(self, store: DynInst) -> None:
        """Clear the valid bit when the last-fetched store issues."""
        if store.ssid is None:
            return
        entry = self.tables.lfst(store.ssid)
        if entry.valid and entry.store_seq == store.seq:
            entry.valid = False

    def on_store_commit(self, store: DynInst) -> None:
        """counter -= 1 at commit (pair-predictor lifetime extends here)."""
        if store.ssid is None:
            return
        entry = self.tables.lfst(store.ssid)
        entry.counter = max(entry.counter - 1, 0)

    def on_store_squash(self, store: DynInst) -> None:
        """Roll the counter back for a squashed in-flight store."""
        if store.ssid is None:
            return
        entry = self.tables.lfst(store.ssid)
        entry.counter = max(entry.counter - 1, 0)
        if entry.valid and entry.store_seq == store.seq:
            entry.valid = False

    def should_search(self, load: DynInst) -> bool:
        """Pair prediction read at issue: search iff counter > 0.

        In CONVENTIONAL mode every load searches regardless (the
        predictor still provides store-set synchronisation).
        """
        if self.mode is PredictorMode.CONVENTIONAL:
            return True
        if load.ssid is None:
            return False
        return self.tables.lfst(load.ssid).counter > 0

    # -- training -----------------------------------------------------------

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Merge the violating pair into a store set (Chrysos/Emer rules)."""
        if self.obs is not None:
            self.obs.emit("predictor_update", pc=load_pc, arg=store_pc,
                          note="violation")
        self._merge(load_pc, store_pc)

    def train_pair(self, load_pc: int, store_pc: int) -> None:
        """Pair-predictor training on observed forwarding (all matches,
        not just violations).  No-op for plain store-set prediction."""
        if self.mode is PredictorMode.CONVENTIONAL:
            return
        if self.obs is not None:
            self.obs.emit("predictor_update", pc=load_pc, arg=store_pc,
                          note="pair")
        self._merge(load_pc, store_pc)

    def _merge(self, load_pc: int, store_pc: int) -> None:
        load_ssid = self.tables.ssid_for(load_pc)
        store_ssid = self.tables.ssid_for(store_pc)
        if load_ssid is not None and store_ssid is not None:
            if load_ssid != store_ssid:
                winner = min(load_ssid, store_ssid)
                self.tables.assign(load_pc, winner)
                self.tables.assign(store_pc, winner)
        elif load_ssid is not None:
            self.tables.assign(store_pc, load_ssid)
        elif store_ssid is not None:
            self.tables.assign(load_pc, store_ssid)
        else:
            ssid = self.tables.new_ssid(load_pc)
            self.tables.assign(load_pc, ssid)
            self.tables.assign(store_pc, ssid)

    # -- maintenance ----------------------------------------------------------

    def maybe_clear(self, committed: int) -> None:
        """Periodic invalidation, as in Chrysos & Emer."""
        if self.clear_interval <= 0:
            return
        due = committed // self.clear_interval
        if due > self._clears:
            self._clears = due
            if self.obs is not None:
                self.obs.emit("predictor_update", arg=due, note="clear")
            self.tables.clear()


class PerfectPredictor:
    """Oracle stand-in: the LSQ consults queue contents directly.

    Provides the same hook surface as :class:`PairPredictor` but keeps no
    state; ``should_search`` is answered by the LSQ's oracle scan, so
    this class always defers (returns ``False``) and never blocks loads
    through store-set synchronisation.
    """

    mode = PredictorMode.PERFECT

    def __init__(self, config: StoreSetConfig, stats: SimStats) -> None:
        self.config = config
        self.stats = stats
        #: Same hook surface as PairPredictor (never emitted to).
        self.obs: Optional[EventBus] = None

    def on_load_dispatch(self, load: DynInst) -> None:  # noqa: D102
        pass

    def on_store_dispatch(self, store: DynInst) -> None:  # noqa: D102
        pass

    def on_store_issue(self, store: DynInst) -> None:  # noqa: D102
        pass

    def on_store_commit(self, store: DynInst) -> None:  # noqa: D102
        pass

    def on_store_squash(self, store: DynInst) -> None:  # noqa: D102
        pass

    def should_search(self, load: DynInst) -> bool:  # noqa: D102
        return False

    def train_violation(self, load_pc: int, store_pc: int) -> None:  # noqa: D102
        pass

    def train_pair(self, load_pc: int, store_pc: int) -> None:  # noqa: D102
        pass

    def maybe_clear(self, committed: int) -> None:  # noqa: D102
        pass


#: Either predictor flavour — what :func:`make_predictor` hands the LSQ.
Predictor = Union[PairPredictor, PerfectPredictor]


def make_predictor(mode: PredictorMode, config: StoreSetConfig,
                   stats: SimStats) -> Predictor:
    """Build the predictor variant for an LSQ configuration."""
    if mode is PredictorMode.PERFECT:
        return PerfectPredictor(config, stats)
    return PairPredictor(config, stats, mode)
