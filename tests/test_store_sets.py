"""Unit tests for the store-set / store-load pair predictor."""

import pytest

from repro.config import PredictorMode, StoreSetConfig
from repro.core.store_sets import (
    PairPredictor,
    PerfectPredictor,
    make_predictor,
)
from repro.pipeline.dyninst import DynInst
from repro.stats.counters import SimStats
from tests.conftest import load, store


def dyn_load(seq, pc=0x1000, addr=0x40):
    return DynInst(seq, seq, load(addr, pc=pc))


def dyn_store(seq, pc=0x2000, addr=0x40):
    return DynInst(seq, seq, store(addr, pc=pc))


@pytest.fixture
def predictor():
    return PairPredictor(StoreSetConfig(clear_interval=0), SimStats(),
                         PredictorMode.PAIR)


class TestTraining:
    def test_untrained_load_predicted_independent(self, predictor):
        ld = dyn_load(1)
        predictor.on_load_dispatch(ld)
        assert not ld.predicted_dependent
        assert ld.ssid is None

    def test_violation_trains_pair(self, predictor):
        predictor.train_violation(0x1000, 0x2000)
        ld = dyn_load(5, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert ld.predicted_dependent

    def test_merge_into_existing_set(self, predictor):
        predictor.train_violation(0x1000, 0x2000)
        predictor.train_violation(0x1000, 0x2004)  # second store joins
        ld = dyn_load(1, pc=0x1000)
        st1 = dyn_store(2, pc=0x2000)
        st2 = dyn_store(3, pc=0x2004)
        predictor.on_load_dispatch(ld)
        predictor.on_store_dispatch(st1)
        predictor.on_store_dispatch(st2)
        assert st1.ssid == st2.ssid == ld.ssid

    def test_merge_two_sets_converges(self, predictor):
        predictor.train_violation(0x1000, 0x2000)
        predictor.train_violation(0x1100, 0x2100)
        # now merge across the two sets
        predictor.train_violation(0x1000, 0x2100)
        a = dyn_load(1, pc=0x1000)
        b = dyn_store(2, pc=0x2100)
        predictor.on_load_dispatch(a)
        predictor.on_store_dispatch(b)
        assert a.ssid == b.ssid

    def test_train_pair_noop_in_conventional_mode(self):
        conv = PairPredictor(StoreSetConfig(clear_interval=0), SimStats(),
                             PredictorMode.CONVENTIONAL)
        conv.train_pair(0x1000, 0x2000)
        ld = dyn_load(1, pc=0x1000)
        conv.on_load_dispatch(ld)
        assert not ld.predicted_dependent

    def test_train_pair_trains_in_pair_mode(self, predictor):
        predictor.train_pair(0x1000, 0x2000)
        ld = dyn_load(1, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert ld.predicted_dependent


class TestLifecycle:
    def _trained(self, predictor):
        predictor.train_violation(0x1000, 0x2000)

    def test_counter_counts_in_flight_stores(self, predictor):
        self._trained(predictor)
        st = dyn_store(1, pc=0x2000)
        predictor.on_store_dispatch(st)
        ld = dyn_load(2, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert predictor.should_search(ld)
        predictor.on_store_commit(st)
        assert not predictor.should_search(ld)

    def test_counter_saturates(self, predictor):
        self._trained(predictor)
        stores = [dyn_store(i, pc=0x2000) for i in range(1, 12)]
        for st in stores:
            predictor.on_store_dispatch(st)
        # 3-bit counter saturates at 7; committing 7 empties it even
        # though more stores were dispatched (the documented
        # approximation of a finite counter).
        for st in stores[:7]:
            predictor.on_store_commit(st)
        ld = dyn_load(99, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert not predictor.should_search(ld)

    def test_wait_on_last_fetched_store(self, predictor):
        self._trained(predictor)
        st = dyn_store(3, pc=0x2000)
        predictor.on_store_dispatch(st)
        ld = dyn_load(5, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert ld.wait_store_seq == 3

    def test_no_wait_after_store_issue(self, predictor):
        self._trained(predictor)
        st = dyn_store(3, pc=0x2000)
        predictor.on_store_dispatch(st)
        predictor.on_store_issue(st)
        ld = dyn_load(5, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert ld.wait_store_seq is None

    def test_counter_still_set_after_issue(self, predictor):
        # Valid bit and counter have independent lifetimes (Section 2.1.1).
        self._trained(predictor)
        st = dyn_store(3, pc=0x2000)
        predictor.on_store_dispatch(st)
        predictor.on_store_issue(st)
        ld = dyn_load(5, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert predictor.should_search(ld)

    def test_squash_rolls_back_counter(self, predictor):
        self._trained(predictor)
        st = dyn_store(3, pc=0x2000)
        predictor.on_store_dispatch(st)
        predictor.on_store_squash(st)
        ld = dyn_load(5, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert not predictor.should_search(ld)

    def test_conventional_mode_always_searches(self):
        conv = PairPredictor(StoreSetConfig(clear_interval=0), SimStats(),
                             PredictorMode.CONVENTIONAL)
        ld = dyn_load(1)
        conv.on_load_dispatch(ld)
        assert conv.should_search(ld)


class TestAliasing:
    def test_real_tables_alias(self, predictor):
        # PCs constructed to share an SSIT index alias in the realistic
        # tables: training one trains the other.
        from repro.workload.synthetic import colliding_pc
        leader = 0x1000
        other = colliding_pc(leader, member=1)
        predictor.train_violation(leader, 0x2000)
        ld = dyn_load(1, pc=other)
        predictor.on_load_dispatch(ld)
        assert ld.predicted_dependent  # constructive interference

    def test_ideal_tables_do_not_alias(self):
        from repro.workload.synthetic import colliding_pc
        aggressive = PairPredictor(StoreSetConfig(clear_interval=0),
                                   SimStats(), PredictorMode.AGGRESSIVE)
        leader = 0x1000
        other = colliding_pc(leader, member=1)
        aggressive.train_violation(leader, 0x2000)
        ld = dyn_load(1, pc=other)
        aggressive.on_load_dispatch(ld)
        assert not ld.predicted_dependent


class TestClearing:
    def test_clear_forgets(self):
        predictor = PairPredictor(StoreSetConfig(clear_interval=100),
                                  SimStats(), PredictorMode.PAIR)
        predictor.train_violation(0x1000, 0x2000)
        predictor.maybe_clear(committed=100)
        ld = dyn_load(1, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert not ld.predicted_dependent

    def test_no_clear_before_interval(self):
        predictor = PairPredictor(StoreSetConfig(clear_interval=100),
                                  SimStats(), PredictorMode.PAIR)
        predictor.train_violation(0x1000, 0x2000)
        predictor.maybe_clear(committed=99)
        ld = dyn_load(1, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert ld.predicted_dependent

    def test_interval_zero_disables(self):
        predictor = PairPredictor(StoreSetConfig(clear_interval=0),
                                  SimStats(), PredictorMode.PAIR)
        predictor.train_violation(0x1000, 0x2000)
        predictor.maybe_clear(committed=10 ** 9)
        ld = dyn_load(1, pc=0x1000)
        predictor.on_load_dispatch(ld)
        assert ld.predicted_dependent

    def test_interval_from_config(self):
        config = StoreSetConfig(clear_interval=77)
        predictor = PairPredictor(config, SimStats(), PredictorMode.PAIR)
        assert predictor.clear_interval == 77


class TestFactoryAndPerfect:
    def test_factory_modes(self):
        stats = SimStats()
        assert isinstance(make_predictor(PredictorMode.PERFECT,
                                         StoreSetConfig(), stats),
                          PerfectPredictor)
        assert isinstance(make_predictor(PredictorMode.PAIR,
                                         StoreSetConfig(), stats),
                          PairPredictor)

    def test_perfect_is_stateless(self):
        perfect = PerfectPredictor(StoreSetConfig(), SimStats())
        ld = dyn_load(1)
        perfect.train_violation(0x1000, 0x2000)
        perfect.on_load_dispatch(ld)
        assert not ld.predicted_dependent
        assert not perfect.should_search(ld)

    def test_pair_predictor_rejects_perfect_mode(self):
        with pytest.raises(ValueError):
            PairPredictor(StoreSetConfig(), SimStats(),
                          PredictorMode.PERFECT)
