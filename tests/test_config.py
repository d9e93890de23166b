"""Unit tests for repro.config."""

import pytest
from dataclasses import replace

from repro.config import (
    AllocationPolicy,
    BranchPredictorConfig,
    CacheConfig,
    ContentionPolicy,
    CoreConfig,
    LoadQueueSearchMode,
    LsqConfig,
    MachineConfig,
    MemoryConfig,
    PredictorMode,
    StoreSetConfig,
    base_machine,
    conventional_lsq,
    full_techniques_lsq,
    scaled_machine,
    segmented_lsq,
    techniques_lsq,
)


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig(size_bytes=64 * 1024, associativity=2,
                            block_bytes=32, hit_latency=2)
        assert cache.num_sets == 1024

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=48 * 1024, associativity=2,
                        block_bytes=32, hit_latency=2)

    def test_rejects_misaligned_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3,
                        block_bytes=32, hit_latency=2)

    def test_rejects_zero_ports(self):
        # A zero-port cache would still admit one access per cycle: the
        # port meter treats every new cycle as free.
        for ports in (0, -1):
            with pytest.raises(ValueError):
                CacheConfig(size_bytes=64 * 1024, associativity=2,
                            block_bytes=32, hit_latency=2, ports=ports)


class TestStoreSetConfig:
    def test_defaults_match_table1(self):
        config = StoreSetConfig()
        assert config.ssit_entries == 4096
        assert config.lfst_entries == 128
        assert config.counter_bits == 3

    def test_counter_max(self):
        assert StoreSetConfig(counter_bits=3).counter_max == 7
        assert StoreSetConfig(counter_bits=1).counter_max == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StoreSetConfig(ssit_entries=1000)

    def test_rejects_bad_counter_bits(self):
        with pytest.raises(ValueError):
            StoreSetConfig(counter_bits=0)
        with pytest.raises(ValueError):
            StoreSetConfig(counter_bits=9)


class TestLsqConfig:
    def test_defaults_are_base_case(self):
        lsq = LsqConfig()
        assert lsq.lq_entries == 32
        assert lsq.sq_entries == 32
        assert lsq.search_ports == 2
        assert lsq.predictor is PredictorMode.CONVENTIONAL
        assert not lsq.segmented

    def test_effective_entries_flat(self):
        lsq = LsqConfig(lq_entries=32, sq_entries=48)
        assert lsq.effective_lq_entries == 32
        assert lsq.effective_sq_entries == 48

    def test_effective_entries_segmented(self):
        lsq = LsqConfig(segments=4, segment_entries=28)
        assert lsq.effective_lq_entries == 112
        assert lsq.effective_sq_entries == 112

    def test_detection_point_follows_predictor(self):
        assert not LsqConfig(predictor=PredictorMode.CONVENTIONAL
                             ).detection_at_commit
        assert LsqConfig(predictor=PredictorMode.PAIR).detection_at_commit
        assert LsqConfig(predictor=PredictorMode.AGGRESSIVE
                         ).detection_at_commit
        assert not LsqConfig(predictor=PredictorMode.PERFECT
                             ).detection_at_commit

    def test_detection_point_override(self):
        lsq = LsqConfig(predictor=PredictorMode.PAIR, detect_at_commit=False)
        assert not lsq.detection_at_commit
        lsq = LsqConfig(detect_at_commit=True)
        assert lsq.detection_at_commit

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            LsqConfig(search_ports=0)

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValueError):
            LsqConfig(load_buffer_entries=-1)

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            LsqConfig(segments=0)


class TestCoreConfig:
    def test_table1_defaults(self):
        core = CoreConfig()
        assert core.issue_width == 8
        assert core.rob_entries == 256
        assert core.issue_queue_entries == 64
        assert core.int_units == 8
        assert core.fp_units == 8
        assert core.branch_mispredict_penalty == 14

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)


class TestPresets:
    def test_base_machine_is_table1(self):
        machine = base_machine()
        assert machine.core.issue_width == 8
        assert machine.memory.l1d.size_bytes == 64 * 1024
        assert machine.memory.l1d.ports == 4
        assert machine.memory.l2.size_bytes == 2 * 1024 * 1024
        assert machine.memory.memory_latency == 150
        assert machine.lsq.search_ports == 2

    def test_base_machine_lsq_overrides(self):
        machine = base_machine(search_ports=1,
                               predictor=PredictorMode.PAIR)
        assert machine.lsq.search_ports == 1
        assert machine.lsq.predictor is PredictorMode.PAIR

    def test_scaled_machine(self):
        machine = scaled_machine()
        assert machine.core.issue_width == 12
        assert machine.core.issue_queue_entries == 96
        assert machine.memory.l1d.hit_latency == 3
        assert machine.memory.l1i.hit_latency == 3
        # cache sizes unchanged
        assert machine.memory.l1d.size_bytes == 64 * 1024

    def test_conventional_lsq(self):
        lsq = conventional_lsq(ports=4)
        assert lsq.search_ports == 4
        assert lsq.predictor is PredictorMode.CONVENTIONAL
        assert lsq.lq_search is LoadQueueSearchMode.SEARCH_LQ

    def test_techniques_lsq(self):
        lsq = techniques_lsq(ports=1)
        assert lsq.predictor is PredictorMode.PAIR
        assert lsq.lq_search is LoadQueueSearchMode.LOAD_BUFFER
        assert lsq.load_buffer_entries == 2
        assert not lsq.segmented

    def test_segmented_lsq(self):
        lsq = segmented_lsq()
        assert lsq.segments == 4
        assert lsq.segment_entries == 28
        assert lsq.allocation is AllocationPolicy.SELF_CIRCULAR
        assert lsq.predictor is PredictorMode.CONVENTIONAL

    def test_full_techniques_lsq(self):
        lsq = full_techniques_lsq()
        assert lsq.segmented
        assert lsq.predictor is PredictorMode.PAIR
        assert lsq.lq_search is LoadQueueSearchMode.LOAD_BUFFER

    def test_with_lsq_returns_new_machine(self):
        machine = base_machine()
        other = machine.with_lsq(search_ports=1)
        assert machine.lsq.search_ports == 2
        assert other.lsq.search_ports == 1

    def test_with_core_returns_new_machine(self):
        machine = base_machine()
        other = machine.with_core(issue_width=4)
        assert machine.core.issue_width == 8
        assert other.core.issue_width == 4

    def test_machine_config_is_hashable(self):
        assert hash(base_machine()) == hash(base_machine())
        assert base_machine() == base_machine()
        assert base_machine(search_ports=1) != base_machine()
