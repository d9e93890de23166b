"""End-to-end tests of the out-of-order core on hand-built micro-traces."""

from repro.config import base_machine
from repro.pipeline.processor import Processor, simulate
from repro.workload.isa import Instruction, OpClass
from repro.workload.trace import Trace
from tests.conftest import alu, branch, filler, load, store


def run(insts, machine=None, **kwargs):
    return simulate(Trace(insts, name="micro"),
                    machine if machine is not None else base_machine(),
                    **kwargs)


class TestThroughput:
    def test_independent_alus_reach_full_width(self):
        result = run(filler(4000))
        assert result.ipc > 7.0

    def test_serial_chain_is_one_ipc(self):
        insts = [alu(pc=4 * i, dest=1, srcs=(1,)) for i in range(2000)]
        result = run(insts)
        assert 0.8 < result.ipc < 1.2

    def test_commit_count_matches_trace(self):
        result = run(filler(500))
        assert result.stats.committed == 500

    def test_multiply_latency_visible(self):
        chain_mul = [Instruction(pc=4 * i, op=OpClass.INT_MUL, dest=1,
                                 srcs=(1,)) for i in range(500)]
        mul_result = run(chain_mul)
        # A serial MUL chain runs at ~1/3 IPC (3-cycle latency).
        assert mul_result.ipc < 0.5


class TestBranches:
    def test_predictable_branches_are_cheap(self):
        insts = []
        for i in range(300):
            insts.extend(filler(7, base_pc=0x1000 + 64 * i))
            insts.append(branch(pc=0x1000 + 64 * i + 28, taken=True))
        well_predicted = run(insts).ipc
        assert well_predicted > 4.0

    def test_mispredicted_branches_cost_cycles(self):
        import random
        rng = random.Random(0)
        insts = []
        for i in range(300):
            insts.extend(filler(7, base_pc=0x1000 + 64 * i))
            insts.append(branch(pc=0x1000 + 64 * i + 28,
                                taken=rng.random() < 0.5))
        noisy = run(insts)
        assert noisy.stats.branch_mispredicts > 50
        assert noisy.ipc < 2.5


class TestMemoryFlow:
    def test_load_latency_on_chain(self):
        # load -> dependent ALU chain: each pair costs ~load latency.
        insts = []
        for i in range(400):
            insts.append(load(0x1000, pc=0x100 + 8 * i, dest=1, srcs=(1,)))
        result = run(insts)
        # Serial same-address loads: ~2-cycle L1 hits chained through
        # the address register.
        assert result.ipc < 0.6

    def test_store_to_load_forwarding_works(self):
        insts = []
        for i in range(300):
            addr = 0x2000 + 8 * (i % 16)
            insts.append(store(addr, pc=0x100, srcs=()))
            insts.append(load(addr, pc=0x104, dest=(i % 4) + 1))
            insts.extend(filler(4, base_pc=0x200 + 64 * i))
        result = run(insts)
        assert result.stats.forwarded_loads > 100
        assert result.stats.store_load_squashes <= 2

    def test_cache_misses_slow_execution(self):
        hits = [load(0x1000 + 8 * (i % 64), pc=0x100 + 4 * (i % 16),
                     dest=(i % 8) + 1) for i in range(1000)]
        # Cold region marked so warming skips it: every access misses.
        miss_insts = [load(0x40000000 + 64 * i, pc=0x100 + 4 * (i % 16),
                           dest=(i % 8) + 1) for i in range(1000)]
        fast = run(hits).ipc
        slow = simulate(Trace(miss_insts, name="misses",
                              cold_regions=[(0x40000000, 0x50000000)]),
                        base_machine()).ipc
        assert slow < fast

    def test_lq_capacity_throttles(self):
        # One long-miss load per group backs up a tiny LQ.
        insts = []
        for i in range(200):
            insts.append(load(0x40000000 + 64 * i, pc=0x100, dest=1))
            insts.extend(filler(7, base_pc=0x200 + 64 * i))
        small = simulate(Trace(insts, cold_regions=[(0x40000000, 0x50000000)]),
                         base_machine(lq_entries=4))
        big = simulate(Trace(insts, cold_regions=[(0x40000000, 0x50000000)]),
                       base_machine(lq_entries=64))
        assert big.ipc > small.ipc
        assert small.stats.lq_full_stalls > 0


class TestViolationRecovery:
    def test_premature_load_squashes_and_replays(self):
        # A store whose data depends on a long chain, followed by a
        # same-address load that issues first: conventional detection
        # squashes the load at store execute, and the replay completes.
        insts = []
        base_pc = 0x1000
        for i in range(50):
            chain = [alu(pc=base_pc + 4 * j, dest=9, srcs=(9,))
                     for j in range(8)]
            insts.extend(chain)
            addr = 0x3000 + 8 * i
            insts.append(store(addr, pc=base_pc + 0x40, srcs=(9,)))
            insts.append(load(addr, pc=base_pc + 0x44, dest=1))
            insts.extend(filler(4, base_pc=base_pc + 0x50))
        result = run(insts, warm=False)   # unwarmed predictor
        assert result.stats.committed == len(insts)
        assert result.stats.store_load_squashes >= 1

    def test_violation_trains_store_set(self):
        insts = []
        for i in range(60):
            base_pc = 0x1000
            chain = [alu(pc=base_pc + 4 * j, dest=9, srcs=(9,))
                     for j in range(8)]
            insts.extend(chain)
            addr = 0x3000 + 8 * i
            insts.append(store(addr, pc=base_pc + 0x40, srcs=(9,)))
            insts.append(load(addr, pc=base_pc + 0x44, dest=1))
        result = run(insts, warm=False)
        # One violation trains the (static) pair; later instances wait
        # and forward instead of squashing over and over.
        assert 1 <= result.stats.store_load_squashes <= 5
        assert result.stats.forwarded_loads > 20


class TestDeterminism:
    def test_same_trace_same_cycles(self):
        from repro.workload.synthetic import generate_trace
        trace = generate_trace("gzip", n_instructions=1500)
        a = simulate(trace, base_machine())
        b = simulate(trace, base_machine())
        assert a.stats.cycles == b.stats.cycles
        assert vars(a.stats) == vars(b.stats)


class TestWarming:
    def test_warm_skips_cold_regions(self):
        insts = [load(0x40000000 + 64 * i, pc=0x100 + 4 * i, dest=1)
                 for i in range(50)]
        trace = Trace(insts, cold_regions=[(0x40000000, 0x50000000)])
        processor = Processor(base_machine())
        processor.warm_caches(trace)
        assert not processor.memory.l1d.contains(0x40000000)

    def test_warm_fills_hot_data_and_code(self):
        insts = [load(0x1000, pc=0x100, dest=1)]
        trace = Trace(insts)
        processor = Processor(base_machine())
        processor.warm_caches(trace)
        assert processor.memory.l1d.contains(0x1000)
        assert processor.memory.l1i.contains(0x100)

    def test_warm_predictor_trains_close_pairs(self):
        insts = [store(0x2000, pc=0x500),
                 load(0x2000, pc=0x504, dest=1)]
        trace = Trace(insts)
        processor = Processor(base_machine())
        processor.warm_predictor(trace)
        tables = processor.lsq.predictor.tables
        assert tables.ssid_for(0x504) is not None
        assert tables.ssid_for(0x504) == tables.ssid_for(0x500)

    def test_warm_predictor_ignores_distant_pairs(self):
        insts = ([store(0x2000, pc=0x500)] + filler(400)
                 + [load(0x2000, pc=0x504, dest=1)])
        processor = Processor(base_machine())
        processor.warm_predictor(Trace(insts))
        assert processor.lsq.predictor.tables.ssid_for(0x504) is None


class TestEdgeCases:
    def test_empty_trace(self):
        result = run([])
        assert result.stats.committed == 0

    def test_single_instruction(self):
        result = run([alu()])
        assert result.stats.committed == 1

    def test_max_cycles_cutoff(self):
        result = run(filler(5000), max_cycles=50)
        assert result.stats.cycles <= 50
        assert result.stats.committed < 5000


class TestRetention:
    def test_retired_instructions_are_released(self, monkeypatch):
        """Committed instructions must not stay reachable through
        previous-writer links or already-woken consumer lists: the
        number left alive after a run is bounded by the window size,
        not the trace length."""
        import gc

        from repro.pipeline import processor as reference_engine
        from repro.pipeline.dyninst import DynInst, InstState
        from repro.workload.synthetic import generate_trace

        def live():
            gc.collect()
            return sum(1 for obj in gc.get_objects()
                       if type(obj) is DynInst)

        machine = base_machine()
        trace = generate_trace("mgrid", n_instructions=8000)
        before = live()
        processor = Processor(machine)
        processor.run(trace)
        assert live() - before <= 2 * machine.core.rob_entries

        # Check the links themselves too: a run that records every
        # instruction it creates.
        created = []

        def recording(*args):
            inst = DynInst(*args)
            created.append(inst)
            return inst

        monkeypatch.setattr(reference_engine, "DynInst", recording)
        assert Processor(machine).run(trace).stats.committed == 8000
        committed = [inst for inst in created
                     if inst.state is InstState.COMMITTED]
        assert len(committed) == 8000
        assert all(inst.prev_writer is None and not inst.consumers
                   for inst in committed)
