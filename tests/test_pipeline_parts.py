"""Unit tests for the small pipeline structures: branch predictor, ROB,
issue queue, functional units, register file, DynInst."""

import pytest

from repro.config import BranchPredictorConfig
from repro.pipeline.branch_predictor import HybridBranchPredictor
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.functional_units import FunctionalUnits
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.regfile import RegisterFile
from repro.pipeline.rob import ReorderBuffer
from repro.workload.isa import OpClass
from tests.conftest import alu, load


def dyn(seq, inst=None):
    return DynInst(seq, seq, inst if inst is not None else alu(pc=4 * seq))


class TestBranchPredictor:
    def make(self):
        return HybridBranchPredictor(BranchPredictorConfig())

    def test_learns_always_taken(self):
        bp = self.make()
        for _ in range(20):
            bp.predict_and_update(0x100, True)
        assert bp.predict_and_update(0x100, True)

    def test_learns_alternating_pattern(self):
        bp = self.make()
        outcome = True
        for _ in range(200):
            bp.predict_and_update(0x200, outcome)
            outcome = not outcome
        correct = sum(bp.predict_and_update(0x200, (i % 2 == 0))
                      for i in range(40))
        assert correct >= 35  # history-based components capture it

    def test_mispredict_stats(self):
        bp = self.make()
        for i in range(100):
            bp.predict_and_update(0x300, i % 7 == 0)
        assert bp.stats.predictions == 100
        assert 0 < bp.stats.mispredictions < 100
        assert 0 < bp.stats.mispredict_rate < 1

    def test_loop_backedge_is_predictable(self):
        bp = self.make()
        mispredicts = 0
        for _ in range(30):           # 30 loops of trip 8
            for i in range(8):
                taken = i != 7
                if not bp.predict_and_update(0x400, taken):
                    mispredicts += 1
        assert mispredicts < 60       # much better than always-taken's 30+


class TestReorderBuffer:
    def test_dispatch_commit_in_order(self):
        rob = ReorderBuffer(4)
        a, b = dyn(1), dyn(2)
        rob.dispatch(a)
        rob.dispatch(b)
        assert rob.head is a
        a.state = InstState.COMPLETE
        assert rob.commit_head() is a
        assert rob.head is b

    def test_full(self):
        rob = ReorderBuffer(2)
        rob.dispatch(dyn(1))
        rob.dispatch(dyn(2))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.dispatch(dyn(3))

    def test_squash_from_returns_youngest_first(self):
        rob = ReorderBuffer(8)
        insts = [dyn(i) for i in range(1, 6)]
        for inst in insts:
            rob.dispatch(inst)
        squashed = rob.squash_from(3)
        assert [i.seq for i in squashed] == [5, 4, 3]
        assert all(i.squashed for i in squashed)
        assert len(rob) == 2

    def test_squash_nothing(self):
        rob = ReorderBuffer(4)
        rob.dispatch(dyn(1))
        assert rob.squash_from(10) == []

    def test_commit_marks_committed(self):
        rob = ReorderBuffer(2)
        inst = dyn(1)
        rob.dispatch(inst)
        rob.commit_head()
        assert inst.state is InstState.COMMITTED


class TestIssueQueue:
    def test_ready_at_dispatch(self):
        iq = IssueQueue(4)
        inst = dyn(1)
        iq.dispatch(inst)
        assert iq.pop_ready() is inst

    def test_not_ready_until_woken(self):
        iq = IssueQueue(4)
        inst = dyn(1)
        inst.pending_sources = 1
        iq.dispatch(inst)
        assert iq.pop_ready() is None
        inst.pending_sources = 0
        iq.wake(inst)
        assert iq.pop_ready() is inst

    def test_oldest_first(self):
        iq = IssueQueue(4)
        younger, older = dyn(5), dyn(2)
        iq.dispatch(younger)
        iq.dispatch(older)
        assert iq.pop_ready() is older

    def test_squashed_entries_skipped(self):
        iq = IssueQueue(4)
        inst = dyn(1)
        iq.dispatch(inst)
        inst.state = InstState.SQUASHED
        assert iq.pop_ready() is None

    def test_capacity(self):
        iq = IssueQueue(2)
        iq.dispatch(dyn(1))
        iq.dispatch(dyn(2))
        assert iq.full
        with pytest.raises(RuntimeError):
            iq.dispatch(dyn(3))

    def test_release_and_squash_occupancy(self):
        iq = IssueQueue(4)
        iq.dispatch(dyn(1))
        iq.dispatch(dyn(2))
        iq.release()
        assert len(iq) == 1
        iq.squash(1)
        assert len(iq) == 0
        with pytest.raises(RuntimeError):
            iq.release()

    def test_unpop_restores(self):
        iq = IssueQueue(4)
        inst = dyn(1)
        iq.dispatch(inst)
        popped = iq.pop_ready()
        iq.unpop(popped)
        assert iq.pop_ready() is inst


class TestFunctionalUnits:
    def test_pool_selection(self):
        assert FunctionalUnits.pool_for(OpClass.INT_ALU) == "int"
        assert FunctionalUnits.pool_for(OpClass.LOAD) == "int"
        assert FunctionalUnits.pool_for(OpClass.FP_STORE) == "int"
        assert FunctionalUnits.pool_for(OpClass.BRANCH) == "int"
        assert FunctionalUnits.pool_for(OpClass.FP_ALU) == "fp"
        assert FunctionalUnits.pool_for(OpClass.FP_MUL) == "fp"

    def test_int_capacity_per_cycle(self):
        fus = FunctionalUnits(2, 2)
        assert fus.try_issue(OpClass.INT_ALU, 0)
        assert fus.try_issue(OpClass.LOAD, 0)
        assert not fus.try_issue(OpClass.INT_MUL, 0)
        assert fus.try_issue(OpClass.FP_ALU, 0)  # separate pool

    def test_capacity_resets(self):
        fus = FunctionalUnits(1, 1)
        assert fus.try_issue(OpClass.INT_ALU, 0)
        assert not fus.try_issue(OpClass.INT_ALU, 0)
        assert fus.try_issue(OpClass.INT_ALU, 1)


class TestRegisterFile:
    def test_free_list_accounting(self):
        rf = RegisterFile(34, 34)
        assert rf.can_rename(1)
        rf.rename(1)
        rf.rename(2)
        assert not rf.can_rename(3)
        rf.release(1)
        assert rf.can_rename(3)

    def test_fp_separate(self):
        rf = RegisterFile(33, 34)
        rf.rename(1)
        assert not rf.can_rename(2)
        assert rf.can_rename(40)   # FP register still free

    def test_no_reg_always_ok(self):
        from repro.workload.isa import NO_REG
        rf = RegisterFile(33, 33)
        rf.rename(1)
        assert rf.can_rename(NO_REG)
        rf.rename(NO_REG)          # no-op

    def test_exhaustion_raises(self):
        rf = RegisterFile(33, 33)
        rf.rename(1)
        with pytest.raises(RuntimeError):
            rf.rename(2)

    def test_requires_headroom(self):
        with pytest.raises(ValueError):
            RegisterFile(32, 356)


class TestDynInst:
    def test_initial_state(self):
        inst = dyn(7)
        assert inst.state is InstState.DISPATCHED
        assert not inst.issued
        assert not inst.complete
        assert not inst.squashed

    def test_state_predicates(self):
        inst = dyn(1)
        inst.state = InstState.ISSUED
        assert inst.issued and not inst.complete
        inst.state = InstState.COMPLETE
        assert inst.complete
        inst.state = InstState.SQUASHED
        assert inst.squashed

    def test_memory_properties(self):
        ld = DynInst(1, 0, load(0x40))
        assert ld.is_load and ld.is_memory
        assert ld.addr == 0x40

    def test_overlap_delegates(self):
        a = DynInst(1, 0, load(0x40))
        b = DynInst(2, 1, load(0x44))
        assert a.overlaps(b)
