"""Unit tests for the trace container and its binary format."""

import pytest

from repro.workload.isa import Instruction, OpClass
from repro.workload.trace import Trace, concatenate
from tests.conftest import alu, branch, load, store


class TestTraceContainer:
    def test_len_and_indexing(self):
        trace = Trace([alu(pc=0), alu(pc=4), alu(pc=8)])
        assert len(trace) == 3
        assert trace[1].pc == 4

    def test_slicing_returns_trace(self):
        trace = Trace([alu(pc=4 * i) for i in range(10)], name="t")
        sub = trace[2:5]
        assert isinstance(sub, Trace)
        assert len(sub) == 3
        assert sub.name == "t"

    def test_iteration(self):
        insts = [alu(pc=4 * i) for i in range(5)]
        trace = Trace(insts)
        assert list(trace) == insts

    def test_stats(self):
        trace = Trace([alu(), load(0x100), load(0x108), store(0x100),
                       branch()])
        stats = trace.stats()
        assert stats.instructions == 5
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.branches == 1
        assert stats.load_fraction == pytest.approx(0.4)
        assert stats.store_fraction == pytest.approx(0.2)
        assert stats.branch_fraction == pytest.approx(0.2)

    def test_fp_stats(self):
        trace = Trace([
            Instruction(pc=0, op=OpClass.FP_ALU, dest=40),
            Instruction(pc=4, op=OpClass.FP_LOAD, dest=41, addr=8),
            alu(),
        ])
        assert trace.stats().fp_ops == 2

    def test_cold_regions(self):
        trace = Trace([alu()], cold_regions=[(0x1000, 0x2000)])
        assert trace.is_cold_address(0x1000)
        assert trace.is_cold_address(0x1fff)
        assert not trace.is_cold_address(0x2000)
        assert not trace.is_cold_address(0x0fff)

    def test_slices_keep_cold_regions(self):
        trace = Trace([alu(), alu()], cold_regions=[(0, 10)])
        assert trace[:1].is_cold_address(5)

    def test_concatenate(self):
        a = Trace([alu(pc=0)])
        b = Trace([alu(pc=4), alu(pc=8)])
        joined = concatenate([a, b], name="joined")
        assert len(joined) == 3
        assert joined.name == "joined"


class TestSerialisation:
    def test_roundtrip(self, tmp_path):
        insts = [
            alu(pc=0x100, dest=3, srcs=(1, 2)),
            load(0xDEADBEE8, pc=0x104, dest=4, srcs=(3,)),
            store(0x1234, pc=0x108, srcs=(4, 5)),
            branch(pc=0x10C, taken=True, target=0x100, srcs=(4,)),
            Instruction(pc=0x110, op=OpClass.FP_MUL, dest=40, srcs=(41, 42)),
        ]
        trace = Trace(insts, name="roundtrip",
                      cold_regions=[(0x1000, 0x2000)])
        path = tmp_path / "t.lsqtrace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "roundtrip"
        assert loaded.cold_regions == ((0x1000, 0x2000),)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a == b

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.lsqtrace"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not an .lsqtrace"):
            Trace.load(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "cut.lsqtrace"
        Trace([alu(pc=4 * i) for i in range(3)], name="cut").save(path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        with pytest.raises(ValueError,
                           match=r"cut\.lsqtrace: truncated record 2 of 3"):
            Trace.load(path)
        path.write_bytes(whole[:5])
        with pytest.raises(ValueError,
                           match=r"cut\.lsqtrace: truncated header"):
            Trace.load(path)

    def test_rejects_too_many_sources(self, tmp_path):
        trace = Trace([Instruction(pc=0, op=OpClass.INT_ALU, dest=1,
                                   srcs=(1, 2, 3, 4))])
        with pytest.raises(ValueError, match="at most 3"):
            trace.save(tmp_path / "t.lsqtrace")

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = Trace([], name="empty")
        path = tmp_path / "e.lsqtrace"
        trace.save(path)
        assert len(Trace.load(path)) == 0
