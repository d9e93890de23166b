"""Tests for the hot-path overhaul: bounded memory, O(1) counters, the
candidate index, search itineraries, first-slot admission, the perf
baseline, and SIM-H.

The golden-digest suite (``test_golden_parity.py``) proves the indexed
rewrite is *bit-identical*; the tests here pin the host-side contracts
the rewrite introduced — the live window stays bounded, the incremental
counters never drift from a recount, the granule index tracks
allocate/commit/squash exactly, a load's links and the port calendar's
horizon give the same admission answers as the full search paths, and
the committed perf baseline's report format feeds the regression gate.
"""

import random

from repro.config import AllocationPolicy, LsqConfig, MemoryConfig, \
    StoreSetConfig
from repro.core.load_buffer import LoadBuffer
from repro.core.lsq import LoadResult, LoadStoreQueue, StoreResult
from repro.core.queues import GRANULE_SHIFT, PortCalendar, SegmentedQueue
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.dyninst import DynInst
from repro.stats.counters import SimStats
from tests.conftest import load, store


def make_entry(seq, addr=None, is_store=False, size=8):
    inst = (store(addr if addr is not None else 8 * seq, pc=4 * seq,
                  size=size)
            if is_store else
            load(addr if addr is not None else 8 * seq, pc=4 * seq,
                 size=size))
    return DynInst(seq, seq, inst)


def make_queue(segments=4, entries=4,
               policy=AllocationPolicy.SELF_CIRCULAR):
    return SegmentedQueue("Q", segments, entries, policy)


# ---------------------------------------------------------------------------
# bounded memory: the live window never outgrows occupancy
# ---------------------------------------------------------------------------

class TestBoundedMemory:
    def test_order_stays_bounded_over_long_run(self):
        """Regression: ``_order`` used to grow unboundedly (commit moved
        a head cursor instead of releasing storage)."""
        q = make_queue(segments=2, entries=4)
        seq = 0
        for __ in range(200):
            while q.can_allocate():
                q.allocate(make_entry(seq))
                seq += 1
            while not q.empty:
                q.commit_head(q.oldest)
            assert len(q._order) <= q.capacity
        assert len(q._order) == 0
        assert q._granules == {}

    def test_order_bounded_under_squash_churn(self):
        rng = random.Random(7)
        q = make_queue(segments=4, entries=2)
        seq = 0
        for __ in range(500):
            action = rng.random()
            if action < 0.5 and q.can_allocate():
                q.allocate(make_entry(seq, addr=8 * (seq % 16)))
                seq += 1
            elif action < 0.75 and not q.empty:
                q.commit_head(q.oldest)
            elif not q.empty:
                victim = rng.choice(list(q.entries())).seq
                for inst in q.squash_from(victim):
                    inst.state = inst.state  # squashed list only
            assert len(q._order) <= q.capacity
            assert len(q._order) == len(q)


# ---------------------------------------------------------------------------
# O(1) counters match a recount
# ---------------------------------------------------------------------------

class TestIncrementalCounters:
    def test_counters_match_recount_under_churn(self):
        rng = random.Random(11)
        q = make_queue(segments=4, entries=3)
        seq = 0
        for __ in range(600):
            action = rng.random()
            if action < 0.55 and q.can_allocate():
                q.allocate(make_entry(seq, addr=8 * (seq % 8),
                                      is_store=bool(seq % 3 == 0)))
                seq += 1
            elif action < 0.8 and not q.empty:
                q.commit_head(q.oldest)
            elif not q.empty:
                q.squash_from(rng.choice(list(q.entries())).seq)
            live = list(q.entries())
            assert q.live_loads == sum(1 for e in live if e.is_load)
            assert q.occupied_segments() == sum(
                1 for seg in q.segment_contents() if seg)

    def test_load_buffer_len_is_incremental(self):
        buf = LoadBuffer(3)
        loads = [make_entry(i) for i in range(3)]
        for i, entry in enumerate(loads):
            buf.insert(entry)
            assert len(buf) == i + 1
        assert buf.full
        buf.release(loads[1])
        assert len(buf) == 2 and not buf.full
        buf.release(loads[1])  # double release is a no-op
        assert len(buf) == 2
        buf.squash_from(loads[2].seq)
        assert len(buf) == 1
        assert len(buf) == sum(1 for s in buf.slots() if s is not None)


# ---------------------------------------------------------------------------
# search itineraries and the candidate index
# ---------------------------------------------------------------------------

class TestPathsAndIndex:
    def test_paths_agree_with_reference_plans(self):
        rng = random.Random(3)
        for segments, entries, policy in (
                (4, 2, AllocationPolicy.SELF_CIRCULAR),
                (4, 2, AllocationPolicy.NO_SELF_CIRCULAR),
                (1, 8, AllocationPolicy.SELF_CIRCULAR)):
            q = make_queue(segments=segments, entries=entries,
                           policy=policy)
            seq = 0
            for __ in range(300):
                action = rng.random()
                if action < 0.5 and q.can_allocate():
                    q.allocate(make_entry(seq))
                    seq += 1
                elif action < 0.8 and not q.empty:
                    q.commit_head(q.oldest)
                elif not q.empty:
                    q.squash_from(rng.choice(list(q.entries())).seq)
                probe = seq - rng.randrange(0, q.capacity + 1)
                backward = q.backward_path(probe)
                forward = q.forward_path(probe)
                assert backward == [
                    segment for segment, __e in q.backward_plan(probe)]
                assert forward == [
                    segment for segment, __e in q.forward_plan(probe)]
                # The head store admission checks before building a path
                # (loads read theirs from links, see TestFirstSlotLinks).
                assert q.forward_head(probe) == \
                    (forward[0] if forward else -1)

    def test_granule_index_tracks_membership_exactly(self):
        rng = random.Random(5)
        q = make_queue(segments=2, entries=4)
        seq = 0
        for __ in range(400):
            action = rng.random()
            if action < 0.5 and q.can_allocate():
                q.allocate(make_entry(seq, addr=4 * (seq % 10),
                                      size=rng.choice((4, 8, 16))))
                seq += 1
            elif action < 0.75 and not q.empty:
                q.commit_head(q.oldest)
            elif not q.empty:
                q.squash_from(rng.choice(list(q.entries())).seq)
            live = list(q.entries())
            # Every bucket is seq-sorted and holds only live entries
            # that actually touch the granule.
            for granule, bucket in q._granules.items():
                seqs = [e.seq for e in bucket]
                assert seqs == sorted(seqs)
                for e in bucket:
                    assert e in live
                    first = e.addr >> GRANULE_SHIFT
                    last = (e.addr + e.size - 1) >> GRANULE_SHIFT
                    assert first <= granule <= last
            # ...and every live entry is present in all its granules.
            for e in live:
                for granule in range(e.addr >> GRANULE_SHIFT,
                                     ((e.addr + e.size - 1)
                                      >> GRANULE_SHIFT) + 1):
                    assert e in q._granules[granule]

    def test_candidate_lists_cover_all_overlaps(self):
        q = make_queue(segments=2, entries=4)
        entries = [make_entry(0, addr=0, size=8),
                   make_entry(1, addr=6, size=4),
                   make_entry(2, addr=64, size=8)]
        for e in entries:
            q.allocate(e)
        probe = make_entry(9, addr=4, size=8)
        found = {e.seq for bucket in q.candidate_lists(4, 8)
                 for e in bucket}
        overlapping = {e.seq for e in entries if e.overlaps(probe)}
        assert overlapping <= found
        assert 2 not in found  # far-away granule is never visited

    def test_entries_is_zero_copy_program_order(self):
        q = make_queue(segments=2, entries=2)
        made = [make_entry(i) for i in range(3)]
        for e in made:
            q.allocate(e)
        view = q.entries()
        assert not isinstance(view, list)  # regression: was a fresh slice
        assert list(view) == made
        q.commit_head(made[0])
        q.squash_from(made[2].seq)
        assert list(q.entries()) == [made[1]]


# ---------------------------------------------------------------------------
# first-slot admission: load links and the port-calendar horizon
# ---------------------------------------------------------------------------

def link_slot(link):
    """First port slot a load reads from one of its links."""
    return link.lsq_segment if link is not None else -1


class TestFirstSlotLinks:
    """A load's links give the first segment of each search path."""

    @staticmethod
    def drive(lsq, rng, steps):
        """Random dispatch/execute/commit/squash in program order; yields
        after every step."""
        window = []                      # live memory ops, program order
        seq = 0
        cycle = 0
        for __ in range(steps):
            cycle += 10                  # fresh cycle: every port is free
            action = rng.random()
            if action < 0.45:
                inst = make_entry(seq, addr=8 * rng.randrange(6),
                                  is_store=rng.random() < 0.4)
                if lsq.can_allocate(inst):
                    lsq.allocate(inst)
                    window.append(inst)
                    seq += 1
            elif action < 0.6 and window:
                inst = rng.choice(window)
                if inst.is_load and not inst.mem_executed:
                    assert isinstance(lsq.try_execute_load(inst, cycle),
                                      LoadResult)
                elif inst.is_store and not inst.mem_executed:
                    assert isinstance(lsq.try_execute_store(inst, cycle),
                                      StoreResult)
            elif action < 0.85 and window:
                inst = window.pop(0)
                if inst.is_load:
                    if not inst.mem_executed:
                        lsq.try_execute_load(inst, cycle)
                    lsq.commit_load(inst)
                else:
                    if not inst.mem_executed:
                        lsq.try_execute_store(inst, cycle)
                    lsq.try_commit_store(inst, cycle + 1)
            elif window:
                cut = rng.choice(window).seq
                lsq.squash_from(cut)
                window = [inst for inst in window if inst.seq < cut]
            yield window

    def test_links_give_the_first_slot_of_each_path(self):
        rng = random.Random(11)
        probes = 0
        for segments, policy in ((1, AllocationPolicy.SELF_CIRCULAR),
                                 (4, AllocationPolicy.SELF_CIRCULAR),
                                 (4, AllocationPolicy.NO_SELF_CIRCULAR)):
            config = LsqConfig(lq_entries=8, sq_entries=8,
                               segments=segments, segment_entries=2,
                               allocation=policy)
            lsq = LoadStoreQueue(config, StoreSetConfig(clear_interval=0),
                                 MemoryHierarchy(MemoryConfig()),
                                 SimStats())
            for window in self.drive(lsq, rng, 600):
                for inst in window:
                    if not inst.is_load:
                        continue
                    if inst.mem_executed:
                        # Executed loads drop their links.
                        assert inst.older_store is None
                        assert inst.next_load is None
                        continue
                    backward = lsq.sq.backward_path(inst.seq)
                    forward = lsq.lq.forward_path(inst.seq)
                    assert link_slot(inst.older_store) == \
                        (backward[0] if backward else -1)
                    assert link_slot(inst.next_load) == \
                        (forward[0] if forward else -1)
                    probes += 1
        assert probes > 500

    def test_unified_queue_keeps_no_links(self):
        lsq = LoadStoreQueue(LsqConfig(unified_queue=True),
                             StoreSetConfig(clear_interval=0),
                             MemoryHierarchy(MemoryConfig()), SimStats())
        made = [make_entry(0, is_store=True), make_entry(1), make_entry(2)]
        for inst in made:
            lsq.allocate(inst)
        assert all(inst.older_store is None and inst.next_load is None
                   for inst in made)


class TestCalendarHorizon:
    def test_clear_horizon_decides_by_first_slot(self):
        rng = random.Random(13)
        decided = 0
        for ports in (1, 2, 3):
            cal = PortCalendar(ports)
            for cycle in range(400):
                cal.begin_cycle(cycle)
                for __ in range(rng.randrange(4)):
                    path = rng.sample(range(4), rng.randrange(1, 5))
                    if cal.check_path(path, cycle) == "ok":
                        cal.reserve_path(path, cycle)
                for __ in range(4):
                    path = rng.sample(range(4), rng.randrange(1, 5))
                    horizon_clear = not any(
                        cal.free_ports(segment, at) <= 0
                        for segment in range(4)
                        for at in range(cycle + 1, cycle + 5))
                    assert horizon_clear == (cal.last_exhausted <= cycle)
                    if horizon_clear:
                        first = ("ok" if cal.available(path[0], cycle)
                                 else "busy_now")
                        assert cal.check_path(path, cycle) == first
                        decided += 1
        assert decided > 100


# ---------------------------------------------------------------------------
# perf baseline report
# ---------------------------------------------------------------------------

class TestBaselineReport:
    def test_report_shape_and_self_diff(self):
        from repro.cli import PRESETS, base_machine
        from repro.harness.engine import Cell, baseline_report, diff_reports
        from dataclasses import replace

        machine = replace(base_machine(), lsq=PRESETS["conventional"](ports=2))
        cells = [Cell(benchmark="gzip", machine=machine, seed=0,
                      n_instructions=300, label="conventional-2p")]
        report = baseline_report(cells, reps=1)
        assert report["kind"] == "core-baseline"
        assert report["calibration_s"] > 0
        (row,) = report["cells"]
        for key in ("benchmark", "label", "seed", "n_instructions",
                    "ipc", "sim_s", "cycles_per_sec", "alloc_peak_kb",
                    "alloc_blocks"):
            assert key in row
        assert row["alloc_peak_kb"] > 0
        assert row["alloc_blocks"] > 0
        # The report feeds the same gate as sweep reports: a baseline
        # never regresses against itself, and a slower rerun is caught.
        assert diff_reports(report, report) == []
        slower = {"cells": [dict(row, sim_s=row["sim_s"] * 10)]}
        assert diff_reports(report, slower)

    def test_aggregate_wall_gates_the_total(self):
        from repro.harness.engine import diff_reports

        def cell(label, sim_s, ipc=1.0):
            return {"benchmark": "b", "label": label, "seed": 0,
                    "n_instructions": 100, "sim_s": sim_s, "ipc": ipc}

        old = {"cells": [cell("x", 0.10), cell("y", 0.10)]}
        # One cell +50%, the other -40%: per-cell flags it, but the
        # total (0.20s -> 0.21s) is inside the 20% budget.
        new = {"cells": [cell("x", 0.15), cell("y", 0.06)]}
        assert diff_reports(old, new)
        assert diff_reports(old, new, aggregate_wall=True) == []
        # A real slowdown still fails on the total...
        worse = {"cells": [cell("x", 0.15), cell("y", 0.15)]}
        (problem,) = diff_reports(old, worse, aggregate_wall=True)
        assert problem.startswith("total:")
        # ...and IPC drift stays per-cell under aggregation.
        drift = {"cells": [cell("x", 0.10, ipc=1.5), cell("y", 0.10)]}
        assert diff_reports(old, drift, aggregate_wall=True)


# ---------------------------------------------------------------------------
# SIM-H: hotpath allocation discipline
# ---------------------------------------------------------------------------

class TestHotpathRule:
    @staticmethod
    def _lint(tmp_path, source):
        import textwrap

        from repro.analyze import analyze_paths
        (tmp_path / "mod.py").write_text(textwrap.dedent(source))
        return analyze_paths([str(tmp_path)], root=str(tmp_path))

    def test_comprehensions_in_hotpath_flagged(self, tmp_path):
        findings = self._lint(tmp_path, """
            from repro.core.hotpath import hotpath

            @hotpath
            def churn(xs):
                ys = [x + 1 for x in xs]
                zs = {x for x in xs}
                ds = {x: 1 for x in xs}
                return ys, zs, ds
        """)
        assert [f.rule for f in findings] == ["SIM-H001"] * 3

    def test_generator_expression_flagged(self, tmp_path):
        findings = self._lint(tmp_path, """
            from repro.core import hotpath

            @hotpath.hotpath
            def churn(xs):
                return sum(x for x in xs)
        """)
        assert [f.rule for f in findings] == ["SIM-H002"]

    def test_undecorated_function_clean(self, tmp_path):
        findings = self._lint(tmp_path, """
            def cold(xs):
                return [x for x in xs], sum(x for x in xs)
        """)
        assert findings == []

    def test_suppression_works(self, tmp_path):
        findings = self._lint(tmp_path, """
            from repro.core.hotpath import hotpath

            @hotpath
            def justified(xs):
                # one allocation per squash, not per cycle:
                return [x for x in xs]  # sim-lint: ignore[SIM-H001]
        """)
        assert findings == []

    def test_hot_modules_are_simh_clean(self):
        """The simulator's own decorated hot paths must stay clean."""
        import os

        import repro
        from repro.analyze import analyze_paths
        tree = os.path.dirname(repro.__file__)
        findings = [f for f in analyze_paths([tree])
                    if f.rule.startswith("SIM-H")]
        assert findings == []
