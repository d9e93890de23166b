"""The ``backend=fast`` engine: one fused, batched cycle loop.

:class:`FastProcessor` replays the exact six-stage cycle of
:class:`repro.pipeline.processor.Processor` — commit, complete, memory,
issue, dispatch, fetch, occupancy sample — but flattens the per-stage
method calls into a single loop body with struct-of-arrays state on the
hot path:

* the memory stage keeps three parallel columns — ``array('q')`` seq
  and attempt-cycle columns plus an instruction list — instead of a
  list of ``[seq, inst, attempt]`` records, so retry scans touch packed
  integers and the common "not ripe yet" case never loads the object;
* the register scoreboard (last-writer tracking) is a dense
  64-slot list indexed by architectural register instead of a dict;
* data-cache port admission is mirrored once per cycle into a local
  ``d_free`` counter, so loads that would lose arbitration charge their
  ``dcache_port_stalls`` and retry without recomputing search paths
  (everything :meth:`~repro.core.lsq.LoadStoreQueue.try_execute_load`
  does before its own ``d_ports.available()`` check is pure);
* cycles in which no pipeline state can change are skipped in O(1) by
  an event horizon — the minimum over in-flight completion times,
  memory-stage retry times, the fetch stall, ``max_cycles`` and the
  deadlock watchdog — while the model is still charged for every
  skipped cycle exactly as the per-cycle loop would have charged it
  (blocked-load stalls, the dispatch first-blocker counter, queue
  occupancy integrals, NILP out-of-order residency).

Bit-identical :class:`~repro.stats.counters.SimStats` is the contract:
the 24-digest golden-parity suite, the litmus battery and the validate
oracle all run under ``backend=fast``, and the ``fast-parity`` CI job
diffs digests between backends on every preset.

Fallback: an attached checker, observer or pipeline tracer needs
per-cycle callbacks with complete per-object state, and a
fault-injection-patched LSQ changes semantics out from under the fused
loop — both route :meth:`FastProcessor.run` to the parent per-cycle
engine, which stays the reference implementation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.config import LoadQueueSearchMode, PredictorMode
from repro.core.hotpath import hotpath
from repro.core.load_buffer import LoadBuffer, NilpTracker
from repro.core.lsq import LoadStoreQueue, Retry, Violation
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.functional_units import _USES_FP_POOL
from repro.pipeline.processor import Processor, SimulationResult
from repro.workload.isa import NO_REG, NUM_ARCH_REGS, OP_FLAGS
from repro.workload.trace import Trace

#: Components any stage may touch directly (sim-lint SIM-M registry):
#: the observability layer, like stats/tracer, is write-from-anywhere.
SIM_LINT_INTERFACES = frozenset({"obs"})


def _lsq_is_patched(lsq: LoadStoreQueue) -> bool:
    """True when fault injection (or anything else) rebound LSQ behaviour.

    The fault harness patches bound methods onto LSQ *instances*
    (``lsq._sq_search = ...``), swaps ``lsq.nilp`` for a proxy, or wraps
    ``lsq.load_buffer.insert``.  Any of those invalidates the fused
    loop's assumptions, so the caller must fall back to the per-cycle
    engine.
    """
    # Order-insensitive existence check: "is any attribute a patched
    # callable" is the same answer in every iteration order.
    for value in vars(lsq).values():  # sim-lint: ignore[SIM-D002]
        if callable(value):
            return True
    if type(lsq.nilp) is not NilpTracker:
        return True
    if type(lsq.load_buffer) is not LoadBuffer:
        return True
    try:
        buffer_attrs = vars(lsq.load_buffer)
    except TypeError:
        return True
    for value in buffer_attrs.values():  # sim-lint: ignore[SIM-D002]
        if callable(value):
            return True
    return False


class FastProcessor(Processor):
    """Drop-in :class:`Processor` with the fused ``backend=fast`` loop.

    Construction is identical to the parent (the components themselves —
    LSQ, ROB, issue queue, memory hierarchy — are shared code); only the
    driver differs.  ``run()`` decides once, up front, whether the fast
    loop applies, so a single simulation never mixes engines.
    """

    def run(self, trace: Trace, max_cycles: Optional[int] = None,
            warm: bool = True) -> SimulationResult:
        """Simulate the whole trace (or until ``max_cycles``)."""
        if (self.checker is not None or self.obs is not None
                or self.tracer is not None
                or type(self.lsq) is not LoadStoreQueue
                or _lsq_is_patched(self.lsq)):
            # Checkers/observers/tracers need per-cycle callbacks; a
            # patched LSQ needs the reference semantics.  The parent
            # engine is bit-identical, just slower.
            return super().run(trace, max_cycles=max_cycles, warm=warm)
        if warm:
            self._warm(trace)
        self._trace = trace
        return self._fast_loop(trace, max_cycles)

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------

    def _warm(self, trace: Trace) -> None:
        """``warm_caches`` + ``warm_predictor`` fused into one pass.

        The two warmers touch disjoint state (memory hierarchy vs.
        dependence predictor) and each preserves its own access order
        under the fusion, so the result is bit-identical to the parent's
        two sequential passes at half the trace iterations.
        """
        memory = self.memory
        predictor = self.lsq.predictor
        is_cold = trace.is_cold_address
        seen_code: Set[int] = set()
        seen_data: Set[int] = set()
        recent_stores: Dict[int, Tuple[int, int]] = {}
        window = 256
        for index, inst in enumerate(trace):
            block = inst.pc >> 5
            if block not in seen_code:
                seen_code.add(block)
                memory.instruction_access(inst.pc)
            flags = OP_FLAGS[inst.op]
            if flags[2] and not is_cold(inst.addr):
                dblock = inst.addr >> 5
                if dblock not in seen_data:
                    seen_data.add(dblock)
                    memory.data_access(inst.addr)
            if flags[1]:        # store
                recent_stores[inst.addr] = (index, inst.pc)
            elif flags[0]:      # load
                hit = recent_stores.get(inst.addr)
                if hit is not None and index - hit[0] <= window:
                    predictor.train_violation(inst.pc, hit[1])

    # ------------------------------------------------------------------
    # the fused loop
    # ------------------------------------------------------------------

    @hotpath
    def _fast_loop(self, trace: Trace,
                   max_cycles: Optional[int]) -> SimulationResult:
        machine = self.machine
        core = machine.core
        stats = self.stats
        lsq = self.lsq
        rob = self.rob
        iq = self.iq
        regfile = self.regfile
        memory = self.memory

        commit_width = self._commit_width
        issue_width = self._issue_width
        fetch_width = self._fetch_width
        buffer_cap = 2 * fetch_width
        max_issue_attempts = issue_width * 3
        watchdog = core.watchdog_cycles
        mispredict_penalty = core.branch_mispredict_penalty
        redirect_bubble = mispredict_penalty - 2
        if redirect_bubble < 0:
            redirect_bubble = 0

        rob_entries = rob._entries
        rob_capacity = rob.capacity
        iq_ready = iq._ready
        iq_capacity = iq.capacity
        events = self._events
        fetch_buffer = self._fetch_buffer
        #: Dense last-writer scoreboard: one slot per architectural
        #: register replaces the dict the reference engine hashes into.
        writers: List[Optional[DynInst]] = [None] * NUM_ARCH_REGS

        # Memory-stage columns (struct of arrays, seq-sorted): packed
        # attempt cycles make the per-cycle ripeness scan branch on C
        # integers, and the seq column bisects for insert/squash.
        ms_seqs = array("q")
        ms_att = array("q")
        ms_inst: List[DynInst] = []

        lq = lsq.lq
        sq = lsq.sq
        nilp = lsq.nilp
        lsq_config = lsq.config
        unified = lsq_config.unified_queue
        lq_mode = lsq_config.lq_search
        inval_mode = lq_mode is LoadQueueSearchMode.INVALIDATION
        mode_lb = lq_mode is LoadQueueSearchMode.LOAD_BUFFER
        mode_in_order = (
            lq_mode is LoadQueueSearchMode.IN_ORDER
            or lq_mode is LoadQueueSearchMode.IN_ORDER_ALWAYS_SEARCH)
        mode_nilp = mode_lb or mode_in_order
        perfect_pred = lsq_config.predictor is PredictorMode.PERFECT
        ss_ordering = lsq.ss_config.store_store_ordering
        # ``lsq.squash_from`` rebinds ``_membars``; recover() refreshes
        # this alias.  ``_stores`` / queue orders mutate only in place.
        membars = lsq._membars
        stores_get = lsq._stores.get
        load_buffer = lsq.load_buffer
        lb_capacity = load_buffer.capacity
        nilp_seq = nilp.nilp_seq
        lq_order = lq._order
        sq_order = sq._order
        lq_ports_begin = lsq.lq_ports.begin_cycle
        sq_ports_begin = lsq.sq_ports.begin_cycle
        load_blocked = lsq.load_blocked
        store_blocked = lsq.store_blocked
        membar_blocks = lsq._membar_blocks
        store_set_blocker = lsq._store_set_blocker
        store_set_order_blocks = lsq._store_set_order_blocks
        try_execute_load = lsq.try_execute_load
        try_execute_store = lsq.try_execute_store
        try_execute_membar = lsq.try_execute_membar
        try_commit_store = lsq.try_commit_store
        commit_load = lsq.commit_load
        can_allocate = lsq.can_allocate
        lsq_allocate = lsq.allocate
        on_membar_dispatch = lsq.on_membar_dispatch
        lsq_squash_from = lsq.squash_from
        poll_invalidation = lsq.poll_invalidation
        predictor_maybe_clear = lsq.predictor.maybe_clear
        # PairPredictor.maybe_clear is a no-op unless an interval is set
        # (and the perfect predictor's always is), so gate the call once.
        clear_gate = (getattr(lsq.predictor, "clear_interval", 0) or 0) > 0
        # Flat-CAM (one segment per side, separate port pools) admission
        # mirror: with single-segment paths the only admission outcome
        # besides "ok" is "busy_now", so the walk can charge the port
        # stall and retry without entering try_execute_load at all.
        # should_search / _oracle_match are pure, so pre-asking is free.
        flat_ports = (sq.num_segments == 1 and lq.num_segments == 1
                      and lsq.sq_ports is not lsq.lq_ports)
        flat_alloc = sq.num_segments == 1 and lq.num_segments == 1
        sq_seqs0 = sq._seg_seqs[0]
        lq_seqs0 = lq._seg_seqs[0]
        sq_seg0 = sq._segments[0]
        lq_seg0 = lq._segments[0]
        sq_seg_cap = sq.segment_entries
        lq_seg_cap = lq.segment_entries
        sq_used_map = lsq.sq_ports._used
        lq_used_map = lsq.lq_ports._used
        search_ports = lsq.sq_ports.ports
        need_lq_search = (
            lq_mode is LoadQueueSearchMode.SEARCH_LQ
            or lq_mode is LoadQueueSearchMode.IN_ORDER_ALWAYS_SEARCH)
        pred_conventional = (lsq_config.predictor
                             is PredictorMode.CONVENTIONAL)
        should_search = lsq.predictor.should_search
        oracle_match = lsq._oracle_match
        detection_at_commit = lsq_config.detection_at_commit
        d_meter = memory.d_ports
        d_ports_n = d_meter.ports
        instruction_access = memory.instruction_access
        predict_and_update = self.branch_predictor.predict_and_update
        fus = self.fus
        int_units = fus.int_units
        fp_units = fus.fp_units
        uses_fp = _USES_FP_POOL
        can_rename = regfile.can_rename
        regfile_rename = regfile.rename
        release_reg = regfile.release

        # Deferred-flush accumulators: per-cycle occupancy integrals and
        # functional-unit tallies live in locals and land on the shared
        # stats objects in sync_all() (loop exit, deadlock, fallthrough).
        occ_lq = 0
        occ_sq = 0
        occ_ooo = 0
        fu_int_issued = 0
        fu_fp_issued = 0
        fu_structural = 0
        fu_sync_cycle = fus._cycle
        fu_sync_int = fus._int_used
        fu_sync_fp = fus._fp_used

        insts = trace._instructions
        trace_len = len(insts)
        trace_name = trace.name

        squashed_state = InstState.SQUASHED
        complete_state = InstState.COMPLETE
        dispatched_state = InstState.DISPATCHED
        issued_state = InstState.ISSUED
        executing_state = InstState.EXECUTING
        committed_state = InstState.COMMITTED

        cycle = self.cycle
        seq = self._seq
        fetch_index = self._fetch_index
        fetch_stall = self._fetch_stall_until
        last_fetch_block = self._last_fetch_block
        last_commit = self._last_commit_cycle
        redirect = self._redirect_branch
        # Probe the idle-skip only after a cycle in which nothing
        # happened: in busy phases the gate costs one comparison, in
        # stall windows the first quiet cycle arms it.
        quiet_prev = False

        def recover(violation: Violation) -> None:
            # Mirror of Processor._recover against the loop-local state
            # (writers scoreboard, memory-stage columns, fetch locals).
            nonlocal fetch_index, fetch_stall, redirect, last_fetch_block
            nonlocal membars
            vseq = violation.squash_seq
            lsq_squash_from(vseq)
            membars = lsq._membars
            squashed = rob.squash_from(vseq)   # youngest first
            in_queue = 0
            for sinst in squashed:
                dest = sinst.inst.dest
                if dest != NO_REG:
                    if writers[dest] is sinst:
                        writers[dest] = sinst.prev_writer
                    release_reg(dest)
                if sinst.issue_cycle < 0:
                    in_queue += 1
            iq.squash(in_queue)
            cut = bisect_left(ms_seqs, vseq)
            del ms_seqs[cut:]
            del ms_att[cut:]
            del ms_inst[cut:]
            fetch_buffer.clear()
            if redirect is not None and redirect.seq >= vseq:
                redirect = None
            if squashed:
                fetch_index = squashed[-1].trace_index
            penalty = mispredict_penalty + violation.extra_penalty
            stall = cycle + penalty
            if stall > fetch_stall:
                fetch_stall = stall
            last_fetch_block = -1

        def sync_all() -> None:
            # Flush the deferred accumulators, then write the loop state
            # back onto the Processor fields (diagnostics / bundles read
            # the same attributes the reference engine maintains).
            fus.stats.int_issued += fu_int_issued
            fus.stats.fp_issued += fu_fp_issued
            fus.stats.structural_stalls += fu_structural
            fus._cycle = fu_sync_cycle
            fus._int_used = fu_sync_int
            fus._fp_used = fu_sync_fp
            stats.lq_occupancy_cycles += occ_lq
            stats.sq_occupancy_cycles += occ_sq
            stats.ooo_load_cycles += occ_ooo
            self._sync(cycle, seq, fetch_index, fetch_stall,
                       last_fetch_block, last_commit, redirect,
                       ms_seqs, ms_att, ms_inst)

        while fetch_index < trace_len or rob_entries or fetch_buffer:
            # -------------------------------------------------- idle skip
            # A cycle is skippable iff every stage is provably quiescent:
            # nothing ready to issue, nothing completing, the ROB head
            # not committable, every ripe memory-stage entry blocked for
            # a reason that cannot clear on its own, and fetch+dispatch
            # blocked.  All per-cycle charges such a cycle would have
            # made are constant across the window, so they batch.
            if quiet_prev and not iq_ready and not inval_mode \
                    and cycle not in events \
                    and (cycle < fetch_stall or redirect is not None
                         or fetch_index >= trace_len
                         or len(fetch_buffer) >= buffer_cap):
                head0 = rob_entries[0] if rob_entries else None
                if head0 is None or head0.state is not complete_state:
                    horizon = last_commit + watchdog + 1
                    if max_cycles is not None and max_cycles < horizon:
                        horizon = max_cycles
                    blocker = -1
                    skippable = True
                    if fetch_buffer:
                        inst0 = fetch_buffer[0]
                        if len(rob_entries) >= rob_capacity:
                            blocker = 0
                        elif iq._occupancy >= iq_capacity:
                            blocker = 1
                        elif inst0.is_memory and not can_allocate(inst0):
                            blocker = 2 if inst0.is_load else 3
                        elif not can_rename(inst0.inst.dest):
                            blocker = 4
                        else:
                            skippable = False
                    if skippable:
                        n_lbfull = 0
                        n_sswait = 0
                        probe = 0
                        n_entries = len(ms_seqs)
                        while probe < n_entries:
                            att = ms_att[probe]
                            if att > cycle:
                                if att < horizon:
                                    horizon = att
                                probe += 1
                                continue
                            p_inst = ms_inst[probe]
                            if p_inst.state is squashed_state:
                                probe += 1
                                continue
                            if p_inst.is_load:
                                reason = load_blocked(p_inst)
                                if reason is None:
                                    skippable = False
                                    break
                                if reason == "load_buffer_full":
                                    n_lbfull += 1
                                elif reason == "store_set":
                                    n_sswait += 1
                            elif p_inst.is_store:
                                if store_blocked(p_inst) is None:
                                    skippable = False
                                    break
                            else:
                                # A ripe membar always attempts.
                                skippable = False
                                break
                            probe += 1
                    if skippable:
                        if events:
                            ev_min = min(events)
                            if ev_min < horizon:
                                horizon = ev_min
                        if (redirect is None and fetch_index < trace_len
                                and cycle < fetch_stall < horizon):
                            horizon = fetch_stall
                        span = horizon - cycle
                        if span > 1:
                            if blocker == 0:
                                stats.rob_full_stalls += span
                            elif blocker == 1:
                                stats.iq_full_stalls += span
                            elif blocker == 2:
                                stats.lq_full_stalls += span
                            elif blocker == 3:
                                stats.sq_full_stalls += span
                            elif blocker == 4:
                                regfile.rename_stalls += span
                            if n_lbfull:
                                stats.load_buffer_full_stalls += \
                                    n_lbfull * span
                            if n_sswait:
                                stats.store_set_waits += n_sswait * span
                            if unified:
                                # live_loads prices the model, not the
                                # host shortcut — see LoadStoreQueue.
                                # sample(), which this batches.
                                loads = lq.live_loads
                                occ_lq += loads * span  # sim-lint: ignore[SIM-T001]
                                occ_sq += (len(lq_order) - loads) * span  # sim-lint: ignore[SIM-T001]
                            else:
                                occ_lq += len(lq_order) * span
                                occ_sq += len(sq_order) * span
                            occ_ooo += nilp.ooo_in_flight * span
                            cycle = horizon
                            if max_cycles is not None \
                                    and cycle >= max_cycles:
                                break
                            if cycle - last_commit > watchdog:
                                sync_all()
                                from repro.validate.bundle import (
                                    SimulationDeadlock, build_bundle)
                                raise SimulationDeadlock(
                                    f"no commit for {watchdog} cycles at "
                                    f"cycle {cycle} "
                                    f"(trace {trace_name!r})",
                                    bundle=build_bundle(self))
                            continue

            # ---------------------------------------------------- 1 cycle
            quiet = True
            lq_ports_begin(cycle)
            sq_ports_begin(cycle)

            # -- commit ------------------------------------------------
            commits = 0
            while commits < commit_width and rob_entries:
                head = rob_entries[0]
                if head.state is not complete_state:
                    break
                quiet = False
                violation: Optional[Violation] = None
                if head.is_store:
                    commit_outcome = try_commit_store(head, cycle)
                    if isinstance(commit_outcome, Retry):
                        break
                    violation = commit_outcome.violation
                elif head.is_load:
                    commit_load(head)
                rob_entries.popleft()
                head.state = committed_state
                head.prev_writer = None     # see Processor._commit
                release_reg(head.inst.dest)
                stats.committed += 1
                if head.is_load:
                    stats.committed_loads += 1
                elif head.is_store:
                    stats.committed_stores += 1
                elif head.is_branch:
                    stats.committed_branches += 1
                elif head.is_membar:
                    stats.committed_membars += 1
                last_commit = cycle
                if clear_gate:
                    predictor_maybe_clear(stats.committed)
                commits += 1
                if violation is not None:
                    recover(violation)
                    break

            # -- complete / writeback ----------------------------------
            completed = events.pop(cycle, None)
            if completed is not None:
                quiet = False
                for done in completed:
                    if done.state is squashed_state:
                        continue
                    done.state = complete_state
                    done.complete_cycle = cycle
                    consumers = done.consumers
                    for consumer in consumers:
                        consumer_state = consumer.state
                        if consumer_state is squashed_state:
                            continue
                        consumer.pending_sources -= 1
                        if (consumer.pending_sources == 0
                                and consumer_state is dispatched_state):
                            heappush(iq_ready, (consumer.seq, consumer))
                    consumers.clear()           # see Processor._complete
                    if done is redirect:
                        redirect = None
                        stall = cycle + redirect_bubble
                        if stall > fetch_stall:
                            fetch_stall = stall

            # -- memory stage ------------------------------------------
            if inval_mode:
                invalidation = poll_invalidation(cycle)
                if invalidation is not None:
                    quiet = False
                    recover(invalidation)
            if ms_seqs:
                # Local mirror of d_ports.available(): loads that would
                # lose data-cache arbitration fail fast, before the
                # (pure) search-path computation in try_execute_load.
                if d_meter._cycle == cycle:
                    d_free = d_ports_n - d_meter._used
                else:
                    d_free = d_ports_n
                if flat_ports:
                    sq_free = search_ports - sq_used_map.get((0, cycle), 0)
                    lq_free = search_ports - lq_used_map.get((0, cycle), 0)
                # lsq.load_blocked is inlined below with the NILP state
                # cached per walk: the pointer and the buffer occupancy
                # change only when a load executes (which invalidates
                # the cache) — every blocked entry between executions
                # sees the identical answer the method would compute.
                ns: Optional[int] = None
                ns_fresh = False
                lb_full = False
                index = 0
                n_entries = len(ms_seqs)
                while index < n_entries:
                    if ms_att[index] > cycle:
                        index += 1
                        continue
                    entry_inst = ms_inst[index]
                    if entry_inst.state is squashed_state:
                        del ms_seqs[index]
                        del ms_att[index]
                        del ms_inst[index]
                        n_entries -= 1
                        continue
                    if entry_inst.is_load:
                        # -- load_blocked: membar gate --
                        if membars and membar_blocks(entry_inst):
                            index += 1
                            continue
                        # -- load_blocked: store-set wait --
                        if perfect_pred:
                            if store_set_blocker(entry_inst) is not None:
                                stats.store_set_waits += 1
                                index += 1
                                continue
                        else:
                            ws = entry_inst.wait_store_seq
                            if ws is not None:
                                blocking = stores_get(ws)
                                if (blocking is not None
                                        and blocking.state
                                        is not squashed_state
                                        and not blocking.mem_executed
                                        and blocking.seq < entry_inst.seq):
                                    stats.store_set_waits += 1
                                    index += 1
                                    continue
                        # -- load_blocked: search-mode gate --
                        if mode_nilp:
                            if not ns_fresh:
                                ns = nilp_seq()
                                lb_full = (load_buffer._live
                                           >= lb_capacity)
                                ns_fresh = True
                            if ns is not None and ns < entry_inst.seq:
                                if mode_in_order:
                                    index += 1
                                    continue
                                if lb_full:
                                    stats.load_buffer_full_stalls += 1
                                    index += 1
                                    continue
                        quiet = False
                        if d_free <= 0:
                            stats.dcache_port_stalls += 1
                            ms_att[index] = cycle + 1
                            index += 1
                            continue
                        sq_take = False
                        lq_take = False
                        if flat_ports:
                            # Mirror of _admit_search for the flat CAM,
                            # in try_execute_load's exact gate order
                            # (d-port above, then SQ, then LQ).
                            entry_seq = entry_inst.seq
                            if pred_conventional:
                                need_sq = True
                            elif perfect_pred:
                                need_sq = oracle_match(entry_inst) \
                                    is not None
                            else:
                                need_sq = should_search(entry_inst)
                            if (need_sq and sq_seqs0
                                    and sq_seqs0[0] < entry_seq):
                                if sq_free <= 0:
                                    stats.sq_port_stalls += 1
                                    ms_att[index] = cycle + 1
                                    index += 1
                                    continue
                                sq_take = True
                            if (need_lq_search and lq_seqs0
                                    and lq_seqs0[-1] > entry_seq):
                                if lq_free <= 0:
                                    stats.lq_port_stalls += 1
                                    ms_att[index] = cycle + 1
                                    index += 1
                                    continue
                                lq_take = True
                        load_outcome = try_execute_load(entry_inst, cycle)
                        if type(load_outcome) is Retry:
                            ms_att[index] = load_outcome.next_cycle
                            index += 1
                            continue
                        d_free -= 1
                        if sq_take:
                            sq_free -= 1
                        if lq_take:
                            lq_free -= 1
                        ns_fresh = False   # the NILP / buffer moved
                        del ms_seqs[index]
                        del ms_att[index]
                        del ms_inst[index]
                        n_entries -= 1
                        entry_inst.state = executing_state
                        key = cycle + load_outcome.latency
                        bucket = events.get(key)
                        if bucket is None:
                            events[key] = [entry_inst]
                        else:
                            bucket.append(entry_inst)
                        if load_outcome.violation is not None:
                            recover(load_outcome.violation)
                            break
                    elif entry_inst.is_store:
                        # -- store_blocked, inlined --
                        if membars and membar_blocks(entry_inst):
                            index += 1
                            continue
                        if (ss_ordering and entry_inst.ssid is not None
                                and store_set_order_blocks(entry_inst)):
                            index += 1
                            continue
                        quiet = False
                        store_lq_take = False
                        if flat_ports and not detection_at_commit:
                            # Store address generation searches the LQ
                            # (store-load ordering); same flat-CAM
                            # admission mirror as the load side.
                            if (lq_seqs0
                                    and lq_seqs0[-1] > entry_inst.seq):
                                if lq_free <= 0:
                                    stats.lq_port_stalls += 1
                                    ms_att[index] = cycle + 1
                                    index += 1
                                    continue
                                store_lq_take = True
                        store_outcome = try_execute_store(entry_inst, cycle)
                        if type(store_outcome) is Retry:
                            ms_att[index] = store_outcome.next_cycle
                            index += 1
                            continue
                        if store_lq_take:
                            lq_free -= 1
                        del ms_seqs[index]
                        del ms_att[index]
                        del ms_inst[index]
                        n_entries -= 1
                        entry_inst.state = complete_state
                        entry_inst.complete_cycle = cycle
                        if store_outcome.violation is not None:
                            recover(store_outcome.violation)
                            break
                    else:  # memory barrier
                        quiet = False
                        membar_outcome = try_execute_membar(entry_inst,
                                                            cycle)
                        if type(membar_outcome) is Retry:
                            ms_att[index] = membar_outcome.next_cycle
                            index += 1
                            continue
                        del ms_seqs[index]
                        del ms_att[index]
                        del ms_inst[index]
                        n_entries -= 1
                        entry_inst.state = complete_state
                        entry_inst.complete_cycle = cycle

            # -- issue -------------------------------------------------
            if iq_ready:
                quiet = False
                issued = 0
                attempts = 0
                deferred: Optional[List[DynInst]] = None
                fu_int_used = 0
                fu_fp_used = 0
                fu_rolled = False
                while issued < issue_width and attempts < max_issue_attempts:
                    attempts += 1
                    # IssueQueue.pop_ready inlined: lazily discard heap
                    # entries that are no longer DISPATCHED (squash
                    # recovery and store-set re-wakes leave them stale).
                    ready_inst = None
                    while iq_ready:
                        popped = heappop(iq_ready)[1]
                        if popped.state is dispatched_state:
                            ready_inst = popped
                            break
                    if ready_inst is None:
                        break
                    # FunctionalUnits.try_issue inlined: per-cycle slot
                    # counts per pool, tallied into the deferred-flush
                    # locals that sync_all() writes back.
                    fu_rolled = True
                    if uses_fp[ready_inst.inst.op]:
                        if fu_fp_used >= fp_units:
                            fu_structural += 1
                            if deferred is None:
                                deferred = [ready_inst]
                            else:
                                deferred.append(ready_inst)
                            continue
                        fu_fp_used += 1
                        fu_fp_issued += 1
                    else:
                        if fu_int_used >= int_units:
                            fu_structural += 1
                            if deferred is None:
                                deferred = [ready_inst]
                            else:
                                deferred.append(ready_inst)
                            continue
                        fu_int_used += 1
                        fu_int_issued += 1
                    iq._occupancy -= 1
                    ready_inst.state = issued_state
                    ready_inst.issue_cycle = cycle
                    issued += 1
                    if ready_inst.is_memory or ready_inst.is_membar:
                        # One cycle of address generation, then the LSQ.
                        rseq = ready_inst.seq
                        pos = bisect_left(ms_seqs, rseq)
                        ms_seqs.insert(pos, rseq)
                        ms_att.insert(pos, cycle + 1)
                        ms_inst.insert(pos, ready_inst)
                    else:
                        key = cycle + ready_inst.latency
                        bucket = events.get(key)
                        if bucket is None:
                            events[key] = [ready_inst]
                        else:
                            bucket.append(ready_inst)
                if deferred is not None:
                    for ready_inst in deferred:
                        heappush(iq_ready, (ready_inst.seq, ready_inst))
                if fu_rolled:
                    fu_sync_cycle = cycle
                    fu_sync_int = fu_int_used
                    fu_sync_fp = fu_fp_used

            # -- dispatch ----------------------------------------------
            if fetch_buffer:
                slots = 0
                while slots < issue_width and fetch_buffer:
                    cand = fetch_buffer[0]
                    if len(rob_entries) >= rob_capacity:
                        stats.rob_full_stalls += 1
                        break
                    if iq._occupancy >= iq_capacity:
                        stats.iq_full_stalls += 1
                        break
                    if cand.is_memory:
                        # can_allocate inlined for flat queues: with one
                        # segment, either allocation policy reduces to a
                        # bare occupancy check.
                        if flat_alloc:
                            if cand.is_load:
                                ok_alloc = len(lq_seg0) < lq_seg_cap
                            else:
                                ok_alloc = len(sq_seg0) < sq_seg_cap
                        else:
                            ok_alloc = can_allocate(cand)
                        if not ok_alloc:
                            if cand.is_load:
                                stats.lq_full_stalls += 1
                            else:
                                stats.sq_full_stalls += 1
                            break
                    dest = cand.inst.dest
                    if not can_rename(dest):
                        regfile.rename_stalls += 1
                        break
                    quiet = False
                    fetch_buffer.popleft()
                    for src in cand.inst.srcs:
                        if src == NO_REG:
                            continue
                        writer = writers[src]
                        if writer is not None \
                                and writer.state < complete_state:
                            writer.consumers.append(cand)
                            cand.pending_sources += 1
                    if dest != NO_REG:
                        cand.prev_writer = writers[dest]
                        writers[dest] = cand
                        regfile_rename(dest)
                    rob_entries.append(cand)
                    iq._occupancy += 1
                    if cand.pending_sources == 0:
                        heappush(iq_ready, (cand.seq, cand))
                    if cand.is_memory:
                        lsq_allocate(cand)
                    elif cand.is_membar:
                        on_membar_dispatch(cand)
                    slots += 1

            # -- fetch -------------------------------------------------
            if cycle >= fetch_stall and redirect is None:
                fetched = 0
                while (fetched < fetch_width
                        and len(fetch_buffer) < buffer_cap
                        and fetch_index < trace_len):
                    quiet = False
                    raw = insts[fetch_index]
                    block = raw.pc >> 6
                    if block != last_fetch_block:
                        last_fetch_block = block
                        access = instruction_access(raw.pc)
                        if not access.l1_hit:
                            fetch_stall = cycle + access.latency
                            break
                    dyn = DynInst(seq, fetch_index, raw)
                    seq += 1
                    fetch_index += 1
                    fetch_buffer.append(dyn)
                    fetched += 1
                    if dyn.is_branch:
                        if not predict_and_update(raw.pc, raw.taken):
                            dyn.mispredicted = True
                            stats.branch_mispredicts += 1
                            redirect = dyn
                            break
                        if raw.taken:
                            break  # one taken branch per fetch group

            # -- occupancy sample (LoadStoreQueue.sample inlined) ------
            if unified:
                # live_loads prices the model, not the host shortcut —
                # see the rationale on LoadStoreQueue.sample().
                loads = lq.live_loads
                occ_lq += loads  # sim-lint: ignore[SIM-T001]
                occ_sq += len(lq_order) - loads  # sim-lint: ignore[SIM-T001]
            else:
                occ_lq += len(lq_order)
                occ_sq += len(sq_order)
            occ_ooo += nilp.ooo_in_flight

            cycle += 1
            quiet_prev = quiet
            if max_cycles is not None and cycle >= max_cycles:
                break
            if cycle - last_commit > watchdog:
                sync_all()
                from repro.validate.bundle import (SimulationDeadlock,
                                                   build_bundle)
                raise SimulationDeadlock(
                    f"no commit for {watchdog} cycles at cycle "
                    f"{cycle} (trace {trace_name!r})",
                    bundle=build_bundle(self))

        sync_all()
        stats.cycles = cycle
        return SimulationResult(trace_name, machine, stats)

    # ------------------------------------------------------------------
    # state write-back
    # ------------------------------------------------------------------

    def _sync(self, cycle: int, seq: int, fetch_index: int,
              fetch_stall: int, last_fetch_block: int, last_commit: int,
              redirect: Optional[DynInst], ms_seqs: "array[int]",
              ms_att: "array[int]", ms_inst: List[DynInst]) -> None:
        """Write loop-local state back onto the ``Processor`` fields.

        Diagnostics (``repro.validate.bundle.build_bundle``, post-run
        inspection in tests) read the same attributes the reference
        engine maintains; the fused loop reconstructs them on exit and
        before raising ``SimulationDeadlock``.
        """
        self.cycle = cycle
        self._seq = seq
        self._fetch_index = fetch_index
        self._fetch_stall_until = fetch_stall
        self._last_fetch_block = last_fetch_block
        self._last_commit_cycle = last_commit
        self._redirect_branch = redirect
        mem_stage: List[list] = []
        for index in range(len(ms_inst)):
            mem_stage.append([ms_seqs[index], ms_inst[index],
                              ms_att[index]])
        self._mem_stage = mem_stage
