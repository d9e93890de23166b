"""The out-of-order core: fetch, dispatch, issue, memory, commit.

A trace-driven, cycle-accurate model of the Table 1 machine.  Control
flow is always correct-path (mispredicted branches create fetch
bubbles); memory-order violations squash and *replay* from the violating
instruction, rewinding the trace fetch pointer exactly as the paper's
squash-and-refetch recovery does.

Cycle phasing (per simulated cycle, in this order):

1. **commit** — retire completed instructions in order; stores write the
   cache and (pair mode) run the deferred store-load ordering search.
2. **complete** — scheduled writebacks wake dependents.
3. **memory** — loads/stores whose address generation finished arbitrate
   for LSQ search ports and the data cache; structural losers retry.
4. **issue** — oldest-first select of ready instructions onto
   functional units.
5. **dispatch** — rename into ROB + issue queue + LSQ.
6. **fetch** — fill the fetch buffer; branch predictor; I-cache.

Quiet cycles, in which no stage can act, are skipped rather than
stepped (:meth:`Processor._skip_quiet`): the loop jumps to the next
cycle at which something can change and charges every skipped cycle
through the counters a stepped quiet cycle bumps, so ``SimStats`` are
identical either way.

The memory stage wakes rather than polls (:meth:`Processor._park`): on
segmented queues a load or store that bounces on a port leaves the
walk and waits, keyed by the first port slots it needs, until its key
changes; while it waits, each walk attempts it only while those slots
are free and otherwise charges it what an attempt would have charged.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.config import MachineConfig
from repro.core.hotpath import hotpath
from repro.core.lsq import LoadStoreQueue, Retry, Violation
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.branch_predictor import HybridBranchPredictor
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.functional_units import FunctionalUnits
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.regfile import RegisterFile
from repro.pipeline.rob import ReorderBuffer
from repro.stats.counters import SimStats
from repro.workload.isa import NO_REG, OP_FLAGS
from repro.workload.trace import Trace

#: Components any stage may touch directly (sim-lint SIM-M registry):
#: the observability layer, like stats/tracer, is write-from-anywhere.
SIM_LINT_INTERFACES = frozenset({"obs"})

#: Past every sequence number: the end of a memory-stage walk.
_WALK_END = 1 << 62


class _ParkedEntries:
    """The memory stage's parked loads and stores (``Processor._park``):
    per wait code, a seq-sorted list of walk entries.  For the walk under
    way it also keeps each waiting code's verdict
    (``LoadStoreQueue.wait_verdicts``), the open codes (verdict None),
    the mark up to which parked entries are charged, the oldest open
    entry past it (``head``, of code ``head_wait``; the walk's end when
    none) and the filled port slots the verdicts saw."""

    __slots__ = ("lsq", "stats", "lists", "waiting", "verdicts", "open",
                 "mark", "head", "head_wait", "ports_seen")

    def __init__(self, lsq: LoadStoreQueue, stats: SimStats) -> None:
        self.lsq = lsq
        self.stats = stats
        self.lists: List[List[list]] = [[] for __ in range(lsq.wait_codes)]
        #: The codes with parked entries.
        self.waiting: List[int] = []
        self.verdicts: List[Optional[str]] = [None] * lsq.wait_codes
        self.open: List[int] = []
        self.mark = -1
        self.head = _WALK_END
        self.head_wait = -1
        self.ports_seen = 0

    def begin_walk(self, cycle: int) -> None:
        self.mark = -1
        self.judge(cycle)

    def add(self, entry: list, wait: int, cycle: int) -> None:
        """Park ``entry``, charged for this cycle, on code ``wait``."""
        waiting = self.waiting
        if waiting:
            self.settle(entry[0])
        else:
            self.mark = entry[0]
        waits = self.lists[wait]
        insort(waits, entry)
        if len(waits) == 1:
            waiting.append(wait)
            self.judge(cycle)

    def judge(self, cycle: int) -> None:
        """Recompute every waiting code's verdict for the walk under way
        (after a change to the ports or the waiting codes)."""
        opened = self.open
        opened.clear()
        self.lsq.wait_verdicts(self.waiting, cycle, self.verdicts, opened)
        self.head = self._next_open() if opened else _WALK_END
        self.ports_seen = self.lsq.ports_exhausted()

    def settle(self, upto: int) -> None:
        """Charge each parked entry the walk has passed, seq in
        (mark, ``upto``), its code's verdict: what attempting it there
        would have charged.  Then ``upto`` is the mark."""
        mark = self.mark
        if upto > mark + 1:
            lists = self.lists
            verdicts = self.verdicts
            stats = self.stats
            for wait in self.waiting:
                note = verdicts[wait]
                if note is not None:
                    waits = lists[wait]
                    count = bisect_left(waits, [upto]) \
                        - bisect_left(waits, [mark + 1])
                    if note == "sq":
                        stats.sq_port_stalls += count
                    elif note == "lq":
                        stats.lq_port_stalls += count
                    else:
                        stats.dcache_port_stalls += count
        self.mark = upto

    def _next_open(self) -> int:
        """Seq of the oldest parked entry past the mark among the open
        codes (the walk's next visit from them), or the walk's end."""
        past = [self.mark + 1]
        lists = self.lists
        head = _WALK_END
        for wait in self.open:
            waits = lists[wait]
            at = bisect_left(waits, past)
            if at < len(waits) and waits[at][0] < head:
                head = waits[at][0]
                self.head_wait = wait
        return head

    def visit(self, mem_stage: List[list], index: int) -> list:
        """Move the entry at the open head into the walk at ``index``
        and return it."""
        wait = self.head_wait
        waits = self.lists[wait]
        entry = waits.pop(bisect_left(waits, [self.head]))
        if not waits:
            self.waiting.remove(wait)
            self.open.remove(wait)
        mem_stage.insert(index, entry)
        self.head = self._next_open()
        return entry

    def after_access(self, seq: int, cycle: int) -> None:
        """A load or store at ``seq`` executed: if it filled a port slot,
        charge the parked entries passed and recompute the verdicts."""
        if self.lsq.ports_exhausted() != self.ports_seen:
            self.settle(seq)
            self.judge(cycle)

    def release(self, entries: List[list], mem_stage: List[list]) -> None:
        """Return released ``entries`` to the walk (between walks)."""
        if entries:
            for entry in entries:
                insort(mem_stage, entry)
            lists = self.lists
            self.waiting[:] = [wait for wait in self.waiting
                               if lists[wait]]

    def drain(self, seq: int) -> List[list]:
        """Empty every list; return the entries older than ``seq`` (a
        squash from ``seq`` moves the links keys are read from)."""
        kept: List[list] = []
        for wait in self.waiting:
            waits = self.lists[wait]
            kept.extend(entry for entry in waits if entry[0] < seq)
            waits.clear()
        self.waiting.clear()
        self.open.clear()
        self.head = _WALK_END
        return kept


@dataclass
class SimulationResult:
    """Everything a harness needs from one run."""

    trace_name: str
    config: MachineConfig
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class Processor:
    """One configured machine ready to run one trace."""

    def __init__(self, machine: MachineConfig,
                 checker=None, obs=None) -> None:
        self.machine = machine
        #: Optional ValidationChecker (repro.validate) cross-checking
        #: every committed load against the memory-model oracle and the
        #: pipeline against its structural invariants.
        self.checker = checker
        #: Optional Observer (repro.obs): structured events, interval
        #: metrics and CPI stall attribution.  Every hook below is
        #: guarded by ``is not None`` so a bare run pays one comparison.
        self.obs = obs
        self.stats = SimStats()
        self.memory = MemoryHierarchy(machine.memory)
        self.lsq = LoadStoreQueue(
            machine.lsq, machine.store_sets, self.memory, self.stats,
            pair_rollback_penalty=machine.core.pair_rollback_penalty)
        self.branch_predictor = HybridBranchPredictor(machine.branch)
        self.rob = ReorderBuffer(machine.core.rob_entries)
        self.iq = IssueQueue(machine.core.issue_queue_entries)
        self.fus = FunctionalUnits(machine.core.int_units,
                                   machine.core.fp_units)
        self.regfile = RegisterFile(machine.core.int_registers,
                                    machine.core.fp_registers)

        # Per-cycle loop bounds, hoisted out of the stage methods (the
        # config dataclass attribute chain is a measurable per-cycle
        # cost at ~hundreds of thousands of cycles per run).
        core = machine.core
        self._commit_width = core.commit_width
        self._issue_width = core.issue_width
        self._fetch_width = core.fetch_width

        self.cycle = 0
        self._seq = 0
        self._fetch_index = 0
        self._fetch_stall_until = 0
        self._fetch_buffer: Deque[DynInst] = deque()
        self._redirect_branch: Optional[DynInst] = None
        self._last_fetch_block = -1
        self._last_writer: Dict[int, DynInst] = {}
        self._events: Dict[int, List[DynInst]] = {}
        # memory stage: [seq, inst, attempt_cycle] sorted by seq
        self._mem_stage: List[list] = []
        # Parked memory-stage entries (_park).  One attribute: CPython
        # shares an instance's dict keys only up to 30 names, and past
        # that every self.<name> lookup here gets slower.
        self._parked = _ParkedEntries(self.lsq, self.stats)
        self._last_commit_cycle = 0
        self._trace: Optional[Trace] = None
        #: Optional PipelineTracer (repro.pipeline.debug): handed each
        #: instruction as it dispatches; keeps the first ``limit``.
        self.tracer = None

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def warm_caches(self, trace: Trace) -> None:
        """Pre-touch every block the trace references, once.

        The paper measures 500M instructions after skipping 3 billion,
        i.e. with fully warm caches; our traces are short enough that
        serial first-touch misses would otherwise dominate.  Warming
        touches each unique block once, so capacity/conflict misses
        (streams larger than a cache level) still occur in steady state.
        """
        seen_code = set()
        seen_data = set()
        for inst in trace:
            block = inst.pc >> 5
            if block not in seen_code:
                seen_code.add(block)
                self.memory.instruction_access(inst.pc)
            if OP_FLAGS[inst.op][2] and not trace.is_cold_address(inst.addr):
                dblock = inst.addr >> 5
                if dblock not in seen_data:
                    seen_data.add(dblock)
                    self.memory.data_access(inst.addr)

    def warm_predictor(self, trace: Trace, window: int = 256) -> None:
        """Pre-train the memory-dependence predictor.

        The paper measures 500M instructions after skipping 3 billion, so
        stable store-load pairs are fully trained before measurement
        begins; on our short traces the one-violation-per-static-pair
        training cost would otherwise masquerade as steady-state
        overhead.  Every load whose address was last written by a store
        at most ``window`` instructions earlier (the ROB reach) gets its
        pair merged into the tables.  Periodic table clearing during the
        measured run still exercises re-training.
        """
        recent_stores = {}
        for index, inst in enumerate(trace):
            flags = OP_FLAGS[inst.op]
            if flags[1]:        # store
                recent_stores[inst.addr] = (index, inst.pc)
            elif flags[0]:      # load
                hit = recent_stores.get(inst.addr)
                if hit is not None and index - hit[0] <= window:
                    self.lsq.predictor.train_violation(inst.pc, hit[1])

    def run(self, trace: Trace, max_cycles: Optional[int] = None,
            warm: bool = True) -> SimulationResult:
        """Simulate the whole trace (or until ``max_cycles``)."""
        if warm:
            self.warm_caches(trace)
            self.warm_predictor(trace)
        self._trace = trace
        if self.checker is not None:
            self.checker.attach(self, trace)
        if self.obs is not None:
            # After warming, so warm-up traffic stays out of the events.
            self.obs.attach(self)
        watchdog = self.machine.core.watchdog_cycles
        while not self._finished():
            if not self._skip_quiet(max_cycles, watchdog):
                self.step()
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            if self.cycle - self._last_commit_cycle > watchdog:
                from repro.validate.bundle import (SimulationDeadlock,
                                                   build_bundle)
                raise SimulationDeadlock(
                    f"no commit for {watchdog} cycles at cycle "
                    f"{self.cycle} (trace {trace.name!r})",
                    bundle=build_bundle(self))
        self.stats.cycles = self.cycle
        return SimulationResult(trace.name, self.machine, self.stats)

    def _finished(self) -> bool:
        return (self._trace is not None
                and self._fetch_index >= len(self._trace)
                and self.rob.empty and not self._fetch_buffer)

    def step(self) -> None:
        """Advance one cycle."""
        if self.obs is not None:
            self.obs.begin_cycle(self.cycle)
        self.lsq.begin_cycle(self.cycle)
        self._commit()
        self._complete()
        self._memory_stage()
        self._issue()
        self._dispatch()
        self._fetch()
        self.lsq.sample()
        if self.checker is not None:
            self.checker.end_cycle()
        if self.obs is not None:
            self.obs.end_cycle(self)
        self.cycle += 1

    def _skip_quiet(self, max_cycles: Optional[int], watchdog: int) -> bool:
        """Jump over cycles in which no stage can act; returns False
        when this cycle must be stepped instead.

        A cycle is quiet when the ROB head cannot commit, no completion
        is due, nothing is ready to issue, fetch and dispatch are
        stalled, and every due memory-stage entry is blocked.  Nothing
        then changes until the horizon: the next completion, the next
        memory-stage retry, the end of a fetch stall, the arrival of an
        invalidation, ``max_cycles`` or the watchdog limit.  Each
        skipped cycle is charged what a stepped one would be: the
        dispatch stall of the fetch-buffer head, one store-set wait or
        load-buffer-full stall per blocked due load, the LSQ occupancy
        integrals and invalidation traffic, the checker's scans and the
        observer's CPI slots and samples.  A parked load or store
        retries every cycle, so no cycle is quiet while one waits.
        """
        cycle = self.cycle
        if (cycle in self._events or self.iq.has_ready()
                or self._parked.waiting):
            return False
        head = self.rob.head
        if head is not None and head.state is InstState.COMPLETE:
            return False
        fetch_buffer = self._fetch_buffer
        fetch_stall = self._fetch_stall_until
        can_fetch = (self._redirect_branch is None
                     and self._fetch_index < len(self._trace))
        if (can_fetch and cycle >= fetch_stall
                and len(fetch_buffer) < 2 * self._fetch_width):
            return False
        stall = None
        if fetch_buffer:
            stall = self._dispatch_stall(fetch_buffer[0])
            if stall is None:
                return False
        horizon = self._last_commit_cycle + watchdog + 1
        if max_cycles is not None and max_cycles < horizon:
            horizon = max_cycles
        lsq = self.lsq
        load_buffer_full = store_set = 0
        for __, inst, attempt in self._mem_stage:
            if inst.state is InstState.SQUASHED:
                return False            # the stage would drop it
            if attempt > cycle:
                if attempt < horizon:
                    horizon = attempt
            elif inst.is_load:
                reason = lsq.load_blocked(inst)
                if reason is None:
                    return False
                if reason == "load_buffer_full":
                    load_buffer_full += 1
                elif reason == "store_set":
                    store_set += 1
            elif not inst.is_store or lsq.store_blocked(inst) is None:
                return False            # a due barrier always attempts
        if self._events:
            horizon = min(horizon, min(self._events))
        if can_fetch and cycle < fetch_stall < horizon:
            horizon = fetch_stall
        horizon = lsq.skip_invalidations(cycle, horizon)
        span = horizon - cycle
        if span <= 0:
            return False
        stats = self.stats
        if stall == "rob":
            stats.rob_full_stalls += span
        elif stall == "iq":
            stats.iq_full_stalls += span
        elif stall == "lq":
            stats.lq_full_stalls += span
        elif stall == "sq":
            stats.sq_full_stalls += span
        stats.load_buffer_full_stalls += load_buffer_full * span
        stats.store_set_waits += store_set * span
        lsq.sample(span)
        if self.checker is not None:
            self.checker.skip_cycles(cycle, horizon)
        if self.obs is not None:
            self.obs.skip_cycles(self, cycle, horizon)
        self.cycle = horizon
        return True

    def _dispatch_stall(self, inst: DynInst) -> Optional[str]:
        """Which stall ``_dispatch`` charges while ``inst`` heads the
        fetch buffer ("rob", "iq", "lq", "sq" or "rename"); None when
        it can dispatch."""
        if self.rob.full:
            return "rob"
        if self.iq.full:
            return "iq"
        if inst.is_memory and not self.lsq.can_allocate(inst):
            return "lq" if inst.is_load else "sq"
        if not self.regfile.can_rename(inst.inst.dest):
            return "rename"
        return None

    # ------------------------------------------------------------------
    # 1. commit
    # ------------------------------------------------------------------

    @hotpath
    def _commit(self) -> None:
        rob = self.rob
        lsq = self.lsq
        cycle = self.cycle
        checker = self.checker
        stats = self.stats
        for __ in range(self._commit_width):
            head = rob.head
            # ROB entries are never COMMITTED or SQUASHED (both leave
            # the ROB), so "complete" reduces to one state check.
            if head is None or head.state is not InstState.COMPLETE:
                return
            violation: Optional[Violation] = None
            if head.is_store:
                segment = head.lsq_segment
                outcome = lsq.try_commit_store(head, cycle)
                if isinstance(outcome, Retry):
                    return
                violation = outcome.violation
                parked = self._parked
                if parked.waiting:
                    parked.release(lsq.commit_releases(head, segment,
                                                       parked.lists),
                                   self._mem_stage)
            elif head.is_load:
                lsq.commit_load(head)
            rob.commit_head()
            head.exit_cycle = cycle
            # A committed instruction is never squashed, so nothing reads
            # its previous writer again; dropping the link keeps retired
            # instructions from chaining back to the start of the run.
            head.prev_writer = None
            self.regfile.release(head.inst.dest)
            if checker is not None:
                checker.on_commit(head)
            stats.committed += 1
            if head.is_load:
                stats.committed_loads += 1
            elif head.is_store:
                stats.committed_stores += 1
            elif head.is_branch:
                stats.committed_branches += 1
            elif head.is_membar:
                stats.committed_membars += 1
            self._last_commit_cycle = cycle
            lsq.maybe_clear_predictor(stats.committed)
            if violation is not None:
                self._recover(violation)
                return

    # ------------------------------------------------------------------
    # 2. complete / writeback
    # ------------------------------------------------------------------

    @hotpath
    def _complete(self) -> None:
        events = self._events.pop(self.cycle, None)
        if events is None:
            return
        cycle = self.cycle
        iq_wake = self.iq.wake
        for inst in events:
            if inst.state is InstState.SQUASHED:
                continue
            inst.state = InstState.COMPLETE
            inst.complete_cycle = cycle
            consumers = inst.consumers
            for consumer in consumers:
                state = consumer.state
                if state is InstState.SQUASHED:
                    continue
                consumer.pending_sources -= 1
                if (consumer.pending_sources == 0
                        and state is InstState.DISPATCHED):
                    iq_wake(consumer)
            # Woken once: a complete writer gains no new consumers.
            consumers.clear()
            if inst is self._redirect_branch:
                self._redirect_branch = None
                bubble = max(self.machine.core.branch_mispredict_penalty - 2,
                             0)
                self._fetch_stall_until = max(self._fetch_stall_until,
                                              self.cycle + bubble)

    # ------------------------------------------------------------------
    # 3. memory stage
    # ------------------------------------------------------------------

    @hotpath
    def _memory_stage(self) -> None:
        lsq = self.lsq
        cycle = self.cycle
        invalidation = lsq.poll_invalidation(cycle)
        if invalidation is not None:
            self._recover(invalidation)
            return
        mem_stage = self._mem_stage
        stats = self.stats
        events = self._events
        checker = self.checker
        load_blocked = lsq.load_blocked
        try_execute_load = lsq.try_execute_load
        store_blocked = lsq.store_blocked
        try_execute_store = lsq.try_execute_store
        # Parked entries join the walk only through parked.visit() (those
        # of an open code, in seq order); every access that fills a port
        # slot first charges the parked entries the walk passed.
        # open_head mirrors parked.head: reread after each call that can
        # move it (visit, _park, after_access).
        parked = self._parked
        waiting = parked.waiting
        if waiting:
            parked.begin_walk(cycle)
        open_head = parked.head
        index = 0
        while True:
            if index < len(mem_stage):
                entry = mem_stage[index]
                if open_head < entry[0]:
                    entry = parked.visit(mem_stage, index)
                    open_head = parked.head
            elif open_head < _WALK_END:
                entry = parked.visit(mem_stage, index)
                open_head = parked.head
            else:
                break
            inst = entry[1]
            if inst.state is InstState.SQUASHED:
                mem_stage.pop(index)
                continue
            if entry[2] > cycle:
                index += 1
                continue
            if inst.is_load:
                reason = load_blocked(inst)
                if reason is not None:
                    if reason == "load_buffer_full":
                        stats.load_buffer_full_stalls += 1
                    elif reason == "store_set":
                        stats.store_set_waits += 1
                    index += 1
                    continue
                outcome = try_execute_load(inst, cycle)
                if isinstance(outcome, Retry):
                    entry[2] = outcome.next_cycle
                    if outcome.wait >= 0 and self._park(index, outcome.wait):
                        open_head = parked.head
                    else:
                        index += 1
                    continue
                mem_stage.pop(index)
                inst.state = InstState.EXECUTING
                events.setdefault(cycle + outcome.latency, []).append(inst)
                if checker is not None:
                    checker.on_load_executed(inst, outcome.violation)
                if outcome.violation is not None:
                    if waiting:
                        parked.settle(inst.seq)
                    self._recover(outcome.violation)
                    return
                if waiting:
                    parked.after_access(inst.seq, cycle)
                    open_head = parked.head
            elif inst.is_store:
                if store_blocked(inst) is not None:
                    index += 1
                    continue
                outcome = try_execute_store(inst, cycle)
                if isinstance(outcome, Retry):
                    entry[2] = outcome.next_cycle
                    if outcome.wait >= 0 and self._park(index, outcome.wait):
                        open_head = parked.head
                    else:
                        index += 1
                    continue
                mem_stage.pop(index)
                inst.state = InstState.COMPLETE
                inst.complete_cycle = cycle
                if outcome.violation is not None:
                    if waiting:
                        parked.settle(inst.seq)
                    self._recover(outcome.violation)
                    return
                if waiting:
                    parked.after_access(inst.seq, cycle)
                    open_head = parked.head
            else:  # memory barrier
                outcome = lsq.try_execute_membar(inst, cycle)
                if isinstance(outcome, Retry):
                    entry[2] = outcome.next_cycle
                    index += 1
                    continue
                mem_stage.pop(index)
                inst.state = InstState.COMPLETE
                inst.complete_cycle = cycle
        if waiting:
            parked.settle(_WALK_END)


    def _park(self, index: int, wait: int) -> bool:
        """Move the load or store at ``index`` of the walk, which just
        bounced on a port, to the parked list of wait code ``wait``;
        False leaves it in the walk.

        It was charged for this cycle.  Until its key changes (a store
        commit, LoadStoreQueue.commit_releases(), or a squash), each
        walk visits it only while its code's verdict is None and
        otherwise charges it that verdict's counter.
        """
        self._parked.add(self._mem_stage.pop(index), wait, self.cycle)
        return True

    # ------------------------------------------------------------------
    # 4. issue
    # ------------------------------------------------------------------

    @hotpath
    def _issue(self) -> None:
        issued = 0
        deferred: List[DynInst] = []
        attempts = 0
        width = self._issue_width
        max_attempts = width * 3
        iq = self.iq
        fus = self.fus
        cycle = self.cycle
        obs = self.obs
        mem_stage = self._mem_stage
        events = self._events
        while issued < width and attempts < max_attempts:
            attempts += 1
            inst = iq.pop_ready()
            if inst is None:
                break
            if not fus.try_issue(inst.inst.op, cycle):
                deferred.append(inst)
                continue
            iq.release()
            inst.state = InstState.ISSUED
            inst.issue_cycle = cycle
            if obs is not None:
                obs.on_issue(inst)
            issued += 1
            if inst.is_memory or inst.is_membar:
                # One cycle of address generation (memory ops), then the
                # LSQ access; barriers wait here for older memory ops.
                insort(mem_stage, [inst.seq, inst, cycle + 1])
            else:
                events.setdefault(cycle + inst.latency, []).append(inst)
        for inst in deferred:
            iq.unpop(inst)

    # ------------------------------------------------------------------
    # 5. dispatch
    # ------------------------------------------------------------------

    @hotpath
    def _dispatch(self) -> None:
        fetch_buffer = self._fetch_buffer
        if not fetch_buffer:
            return
        rob = self.rob
        iq = self.iq
        regfile = self.regfile
        lsq = self.lsq
        stats = self.stats
        tracer = self.tracer
        checker = self.checker
        cycle = self.cycle
        for __ in range(self._issue_width):
            if not fetch_buffer:
                return
            inst = fetch_buffer[0]
            if rob.full:
                stats.rob_full_stalls += 1
                return
            if iq.full:
                stats.iq_full_stalls += 1
                return
            if inst.is_memory and not lsq.can_allocate(inst):
                if inst.is_load:
                    stats.lq_full_stalls += 1
                else:
                    stats.sq_full_stalls += 1
                return
            if not regfile.can_rename(inst.inst.dest):
                return
            fetch_buffer.popleft()
            inst.dispatch_cycle = cycle
            if tracer is not None:
                tracer.add(inst)
            self._wire_dependences(inst)
            regfile.rename(inst.inst.dest)
            rob.dispatch(inst)
            iq.dispatch(inst)
            if inst.is_memory:
                lsq.allocate(inst)
                if checker is not None:
                    checker.on_dispatch(inst)
            elif inst.is_membar:
                lsq.on_membar_dispatch(inst)

    @hotpath
    def _wire_dependences(self, inst: DynInst) -> None:
        last_writer = self._last_writer
        for src in inst.inst.srcs:
            if src == NO_REG:
                continue
            writer = last_writer.get(src)
            # state < COMPLETE means DISPATCHED/ISSUED/EXECUTING — i.e.
            # neither complete nor squashed — in one integer compare.
            if writer is not None and writer.state < InstState.COMPLETE:
                writer.consumers.append(inst)
                inst.pending_sources += 1
        dest = inst.inst.dest
        if dest != NO_REG:
            inst.prev_writer = last_writer.get(dest)
            last_writer[dest] = inst

    # ------------------------------------------------------------------
    # 6. fetch
    # ------------------------------------------------------------------

    @hotpath
    def _fetch(self) -> None:
        if self.cycle < self._fetch_stall_until:
            return
        if self._redirect_branch is not None:
            return
        trace = self._trace
        trace_len = len(trace)
        fetch_buffer = self._fetch_buffer
        fetched = 0
        limit = self._fetch_width
        buffer_cap = 2 * limit
        while (fetched < limit and len(fetch_buffer) < buffer_cap
                and self._fetch_index < trace_len):
            raw = trace[self._fetch_index]
            block = raw.pc >> 6
            if block != self._last_fetch_block:
                self._last_fetch_block = block
                access = self.memory.instruction_access(raw.pc)
                if not access.l1_hit:
                    self._fetch_stall_until = self.cycle + access.latency
                    return
            dyn = DynInst(self._seq, self._fetch_index, raw)
            self._seq += 1
            self._fetch_index += 1
            fetch_buffer.append(dyn)
            fetched += 1
            if dyn.is_branch:
                correct = self.branch_predictor.predict_and_update(
                    raw.pc, raw.taken)
                if not correct:
                    self.stats.branch_mispredicts += 1
                    self._redirect_branch = dyn
                    return
                if raw.taken:
                    return  # one taken branch per fetch group

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self, violation: Violation) -> None:
        """Squash from the violating instruction and replay."""
        seq = violation.squash_seq
        if self.checker is not None:
            self.checker.on_squash(seq, self.cycle)
        self.lsq.squash_from(seq)
        squashed = self.rob.squash_from(seq)  # youngest first
        in_queue = 0
        for inst in squashed:
            inst.exit_cycle = self.cycle
            dest = inst.inst.dest
            if dest != NO_REG and self._last_writer.get(dest) is inst:
                if inst.prev_writer is not None:
                    self._last_writer[dest] = inst.prev_writer
                else:
                    del self._last_writer[dest]
            if dest != NO_REG:
                self.regfile.release(dest)
            in_queue += 1 if self._was_in_issue_queue(inst) else 0
        self.iq.squash(in_queue)
        stage = [entry for entry in self._mem_stage if entry[0] < seq]
        if self._parked.waiting:
            # A squash moves links: return every parked entry to the walk.
            stage.extend(self._parked.drain(seq))
            stage.sort()
        self._mem_stage = stage
        # Squashed instructions still in the fetch buffer: the buffer is
        # younger than anything in the ROB, so clear it wholesale.
        self._fetch_buffer.clear()
        # The squash may have swallowed the mispredicted branch we were
        # waiting on — including while it was still in the fetch buffer,
        # where it never transitions to SQUASHED.
        if self._redirect_branch is not None and \
                self._redirect_branch.seq >= seq:
            self._redirect_branch = None
        if squashed:
            self._fetch_index = squashed[-1].trace_index
        penalty = (self.machine.core.branch_mispredict_penalty
                   + violation.extra_penalty)
        if self.obs is not None:
            self.obs.on_recover(violation, self.cycle, penalty)
        self._fetch_stall_until = max(self._fetch_stall_until,
                                      self.cycle + penalty)
        self._last_fetch_block = -1

    @staticmethod
    def _was_in_issue_queue(inst: DynInst) -> bool:
        # rob.squash_from() already flipped states to SQUASHED; an
        # instruction occupied an IQ slot iff it had not yet issued.
        return inst.issue_cycle < 0


def simulate(trace: Trace, machine: MachineConfig,
             max_cycles: Optional[int] = None,
             warm: bool = True, validate: bool = False,
             checker=None, obs=None) -> SimulationResult:
    """Run ``trace`` on ``machine`` and return the statistics.

    ``warm`` pre-touches caches (see :meth:`Processor.warm_caches`);
    disable it to study cold-start behaviour.  ``validate=True`` runs
    under the full memory-model oracle and cycle-level invariant
    checker (see :mod:`repro.validate`), raising ``ValidationError`` on
    the first discrepancy; pass an explicit ``checker`` to customise
    (e.g. record-only mode for fault campaigns).  ``obs`` attaches a
    :class:`repro.obs.Observer` collecting structured events, interval
    metrics and the CPI stall stack; the returned statistics are
    bit-identical with and without it.
    """
    if checker is None and validate:
        from repro.validate import ValidationChecker
        checker = ValidationChecker()
    processor = Processor(machine, checker=checker, obs=obs)
    return processor.run(trace, max_cycles=max_cycles, warm=warm)
