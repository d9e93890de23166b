"""Structural invariants of the pipeline and LSQ.

:func:`scan` inspects a :class:`~repro.pipeline.processor.Processor`
and returns every structural invariant that does not hold (an empty
list on a healthy machine).  The checks are deliberately white-box —
the point is to catch bookkeeping corruption the moment it happens
rather than cycles later when it surfaces as a wrong IPC or a deadlock:

* **rob-order** — the ROB holds in-flight instructions in strictly
  increasing sequence order, within capacity, none already committed or
  squashed, and none older than the last committed instruction.
* **lsq-mirror** — LQ/SQ entries correspond one-to-one to the in-flight
  ROB memory operations (loads and stores share one pool when the
  queue is unified).
* **queue-order** — each LSQ side keeps program order, respects
  per-segment capacity, and its segment bookkeeping matches the
  per-entry ``lsq_segment`` tags.
* **load-buffer** — the load buffer holds exactly the
  out-of-order-issued, executed, un-squashed loads (NILP/LIV
  consistency): every occupied slot is such a load with a correct
  back-pointer, and (in LOAD_BUFFER mode) every such load occupies a
  slot.
* **nilp** — the NILP tracker's out-of-order-in-flight count matches a
  brute-force recount of its pending queue.
* **port-calendar** — no (segment, cycle) slot is ever booked beyond
  the configured number of search ports.
* **mem-stage** — the memory stage keeps its entries sorted by age,
  and so does each list of parked loads and stores (waiting on a port,
  see ``Processor._park``).  A parked list holds only live,
  un-executed, un-squashed memory operations that are not also in the
  walk, and each one's wait code still describes it: a load's SQ and
  LQ first slots are those of its youngest older store and its LQ
  successor, a store's LQ first slot that of its oldest younger load.

Each condition is written once, over the entries it is given.
:func:`scan` applies every condition to whole structures.
:func:`cycle_findings` applies them, at the end of one stepped cycle,
to the entries that cycle's events touched, which is all those events
can break: the entries it dispatched at the ROB and LQ/SQ tails (their
order, segment tags and sizes, and that they mirror each other), the
heads its commits left (younger than the last commit, in the ROB and
in the queues alike), the load buffer and NILP count when a load
executed, and the memory stage.  A squash, or a write that bypasses
these events, is left to the next :func:`scan`.

Every finding that names an instruction carries its sequence number
and trace index (-1 when it names none).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, NamedTuple, Set, Tuple

from repro.config import LoadQueueSearchMode
from repro.pipeline.dyninst import InstState


class Finding(NamedTuple):
    """One violated invariant."""

    name: str
    seq: int
    message: str
    trace_index: int = -1


def _finding(name: str, inst, message: str) -> Finding:
    return Finding(name, inst.seq, message, inst.trace_index)


def _rob_capacity(rob, findings: List[Finding]) -> None:
    if len(rob) > rob.capacity:
        findings.append(Finding(
            "rob-order", -1,
            f"ROB holds {len(rob)} > capacity {rob.capacity}"))


def _rob_entry(inst, previous, min_seq: int,
               findings: List[Finding]) -> None:
    """``inst`` sits in the ROB right after seq ``previous`` (None at
    the head)."""
    if previous is not None and inst.seq <= previous:
        findings.append(_finding(
            "rob-order", inst,
            f"ROB not age-ordered: seq {inst.seq} after {previous}"))
    if inst.state in (InstState.COMMITTED, InstState.SQUASHED):
        findings.append(_finding(
            "rob-order", inst,
            f"{inst.state.name} instruction still in the ROB"))
    if inst.seq <= min_seq:
        findings.append(_finding(
            "rob-order", inst,
            f"in-flight seq {inst.seq} not younger than last "
            f"committed seq {min_seq}"))


def _check_rob(processor, min_seq: int, findings: List[Finding]) -> None:
    rob = processor.rob
    _rob_capacity(rob, findings)
    previous = None
    for inst in rob:
        _rob_entry(inst, previous, min_seq, findings)
        previous = inst.seq


def _fresh_tail(youngest_first: Iterable, fresh: int):
    """The ``fresh`` youngest entries, oldest first, and the seq of the
    entry before them (None when there is none)."""
    if fresh <= 0:
        return [], None
    tail = list(islice(youngest_first, fresh + 1))
    previous = tail.pop().seq if len(tail) > fresh else None
    tail.reverse()
    return tail, previous


def _check_rob_tail(rob, fresh: int, min_seq: int,
                    findings: List[Finding]) -> list:
    """The ``fresh`` youngest ROB entries, each after the one before;
    returns them, oldest first."""
    _rob_capacity(rob, findings)
    tail, previous = _fresh_tail(reversed(rob), fresh)
    for inst in tail:
        _rob_entry(inst, previous, min_seq, findings)
        previous = inst.seq
    return tail


def _sides(lsq):
    """Each LSQ queue with the flag naming the ROB entries that belong
    in it (one pool for loads and stores when the queue is unified)."""
    if lsq.lq is lsq.sq:
        return ((lsq.lq, "is_memory"),)
    return ((lsq.lq, "is_load"), (lsq.sq, "is_store"))


def _mirror(queue, queued: Set[int], in_rob: Set[int],
            findings: List[Finding]) -> None:
    """Over one window of seqs, ``queue`` holds exactly the ROB entries
    that belong in it."""
    if queued != in_rob:
        findings.append(Finding(
            "lsq-mirror", -1,
            f"{queue.name}/ROB mismatch: only-in-{queue.name}="
            f"{sorted(queued - in_rob)} only-in-ROB="
            f"{sorted(in_rob - queued)}"))


def _check_lsq_mirror(processor, findings: List[Finding]) -> None:
    for queue, kind in _sides(processor.lsq):
        _mirror(queue, {entry.seq for entry in queue.entries()},
                {inst.seq for inst in processor.rob if getattr(inst, kind)},
                findings)


def _queue_entry(queue, entry, previous, findings: List[Finding]) -> None:
    """``entry`` follows seq ``previous`` (None at the head) in
    ``queue``'s program order."""
    if previous is not None and entry.seq <= previous:
        findings.append(_finding(
            "queue-order", entry,
            f"{queue.name} not program-ordered: seq {entry.seq} "
            f"after {previous}"))


def _segment_size(queue, index: int, size: int,
                  findings: List[Finding]) -> None:
    if size > queue.segment_entries:
        findings.append(Finding(
            "queue-order", -1,
            f"{queue.name} segment {index} holds {size} > "
            f"{queue.segment_entries} entries"))


def _segment_tag(queue, index: int, entry,
                 findings: List[Finding]) -> None:
    """``entry`` is stored in segment ``index``."""
    if entry.lsq_segment != index:
        findings.append(_finding(
            "queue-order", entry,
            f"{queue.name} entry seq {entry.seq} tagged segment "
            f"{entry.lsq_segment} but stored in segment {index}"))


def _check_queue_order(queue, findings: List[Finding]) -> None:
    previous = None
    for entry in queue.entries():
        _queue_entry(queue, entry, previous, findings)
        previous = entry.seq
    for index, segment in enumerate(queue.segment_contents()):
        _segment_size(queue, index, len(segment), findings)
        for entry in segment:
            _segment_tag(queue, index, entry, findings)


def _stored_in(segments: List[list], entry, fresh: int) -> int:
    """The segment storing ``entry``, one of the ``fresh`` youngest
    queue entries (allocation appends it to its segment): the one it is
    tagged with unless that tag is wrong; -1 when none is."""
    tagged = entry.lsq_segment
    if 0 <= tagged < len(segments) and entry in segments[tagged][-fresh:]:
        return tagged
    for index, segment in enumerate(segments):
        if entry in segment[-fresh:]:
            return index
    return -1


def _check_queue_tail(queue, fresh: int, findings: List[Finding]) -> list:
    """The ``fresh`` youngest entries of ``queue``: each after the one
    before, stored in the segment its tag names, that segment within
    capacity; returns them, oldest first."""
    tail, previous = _fresh_tail(reversed(queue), fresh)
    segments = queue.segment_contents() if tail else []
    for entry in tail:
        _queue_entry(queue, entry, previous, findings)
        previous = entry.seq
        index = _stored_in(segments, entry, fresh)
        if index >= 0:
            _segment_size(queue, index, len(segments[index]), findings)
            _segment_tag(queue, index, entry, findings)
    return tail


def _check_load_buffer(processor, findings: List[Finding],
                       loads=None) -> None:
    """Every occupied slot, and the membership of ``loads`` (every
    load in the LQ when None)."""
    lsq = processor.lsq
    buffer = lsq.load_buffer
    slots = buffer.slots()
    occupied = 0
    for index, slot in enumerate(slots):
        if slot is None:
            continue
        occupied += 1
        if not slot.is_load:
            findings.append(_finding(
                "load-buffer", slot,
                f"non-load seq {slot.seq} in load-buffer slot {index}"))
        if slot.squashed:
            findings.append(_finding(
                "load-buffer", slot,
                f"squashed load seq {slot.seq} in load-buffer slot {index}"))
        elif not slot.mem_executed:
            findings.append(_finding(
                "load-buffer", slot,
                f"un-executed load seq {slot.seq} in load-buffer slot "
                f"{index}"))
        elif not slot.ooo_issued:
            findings.append(_finding(
                "load-buffer", slot,
                f"in-order-issued load seq {slot.seq} occupies load-buffer "
                f"slot {index}"))
        if slot.load_buffer_slot != index:
            findings.append(_finding(
                "load-buffer", slot,
                f"load seq {slot.seq} back-pointer {slot.load_buffer_slot} "
                f"!= slot {index}"))
    if occupied > buffer.capacity:
        findings.append(Finding(
            "load-buffer", -1,
            f"load buffer holds {occupied} > capacity {buffer.capacity}"))
    if lsq.config.lq_search is not LoadQueueSearchMode.LOAD_BUFFER:
        return
    # Forward direction: every out-of-order-issued executed load must be
    # buffered until the NILP passes it, or load-load violations can
    # slip through unchecked.
    held = set(id(slot) for slot in slots if slot is not None)
    for load in lsq.lq.entries() if loads is None else loads:
        if (load.is_load and load.ooo_issued and load.mem_executed
                and not load.squashed and id(load) not in held):
            findings.append(_finding(
                "load-buffer", load,
                f"out-of-order-issued load seq {load.seq} executed but "
                f"missing from the load buffer"))


def _check_nilp(processor, findings: List[Finding]) -> None:
    nilp = processor.lsq.nilp
    recount = sum(1 for load in nilp.pending() if load.ooo_issued)
    if recount != nilp.ooo_in_flight:
        findings.append(Finding(
            "nilp", -1,
            f"NILP out-of-order count {nilp.ooo_in_flight} != recount "
            f"{recount}"))


def _check_ports(processor, findings: List[Finding]) -> None:
    lsq = processor.lsq
    calendars = [("LQ", lsq.lq_ports)]
    if lsq.sq_ports is not lsq.lq_ports:
        calendars.append(("SQ", lsq.sq_ports))
    for name, calendar in calendars:
        for segment, cycle, used in calendar.overbooked():
            findings.append(Finding(
                "port-calendar", -1,
                f"{name} ports: segment {segment} cycle {cycle} booked "
                f"{used} > {calendar.ports} ports"))


def _check_mem_stage(processor, findings: List[Finding]) -> None:
    previous = None
    for seq, inst, __ in processor._mem_stage:
        if previous is not None and seq <= previous:
            findings.append(_finding(
                "mem-stage", inst,
                f"memory stage not age-sorted: seq {seq} after {previous}"))
        previous = seq
    if processor.lsq.parks:
        _check_parked(processor, findings)


def _check_parked(processor, findings: List[Finding]) -> None:
    parked = processor._parked
    if not parked.waiting and not any(parked.lists):
        return
    waiting = sorted(parked.waiting)
    listed = [wait for wait, entries in enumerate(parked.lists)
              if entries]
    if waiting != listed:
        findings.append(Finding(
            "mem-stage", -1,
            f"waiting codes {waiting} != non-empty parked lists {listed}"))
    if not listed:
        return
    lsq = processor.lsq
    in_walk = {entry[0] for entry in processor._mem_stage}
    issued = InstState.ISSUED
    for wait in listed:
        sq_slot, lq_slot = lsq.wait_slots(wait)
        previous = None
        store_wait = lsq.is_store_wait(wait)
        kind = "store" if store_wait else "load"
        for seq, inst, __ in parked.lists[wait]:
            if previous is not None and seq <= previous:
                findings.append(_finding(
                    "mem-stage", inst,
                    f"parked list {wait} not age-sorted: seq {seq} after "
                    f"{previous}"))
            previous = seq
            if (not (inst.is_store if store_wait else inst.is_load)
                    or inst.state is not issued
                    or inst.mem_executed or inst.lsq_segment < 0):
                findings.append(_finding(
                    "mem-stage", inst,
                    f"parked seq {seq} (wait code {wait}) is not a live "
                    f"un-executed {kind} ({inst.state.name})"))
            if seq in in_walk:
                findings.append(_finding(
                    "mem-stage", inst,
                    f"parked seq {seq} (wait code {wait}) is also in the "
                    f"walk"))
            if store_wait:
                head = lsq.lq.forward_head(seq)
                if head != lq_slot:
                    findings.append(_finding(
                        "mem-stage", inst,
                        f"parked seq {seq} (wait code {wait}) keyed on LQ "
                        f"segment {lq_slot} but its oldest younger load "
                        f"is in segment {head}"))
                continue
            store = inst.older_store
            if sq_slot >= 0 and (store is None
                                 or store.lsq_segment != sq_slot):
                findings.append(_finding(
                    "mem-stage", inst,
                    f"parked seq {seq} (wait code {wait}) keyed on SQ "
                    f"segment {sq_slot} but its youngest older store is "
                    f"in segment "
                    f"{-1 if store is None else store.lsq_segment}"))
            successor = inst.next_load
            successor_slot = -1 if successor is None \
                else successor.lsq_segment
            if lq_slot >= 0 and successor_slot != lq_slot:
                findings.append(_finding(
                    "mem-stage", inst,
                    f"parked seq {seq} (wait code {wait}) keyed on LQ "
                    f"segment {lq_slot} but its LQ successor is in "
                    f"segment {successor_slot}"))


def scan(processor, min_seq: int = -1) -> List[Finding]:
    """All violated invariants on ``processor`` (empty when healthy).

    ``min_seq`` is the sequence number of the last committed
    instruction; every in-flight instruction must be younger (a
    committed instruction must never reappear or be squashed).
    """
    findings: List[Finding] = []
    _check_rob(processor, min_seq, findings)
    _check_lsq_mirror(processor, findings)
    _check_queue_order(processor.lsq.lq, findings)
    if processor.lsq.sq is not processor.lsq.lq:
        _check_queue_order(processor.lsq.sq, findings)
    _check_load_buffer(processor, findings)
    _check_nilp(processor, findings)
    _check_ports(processor, findings)
    _check_mem_stage(processor, findings)
    return findings


def tally(processor) -> Tuple[int, ...]:
    """What :func:`cycle_findings` compares across a cycle: the ROB, LQ
    and SQ sizes and the committed instructions, loads and stores."""
    stats = processor.stats
    return (len(processor.rob), len(processor.lsq.lq), len(processor.lsq.sq),
            stats.committed, stats.committed_loads, stats.committed_stores)


def cycle_findings(processor, min_seq: int, before: Tuple[int, ...],
                   after: Tuple[int, ...], executed: List) -> List[Finding]:
    """What one stepped cycle without a squash can have broken.

    ``before`` and ``after`` are the :func:`tally` at the end of the
    previous stepped cycle and of this one, ``executed`` the loads this
    cycle executed, and ``min_seq`` the last committed seq.  The entries
    a structure gained this cycle are its growth plus what its commits
    removed.
    """
    findings: List[Finding] = []
    if after != before:
        rob = processor.rob
        dispatched = _check_rob_tail(rob, after[0] - before[0] + after[3]
                                     - before[3], min_seq, findings)
        head = rob.head
        if head is not None and after[3] != before[3]:
            _rob_entry(head, None, min_seq, findings)
        loads = after[4] - before[4]
        stores = after[5] - before[5]
        lsq = processor.lsq
        if lsq.lq is lsq.sq:
            added = (after[1] - before[1] + loads + stores,)
        else:
            added = (after[1] - before[1] + loads,
                     after[2] - before[2] + stores)
        for (queue, kind), fresh in zip(_sides(lsq), added):
            in_rob = {inst.seq for inst in dispatched if getattr(inst, kind)}
            if fresh > 0 or in_rob:
                tail = _check_queue_tail(queue, fresh, findings)
                _mirror(queue, {entry.seq for entry in tail}, in_rob,
                        findings)
            oldest = queue.oldest
            if oldest is not None and oldest.seq <= min_seq:
                # Commits leave the ROB and the queue together: nothing
                # at or before the last commit is left in either.
                _mirror(queue, {oldest.seq}, set(), findings)
    if executed:
        _check_load_buffer(processor, findings, executed)
        _check_nilp(processor, findings)
    _check_mem_stage(processor, findings)
    return findings
