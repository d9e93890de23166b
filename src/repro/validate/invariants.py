"""Cycle-level structural invariants of the pipeline and LSQ.

:func:`scan` inspects a :class:`~repro.pipeline.processor.Processor`
after one simulated cycle and returns every structural invariant that
does not hold (an empty list on a healthy machine).  The checks are
deliberately white-box — the point is to catch bookkeeping corruption
the moment it happens rather than cycles later when it surfaces as a
wrong IPC or a deadlock:

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
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.config import LoadQueueSearchMode
from repro.pipeline.dyninst import InstState


class Finding(NamedTuple):
    """One violated invariant."""

    name: str
    seq: int
    message: str


def _check_rob(processor, min_seq: int, findings: List[Finding]) -> None:
    rob = processor.rob
    if len(rob) > rob.capacity:
        findings.append(Finding(
            "rob-order", -1,
            f"ROB holds {len(rob)} > capacity {rob.capacity}"))
    previous = None
    for inst in rob:
        if previous is not None and inst.seq <= previous:
            findings.append(Finding(
                "rob-order", inst.seq,
                f"ROB not age-ordered: seq {inst.seq} after {previous}"))
        previous = inst.seq
        if inst.state in (InstState.COMMITTED, InstState.SQUASHED):
            findings.append(Finding(
                "rob-order", inst.seq,
                f"{inst.state.name} instruction still in the ROB"))
        if inst.seq <= min_seq:
            findings.append(Finding(
                "rob-order", inst.seq,
                f"in-flight seq {inst.seq} not younger than last "
                f"committed seq {min_seq}"))


def _check_lsq_mirror(processor, findings: List[Finding]) -> None:
    lsq = processor.lsq
    rob_loads = {i.seq for i in processor.rob if i.is_load}
    rob_stores = {i.seq for i in processor.rob if i.is_store}
    if lsq.config.unified_queue:
        queued = {e.seq for e in lsq.lq.entries()}
        expected = rob_loads | rob_stores
        if queued != expected:
            findings.append(Finding(
                "lsq-mirror", -1,
                f"unified LSQ/ROB mismatch: only-in-LSQ="
                f"{sorted(queued - expected)} only-in-ROB="
                f"{sorted(expected - queued)}"))
        return
    queued_loads = {e.seq for e in lsq.lq.entries()}
    queued_stores = {e.seq for e in lsq.sq.entries()}
    if queued_loads != rob_loads:
        findings.append(Finding(
            "lsq-mirror", -1,
            f"LQ/ROB mismatch: only-in-LQ={sorted(queued_loads - rob_loads)} "
            f"only-in-ROB={sorted(rob_loads - queued_loads)}"))
    if queued_stores != rob_stores:
        findings.append(Finding(
            "lsq-mirror", -1,
            f"SQ/ROB mismatch: only-in-SQ={sorted(queued_stores - rob_stores)}"
            f" only-in-ROB={sorted(rob_stores - queued_stores)}"))


def _check_queue_order(queue, findings: List[Finding]) -> None:
    previous = None
    for entry in queue.entries():
        if previous is not None and entry.seq <= previous:
            findings.append(Finding(
                "queue-order", entry.seq,
                f"{queue.name} not program-ordered: seq {entry.seq} "
                f"after {previous}"))
        previous = entry.seq
    for index, segment in enumerate(queue.segment_contents()):
        if len(segment) > queue.segment_entries:
            findings.append(Finding(
                "queue-order", -1,
                f"{queue.name} segment {index} holds {len(segment)} > "
                f"{queue.segment_entries} entries"))
        for entry in segment:
            if entry.lsq_segment != index:
                findings.append(Finding(
                    "queue-order", entry.seq,
                    f"{queue.name} entry seq {entry.seq} tagged segment "
                    f"{entry.lsq_segment} but stored in segment {index}"))


def _check_load_buffer(processor, findings: List[Finding]) -> None:
    lsq = processor.lsq
    buffer = lsq.load_buffer
    occupied = 0
    for index, slot in enumerate(buffer.slots()):
        if slot is None:
            continue
        occupied += 1
        if not slot.is_load:
            findings.append(Finding(
                "load-buffer", slot.seq,
                f"non-load seq {slot.seq} in load-buffer slot {index}"))
        if slot.squashed:
            findings.append(Finding(
                "load-buffer", slot.seq,
                f"squashed load seq {slot.seq} in load-buffer slot {index}"))
        elif not slot.mem_executed:
            findings.append(Finding(
                "load-buffer", slot.seq,
                f"un-executed load seq {slot.seq} in load-buffer slot "
                f"{index}"))
        elif not slot.ooo_issued:
            findings.append(Finding(
                "load-buffer", slot.seq,
                f"in-order-issued load seq {slot.seq} occupies load-buffer "
                f"slot {index}"))
        if slot.load_buffer_slot != index:
            findings.append(Finding(
                "load-buffer", slot.seq,
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
    slots = set(id(slot) for slot in buffer.slots() if slot is not None)
    for load in lsq.lq.entries():
        if (load.is_load and load.ooo_issued and load.mem_executed
                and not load.squashed and id(load) not in slots):
            findings.append(Finding(
                "load-buffer", load.seq,
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
    for seq, __, __ in processor._mem_stage:
        if previous is not None and seq <= previous:
            findings.append(Finding(
                "mem-stage", seq,
                f"memory stage not age-sorted: seq {seq} after {previous}"))
        previous = seq
    if processor.lsq.parks:
        _check_parked(processor, findings)


def _check_parked(processor, findings: List[Finding]) -> None:
    parked = processor._parked
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
    for wait in listed:
        sq_slot, lq_slot = lsq.wait_slots(wait)
        previous = None
        store_wait = lsq.is_store_wait(wait)
        for seq, inst, *__ in parked.lists[wait]:
            where = f"parked seq {seq} (wait code {wait})"
            if previous is not None and seq <= previous:
                findings.append(Finding(
                    "mem-stage", seq,
                    f"parked list {wait} not age-sorted: seq {seq} after "
                    f"{previous}"))
            previous = seq
            if (not (inst.is_store if store_wait else inst.is_load)
                    or inst.state is not InstState.ISSUED
                    or inst.mem_executed or inst.lsq_segment < 0):
                findings.append(Finding(
                    "mem-stage", seq,
                    f"{where} is not a live un-executed "
                    f"{'store' if store_wait else 'load'} "
                    f"({inst.state.name})"))
            if seq in in_walk:
                findings.append(Finding(
                    "mem-stage", seq, f"{where} is also in the walk"))
            if store_wait:
                head = lsq.lq.forward_head(seq)
                if head != lq_slot:
                    findings.append(Finding(
                        "mem-stage", seq,
                        f"{where} keyed on LQ segment {lq_slot} but its "
                        f"oldest younger load is in segment {head}"))
                continue
            store = inst.older_store
            if sq_slot >= 0 and (store is None
                                 or store.lsq_segment != sq_slot):
                findings.append(Finding(
                    "mem-stage", seq,
                    f"{where} keyed on SQ segment {sq_slot} but its "
                    f"youngest older store is in segment "
                    f"{-1 if store is None else store.lsq_segment}"))
            successor = inst.next_load
            successor_slot = -1 if successor is None \
                else successor.lsq_segment
            if lq_slot >= 0 and successor_slot != lq_slot:
                findings.append(Finding(
                    "mem-stage", seq,
                    f"{where} keyed on LQ segment {lq_slot} but its LQ "
                    f"successor is in segment {successor_slot}"))


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
