"""Chrome-trace / Perfetto export of one observed simulation.

Writes the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON object that ``chrome://tracing`` and https://ui.perfetto.dev load
directly.  One simulated cycle maps to one microsecond of trace time.

The export has three process rows:

* **pid 0 — pipeline**: one complete ("X") slice per traced instruction
  (dispatch to commit/squash), read from the stage cycles of the
  instructions a :class:`~repro.pipeline.debug.PipelineTracer` kept and
  spread across lanes so overlapping instructions stay readable;
* **pid 1 — events**: instant ("i") marks from the structured event bus
  (forwarding hits, violation squashes, port retries, segment hops...),
  one thread row per event kind;
* **pid 2 — metrics**: counter ("C") series from the interval sampler
  (IPC, occupancies, port utilization, MPKI).

``python -m repro.obs.chrometrace trace.json`` validates an emitted
file against the schema (the CI ``trace-smoke`` job runs exactly this).
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.obs.events import EVENT_KINDS, Event
from repro.obs.metrics import Sample

if TYPE_CHECKING:
    from repro.obs import Observer
    from repro.pipeline.debug import PipelineTracer

#: Parallel lanes used to lay out overlapping instruction slices.
PIPELINE_LANES = 8

JsonDict = Dict[str, Any]


def _meta(pid: int, name: str, tid: Optional[int] = None,
          thread: Optional[str] = None) -> JsonDict:
    event: JsonDict = {"ph": "M", "pid": pid, "ts": 0, "args": {}}
    if tid is None:
        event["name"] = "process_name"
        event["args"]["name"] = name
    else:
        event["name"] = "thread_name"
        event["tid"] = tid
        event["args"]["name"] = thread if thread is not None else name
    return event


def _instruction_slices(tracer: "PipelineTracer") -> List[JsonDict]:
    slices: List[JsonDict] = []
    for inst in tracer.insts:
        stage = dict(inst.stages())
        dispatch = stage["dispatch"]
        end = stage.get("squash", stage.get("commit",
                                            stage.get("complete", dispatch)))
        status = "squashed" if "squash" in stage else "retired"
        slices.append({
            "name": inst.inst.op.name,
            "cat": f"inst,{status}",
            "ph": "X",
            "ts": dispatch,
            "dur": max(end - dispatch, 1),
            "pid": 0,
            "tid": inst.seq % PIPELINE_LANES,
            "args": {"seq": inst.seq, "pc": inst.pc, "status": status,
                     "issue": stage.get("issue"),
                     "complete": stage.get("complete"),
                     "commit": stage.get("commit"),
                     "squash": stage.get("squash")},
        })
    return slices


def _instant_events(events: Sequence[Event]) -> List[JsonDict]:
    tids = {kind: index for index, kind in enumerate(EVENT_KINDS)}
    rows: List[JsonDict] = []
    for event in events:
        rows.append({
            "name": event.kind,
            "cat": "obs",
            "ph": "i",
            "s": "t",
            "ts": event.cycle,
            "pid": 1,
            "tid": tids.get(event.kind, len(EVENT_KINDS)),
            "args": {"seq": event.seq, "pc": event.pc,
                     "arg": event.arg, "note": event.note},
        })
    return rows


def _counter_events(samples: Sequence[Sample]) -> List[JsonDict]:
    rows: List[JsonDict] = []
    for sample in samples:
        base: JsonDict = {"ph": "C", "pid": 2, "ts": sample.cycle}
        rows.append({**base, "name": "ipc", "args": {"ipc": sample.ipc}})
        rows.append({**base, "name": "occupancy",
                     "args": {"rob": sample.rob_occ, "lq": sample.lq_occ,
                              "sq": sample.sq_occ, "lb": sample.lb_occ}})
        rows.append({**base, "name": "search ports",
                     "args": {"util": sample.port_util,
                              "stalls": sample.port_stalls}})
        rows.append({**base, "name": "l1d mpki",
                     "args": {"mpki": sample.mpki}})
    return rows


def export_chrome_trace(obs: "Observer",
                        tracer: Optional["PipelineTracer"] = None,
                        label: str = "") -> JsonDict:
    """Build the Trace Event Format document for one observed run."""
    events: List[JsonDict] = [
        _meta(0, "pipeline"), _meta(1, "events"), _meta(2, "metrics")]
    for lane in range(PIPELINE_LANES):
        events.append(_meta(0, "pipeline", tid=lane, thread=f"lane {lane}"))
    for index, kind in enumerate(EVENT_KINDS):
        events.append(_meta(1, "events", tid=index, thread=kind))
    if tracer is not None:
        events.extend(_instruction_slices(tracer))
    events.extend(_instant_events(obs.bus.events()))
    events.extend(_counter_events(obs.sampler.rows()))
    summary = obs.summary()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "cycles": summary.cycles,
            "event_counts": summary.event_counts,
            "dropped_events": summary.dropped_events,
            "cpi_slots": summary.cpi_slots,
        },
    }


def write_chrome_trace(path: str, doc: JsonDict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


# -- schema validation (the trace-smoke CI gate) --------------------------

_PHASES = {"X", "i", "C", "M"}


def validate_chrome_trace(doc: object) -> List[str]:
    """Schema problems with ``doc`` (empty list == loadable trace)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: bad ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing pid")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing ts")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: X event missing dur")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}: instant event missing scope")
        if phase == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event missing args")
    return problems[:50]


def validate_chrome_trace_file(path: str) -> List[str]:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"{path}: {error}"]
    return validate_chrome_trace(doc)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.obs.chrometrace <trace.json>")
        return 2
    problems = validate_chrome_trace_file(args[0])
    if problems:
        for problem in problems:
            print(f"invalid: {problem}")
        return 1
    with open(args[0]) as handle:
        doc = json.load(handle)
    print(f"{args[0]}: valid Chrome trace, "
          f"{len(doc['traceEvents'])} events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
