"""Unified Perfetto timeline: server spans + simulated pipelines.

``repro timeline JOB_ID`` produces **one** Chrome-trace file showing a
served job end to end: the server-side span tree (HTTP arrival,
admission, per-cell cache probe / queue wait / worker execution) as
complete slices, and — nested inside selected cells' execution
windows — the simulated pipeline itself (instruction slices, event
marks, counter series) from :mod:`repro.obs.chrometrace`.

Two time domains meet here.  Server spans are wall milliseconds;
simulated traces tick in cycles (one cycle == one trace microsecond by
the chrometrace convention).  The merge rescales each cell's simulated
trace onto that cell's real execution window::

    ts_us' = window_start_us + ts_cycles * (window_dur_us / cycles)

so the simulated pipeline visually fills exactly the wall-clock slice
the fleet spent computing it — zooming into a ``worker.exec`` span
reveals the microarchitecture that was executing during it.

Cell traces are **re-simulated** on demand: the server's progress
events carry only summaries (raw event streams are deliberately not
pickled through the cache), but the engine is deterministic — the
golden-parity suite pins this — so regenerating a cell from its
result row (benchmark / label / seed / n_instructions) reproduces the
run bit-for-bit.  The exporter validates its own output with
:func:`repro.obs.chrometrace.validate_chrome_trace` before writing.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.chrometrace import (
    JsonDict,
    export_chrome_trace,
    validate_chrome_trace,
)

#: pid of the server-span process row in the merged document.
SERVER_PID = 0
#: First pid used for per-cell simulated-trace process rows; each cell
#: gets a block of three (pipeline / events / metrics).
CELL_PID_BASE = 10
_CELL_PID_STRIDE = 3

_LABEL_RE = re.compile(r"^(?P<preset>[a-z]+)-(?P<ports>\d+)p$")


def machine_for_label(label: str) -> Any:
    """Rebuild the machine config a serve-spec label names.

    The serving layer labels every cell ``{preset}-{ports}p`` (see
    ``repro.serve.spec.expand_cells``); this inverts that mapping so a
    result row is enough to re-simulate the cell.
    """
    from dataclasses import replace

    from repro.cli import PRESETS
    from repro.config import base_machine
    match = _LABEL_RE.match(label)
    if match is None or match.group("preset") not in PRESETS:
        raise ValueError(
            f"label {label!r} is not a serve-spec '{{preset}}-{{N}}p' "
            f"label; cannot rebuild the machine")
    factory = PRESETS[match.group("preset")]
    return replace(base_machine(),
                   lsq=factory(ports=int(match.group("ports"))))


def resimulate_cell_trace(row: Mapping[str, object],
                          pipetrace: int = 48) -> JsonDict:
    """Re-run one result row's cell under full observation.

    ``row`` is a server result row (``benchmark``/``label``/``seed``/
    ``n_instructions``).  Deterministic replay: same trace generator,
    same machine, same seed — the stats are bit-identical to the served
    run (cache untouched; this is a fresh in-process simulation).
    """
    from repro.obs import ObsConfig, Observer
    from repro.pipeline.debug import PipelineTracer
    from repro.pipeline.processor import Processor
    from repro.workload import generate_trace

    benchmark = str(row["benchmark"])
    label = str(row["label"])
    trace = generate_trace(benchmark,
                           n_instructions=int(str(row["n_instructions"])),
                           seed=int(str(row["seed"])))
    observer = Observer(ObsConfig())
    processor = Processor(machine_for_label(label), obs=observer)
    tracer = PipelineTracer(limit=max(1, pipetrace))
    processor.tracer = tracer
    processor.run(trace)
    return export_chrome_trace(observer, tracer=tracer,
                               label=f"{benchmark} x {label}")


# -- span slices ----------------------------------------------------------

def _span_meta(cells: Sequence[int]) -> List[JsonDict]:
    rows: List[JsonDict] = [
        {"ph": "M", "pid": SERVER_PID, "ts": 0, "name": "process_name",
         "args": {"name": "serve fleet"}},
        {"ph": "M", "pid": SERVER_PID, "ts": 0, "name": "thread_name",
         "tid": 0, "args": {"name": "job"}},
    ]
    for cell in sorted(set(cells)):
        rows.append({"ph": "M", "pid": SERVER_PID, "ts": 0,
                     "name": "thread_name", "tid": cell + 1,
                     "args": {"name": f"cell {cell}"}})
    return rows


def span_slices(spans: Sequence[JsonDict],
                origin_ms: float) -> List[JsonDict]:
    """Finished spans as complete ("X") slices on the server pid.

    One thread row per cell (tid = cell index + 1); job-level spans on
    tid 0.  ``origin_ms`` (normally the root span's start) becomes
    trace time zero.
    """
    slices: List[JsonDict] = []
    cells: List[int] = []
    for span in spans:
        end_ms = span.get("end_ms")
        if end_ms is None:
            continue
        start_us = (float(span.get("start_ms") or 0.0) - origin_ms) \
            * 1000.0
        duration_us = (float(end_ms)
                       - float(span.get("start_ms") or 0.0)) * 1000.0
        cell = span.get("cell")
        tid = int(str(cell)) + 1 if cell is not None else 0
        if cell is not None:
            cells.append(int(str(cell)))
        slices.append({
            "name": str(span.get("name")),
            "cat": "span",
            "ph": "X",
            "ts": round(start_us, 3),
            "dur": round(max(duration_us, 1.0), 3),
            "pid": SERVER_PID,
            "tid": tid,
            "args": {"span": span.get("span"),
                     "trace": span.get("trace"),
                     "status": span.get("status"),
                     **dict(span.get("attrs") or {})},
        })
    return _span_meta(cells) + slices


# -- merging --------------------------------------------------------------

@dataclasses.dataclass
class _Window:
    start_us: float
    dur_us: float
    name: str


def _exec_window(spans: Sequence[JsonDict], cell: int,
                 origin_ms: float) -> Optional[_Window]:
    """The wall window a cell's simulated trace is scaled into:
    its ``worker.exec`` span when it computed, else the whole cell
    span (cache hits have no execution window)."""
    best: Optional[_Window] = None
    for name in ("worker.exec", "cell"):
        for span in spans:
            if span.get("name") != name or span.get("cell") != cell:
                continue
            end_ms = span.get("end_ms")
            if end_ms is None:
                continue
            start = (float(span.get("start_ms") or 0.0) - origin_ms) \
                * 1000.0
            dur = (float(end_ms)
                   - float(span.get("start_ms") or 0.0)) * 1000.0
            best = _Window(start_us=start, dur_us=max(dur, 1.0),
                           name=name)
            break
        if best is not None:
            break
    return best


def _rescale_cell_events(doc: JsonDict, cell: int, pid_base: int,
                         window: _Window) -> List[JsonDict]:
    other = doc.get("otherData") or {}
    cycles = max(int(other.get("cycles") or 0), 1)
    scale = window.dur_us / cycles
    rows: List[JsonDict] = []
    for event in doc.get("traceEvents", []):
        moved = dict(event)
        moved["pid"] = pid_base + int(event.get("pid") or 0)
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                args = dict(moved.get("args") or {})
                args["name"] = f"cell {cell}: {args.get('name', '')}"
                moved["args"] = args
            rows.append(moved)
            continue
        moved["ts"] = round(
            window.start_us + float(event.get("ts") or 0.0) * scale, 3)
        if "dur" in moved:
            moved["dur"] = round(
                max(float(moved["dur"]) * scale, 0.001), 3)
        rows.append(moved)
    return rows


def merge_timeline(job: Mapping[str, object],
                   spans: Sequence[JsonDict],
                   cell_traces: Sequence[Tuple[int, JsonDict]],
                   ) -> JsonDict:
    """Build the unified document: spans + rescaled cell traces.

    ``spans`` is the ``/jobs/<id>/spans`` wire list; ``cell_traces``
    pairs a cell index with its :func:`resimulate_cell_trace` output.
    The result passes :func:`validate_chrome_trace` by construction
    (and callers assert it anyway).
    """
    origin_ms = 0.0
    for span in spans:
        if span.get("name") == "job":
            origin_ms = float(span.get("start_ms") or 0.0)
            break
    events = span_slices(spans, origin_ms)
    scaled: List[Dict[str, object]] = []
    for slot, (cell, doc) in enumerate(cell_traces):
        window = _exec_window(spans, cell, origin_ms)
        if window is None:
            continue
        pid_base = CELL_PID_BASE + slot * _CELL_PID_STRIDE
        events.extend(_rescale_cell_events(doc, cell, pid_base, window))
        other = doc.get("otherData") or {}
        scaled.append({"cell": cell, "pid": pid_base,
                       "window": window.name,
                       "window_us": round(window.dur_us, 3),
                       "cycles": other.get("cycles"),
                       "label": other.get("label")})
    merged: JsonDict = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "kind": "repro-timeline",
            "job": job.get("id"),
            "trace": job.get("trace"),
            "state": job.get("state"),
            "elapsed_s": job.get("elapsed_s"),
            "spans": sum(1 for span in spans
                         if span.get("end_ms") is not None),
            "cells": scaled,
        },
    }
    problems = validate_chrome_trace(merged)
    if problems:
        raise ValueError(
            f"merged timeline failed schema validation: {problems[0]}")
    return merged
