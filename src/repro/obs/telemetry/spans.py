"""Span tracer: latency attribution for the serving fleet.

The CPI stack attributes every simulated cycle to a cause and insists
the slots sum exactly to the measured total.  This module applies the
same discipline to wall time: a served job decomposes into a tree of
**spans** (submit -> admission -> per-cell flight -> cache probe ->
queue wait -> worker execution -> cache store -> publish) whose root
duration equals the job's measured wall time, and whose children
account for (almost) all of it.  What the CPI stack is to cycles, the
span tree is to milliseconds.

Design constraints, in order:

* **Deterministic IDs** — no ``uuid``, no ``random``: span and trace
  identifiers come from a monotonic counter salted with the process id,
  so two servers on one box cannot collide and sim-lint's determinism
  rules (SIM-D003) stay clean.
* **Bounded memory** — spans are kept per job in an LRU dict capped at
  ``keep_jobs``; spans finished before their job exists (HTTP parse /
  admission) sit in a bounded loose list until :meth:`SpanTracer.adopt`
  moves them under the job.
* **Context propagation** — a client sends ``X-Repro-Trace:
  <trace_id>[:<parent_span_id>]``; :func:`parse_trace_header` /
  :func:`format_trace_header` are the two ends of that contract, and a
  :mod:`contextvars` slot carries the active span across ``await``
  boundaries inside the server.

Timestamps are ``time.perf_counter()`` seconds internally and exported
as milliseconds relative to the tracer's origin, so wire-format numbers
stay small and subtraction-safe.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import re
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

JsonDict = Dict[str, Any]

#: Wire header carrying trace context over HTTP.
TRACE_HEADER = "X-Repro-Trace"

_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Active span for the current task (server-side context propagation).
CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = \
    contextvars.ContextVar("repro_current_span", default=None)


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "job",
                 "cell", "start_s", "end_s", "status", "attrs")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, job: Optional[str], cell: Optional[int],
                 start_s: float, attrs: Dict[str, object]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.job = job
        self.cell = cell
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.attrs = attrs

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s


def parse_trace_header(value: Optional[str]) -> Tuple[Optional[str],
                                                      Optional[str]]:
    """Decode ``X-Repro-Trace``; malformed input degrades to no trace.

    Returns ``(trace_id, parent_span_id)``; both ``None`` when the
    header is absent or invalid (a bad header must never fail a
    request — it just loses client-side correlation).
    """
    if not value:
        return None, None
    trace_id, _, parent_id = value.strip().partition(":")
    if not _ID_PATTERN.match(trace_id):
        return None, None
    if parent_id and not _ID_PATTERN.match(parent_id):
        return trace_id, None
    return trace_id, parent_id or None


def format_trace_header(trace_id: str,
                        parent_id: Optional[str] = None) -> str:
    """Encode trace context for the ``X-Repro-Trace`` header."""
    return f"{trace_id}:{parent_id}" if parent_id else trace_id


class SpanTracer:
    """Creates, finishes, and retains spans, grouped by job id."""

    def __init__(self, keep_jobs: int = 256,
                 keep_loose: int = 1024) -> None:
        self.origin_s = time.perf_counter()  # sim-lint: ignore[SIM-D004]
        self.keep_jobs = max(1, keep_jobs)
        self._ids = itertools.count(1)
        # The pid salt keeps ids unique across servers sharing a box.
        self._prefix = f"{os.getpid() & 0xFFFFF:05x}"
        self._by_job: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._loose: Deque[Span] = deque(maxlen=max(1, keep_loose))
        #: Spans started / finished (the registry reads ``finished``).
        self.started = 0
        self.finished = 0

    # -- id generation ----------------------------------------------------

    def new_trace_id(self) -> str:
        return f"t{self._prefix}-{next(self._ids):06x}"

    def _new_span_id(self) -> str:
        return f"s{self._prefix}-{next(self._ids):06x}"

    # -- span lifecycle ---------------------------------------------------

    def start(self, name: str, *, parent: Optional[Span] = None,
              trace_id: Optional[str] = None,
              parent_id: Optional[str] = None,
              job: Optional[str] = None, cell: Optional[int] = None,
              start_s: Optional[float] = None,
              **attrs: object) -> Span:
        """Open a span.  ``parent`` wins over explicit ids; with
        neither, the contextvar's active span (if any) is the parent,
        else a fresh trace starts."""
        if parent is None and trace_id is None and parent_id is None:
            parent = CURRENT_SPAN.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            if job is None:
                job = parent.job
        if trace_id is None:
            trace_id = self.new_trace_id()
        span = Span(trace_id=trace_id, span_id=self._new_span_id(),
                    parent_id=parent_id, name=name, job=job, cell=cell,
                    start_s=(start_s if start_s is not None
                             else time.perf_counter()),  # sim-lint: ignore[SIM-D004]
                    attrs=dict(attrs))
        self.started += 1
        return span

    def finish(self, span: Span, *, end_s: Optional[float] = None,
               status: Optional[str] = None, **attrs: object) -> Span:
        """Close a span and retain it; a double-finish is a no-op (the
        first close's timing and status win)."""
        if span.end_s is not None:
            return span
        span.end_s = end_s if end_s is not None \
            else time.perf_counter()  # sim-lint: ignore[SIM-D004]
        if status is not None:
            span.status = status
        span.attrs.update(attrs)
        self.finished += 1
        self._retain(span)
        return span

    def span(self, name: str, **kwargs: object) -> "_SpanScope":
        """``with tracer.span("name") as s:`` convenience scope."""
        return _SpanScope(self, name, kwargs)

    # -- retention --------------------------------------------------------

    def _retain(self, span: Span) -> None:
        if span.job is None:
            self._loose.append(span)
            return
        bucket = self._by_job.get(span.job)
        if bucket is None:
            bucket = []
            self._by_job[span.job] = bucket
            while len(self._by_job) > self.keep_jobs:
                self._by_job.popitem(last=False)
        bucket.append(span)

    def adopt(self, span: Span, job: str) -> None:
        """Re-home a span (finished before its job existed) under the
        job, so admission-time spans appear in ``/jobs/<id>/spans``."""
        span.job = job
        if span.end_s is None:
            return  # still open; _retain will file it at finish time
        try:
            self._loose.remove(span)
        except ValueError:
            return  # evicted from the bounded loose list — drop it
        self._retain(span)

    # -- export -----------------------------------------------------------

    def _to_ms(self, seconds: float) -> float:
        return round((seconds - self.origin_s) * 1000.0, 3)

    def export(self, span: Span) -> JsonDict:
        duration = span.duration_s
        return {
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "job": span.job,
            "cell": span.cell,
            "start_ms": self._to_ms(span.start_s),
            "end_ms": (self._to_ms(span.end_s)
                       if span.end_s is not None else None),
            "duration_ms": (round(duration * 1000.0, 3)
                            if duration is not None else None),
            "status": span.status,
            "attrs": dict(span.attrs),
        }

    def job_spans(self, job: str) -> List[JsonDict]:
        """Finished spans for a job, in finish order."""
        return [self.export(span) for span in self._by_job.get(job, [])]


class _SpanScope:
    """Context manager wrapper so hot paths read naturally."""

    __slots__ = ("_tracer", "_name", "_kwargs", "_token", "span")

    def __init__(self, tracer: SpanTracer, name: str,
                 kwargs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._kwargs = kwargs
        self._token: Optional["contextvars.Token[Optional[Span]]"] = None
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start(self._name, **self._kwargs)  # type: ignore[arg-type]
        self._token = CURRENT_SPAN.set(self.span)
        return self.span

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        assert self.span is not None
        if self._token is not None:
            CURRENT_SPAN.reset(self._token)
        status = "error" if exc_type is not None else None
        self._tracer.finish(self.span, status=status)


# -- tree analysis (wire-format dicts, shared by tests / CLI / smoke) -----

def build_tree(spans: List[JsonDict],
               root_name: str = "job") -> Optional[JsonDict]:
    """Nest exported spans into a tree rooted at the ``root_name`` span.

    Returns ``None`` when no such span exists.  Each node is the span
    dict plus a ``"children"`` list sorted by start time.
    """
    root: Optional[JsonDict] = None
    for span in spans:
        if span.get("name") == root_name:
            root = span
            break
    if root is None:
        return None
    children: Dict[str, List[JsonDict]] = {}
    for span in spans:
        parent = span.get("parent")
        if isinstance(parent, str):
            children.setdefault(parent, []).append(span)

    def _node(span: JsonDict) -> JsonDict:
        kids = sorted(children.get(str(span.get("span")), []),
                      key=lambda s: float(s.get("start_ms") or 0.0))
        return {**span, "children": [_node(kid) for kid in kids]}

    return _node(root)


def _union_ms(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        if end <= last_end:
            continue
        total += end - max(start, last_end)
        last_end = end
    return total


def child_coverage(tree: JsonDict) -> float:
    """Fraction of the root span covered by the union of its direct
    children, clipped to the root window — the span-tree analogue of
    the CPI stack's "slots sum to cycles" invariant.  1.0 == every
    millisecond of the root is attributed to a child."""
    start = float(tree.get("start_ms") or 0.0)
    end_value = tree.get("end_ms")
    if end_value is None:
        return 0.0
    end = float(end_value)
    if end <= start:
        return 1.0
    intervals: List[Tuple[float, float]] = []
    for child in tree.get("children", []):
        child_end = child.get("end_ms")
        if child_end is None:
            continue
        lo = max(float(child.get("start_ms") or 0.0), start)
        hi = min(float(child_end), end)
        if hi > lo:
            intervals.append((lo, hi))
    return _union_ms(intervals) / (end - start)


def walk(tree: JsonDict) -> Iterator[JsonDict]:
    """Depth-first iteration over a :func:`build_tree` result."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.get("children", []))
