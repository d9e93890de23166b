"""Host-time layer tracing, applied from outside the simulator.

The benchmark adds no instrumentation to ``src/``.  Instead it replaces
public instance methods of the live objects of one simulation (the
``Processor``'s ``step``, its ``LoadStoreQueue``, ``MemoryHierarchy``,
pipeline parts and ``ValidationChecker``) with timing wrappers, and
wraps the benchmark's own calls into each layer (``generate_trace``,
``Processor(...)``, warm-up, ``run``).  A wrapped call's *self time* is
its duration minus the part covered by wrapped calls it made.

Cost model.  A wrapper costs ``c_in`` seconds inside its own timed
interval and ``c_out`` outside it (in its caller).  :func:`calibrate`
measures both on a no-op method; every wrapped call then subtracts
``c_in`` from its own self time and charges ``c_out`` to its parent as
child time, so neither inflates a layer.  What remains in the root
(the cell) after its children is "other": time charged to no layer.

Every wrapped call updates a per-name ``[self_s, calls]`` accumulator.
A cell makes millions of wrapped calls, so individual call spans are
kept only for the first ``fine_spans_per_cell`` calls of each cell;
coarse spans (cell, trace generation, build, warm-up, run) are always
kept.  :meth:`LayerTracer.export` turns them into a span list with
parent ids for ``perf/out/trace-<workload>.json``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of a wrapped name: its first dotted component.
LAYERS = ("workload", "pipeline", "core", "memory", "validate")


class LayerTracer:
    """Self-time accounting for one traced run (one or more passes)."""

    def __init__(self, c_in: float = 0.0, c_out: float = 0.0,
                 fine_spans_per_cell: int = 2000) -> None:
        self.c_in = c_in
        self.c_out = c_out
        self.fine_spans_per_cell = fine_spans_per_cell
        #: name -> [self seconds, calls]
        self.acc: Dict[str, List[float]] = {}
        #: name -> calls whose result satisfied the wrapper's predicate
        self.hits: Dict[str, int] = {}
        #: (cell id, name, start, end, depth); depth 0 is the cell
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: Time in cells not covered by any wrapped call.
        self.other_s = 0.0
        #: Wall time of all traced cells.
        self.cells_s = 0.0
        self._stack: List[float] = [0.0]
        self._cell = [0]
        self._budget = [0]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             count_if: Optional[Callable[[object], bool]] = None,
             fine: bool = True) -> Callable:
        """A timing wrapper around ``fn`` charged to ``name``.

        With ``count_if``, calls whose result satisfies it are counted
        in :attr:`hits` (used for ratios read from return values).
        ``fine=False`` keeps the wrapper's calls out of the sampled
        fine spans.
        """
        acc = self.acc.setdefault(name, [0.0, 0])
        stack = self._stack
        spans = self.spans
        cell = self._cell
        budget = self._budget if fine else [0]
        c_in = self.c_in
        c_out = self.c_out
        clock = time.perf_counter
        hits = self.hits

        def timed(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if count_if is not None and count_if(result):
                    hits[name] = hits.get(name, 0) + 1
                return result
            finally:
                end = clock()
                duration = end - start
                acc[0] += duration - stack.pop() - c_in
                acc[1] += 1
                stack[-1] += duration + c_out
                if budget[0]:
                    budget[0] -= 1
                    spans.append((cell[0], name, start, end, len(stack)))

        return timed

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once as a traced span that is always recorded
        (the benchmark's coarse calls into each layer)."""
        depth = len(self._stack)
        start = time.perf_counter()
        try:
            return self.wrap(name, fn, fine=False)(*args, **kwargs)
        finally:
            self.spans.append((self._cell[0], name, start,
                               time.perf_counter(), depth))

    def instrument(self, prefix: str, obj: object,
                   count_if: Optional[Dict[str, Callable]] = None) -> None:
        """Shadow every public method of ``obj`` with a wrapper named
        ``<prefix>.<method>``.  Properties and static methods cannot be
        shadowed per instance; their cost stays with their callers."""
        count_if = count_if or {}
        for attr, value in vars(type(obj)).items():
            if attr.startswith("_") or not callable(value) \
                    or isinstance(value, (staticmethod, classmethod)):
                continue
            name = f"{prefix}.{attr}"
            setattr(obj, attr, self.wrap(name, getattr(obj, attr),
                                         count_if.get(attr)))

    # -- cells ------------------------------------------------------------

    def begin_cell(self, cell_id: int) -> float:
        self._stack[:] = [0.0]
        self._cell[0] = cell_id
        self._budget[0] = self.fine_spans_per_cell
        return time.perf_counter()

    def end_cell(self, started: float) -> None:
        end = time.perf_counter()
        wall = end - started
        self.cells_s += wall
        self.other_s += wall - self._stack[0]
        self._budget[0] = 0
        self.spans.append((self._cell[0], "cell", started, end, 0))

    # -- results ----------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        """Self seconds of ``prefix`` itself or every name under it."""
        return sum(value[0] for name, value in self.acc.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(self, prefix: str) -> int:
        return int(sum(value[1] for name, value in self.acc.items()
                       if name == prefix or name.startswith(prefix + ".")))

    @property
    def overhead_s(self) -> float:
        """Calibrated wrapper cost of every wrapped call."""
        total_calls = sum(value[1] for value in self.acc.values())
        return total_calls * (self.c_in + self.c_out)

    def split(self) -> Dict[str, float]:
        """Each layer's share of the overhead-corrected traced time."""
        seconds = {layer: self.self_s(layer) for layer in LAYERS}
        seconds["other"] = self.other_s
        total = sum(seconds.values())
        return {layer: (value / total if total else 0.0)
                for layer, value in seconds.items()}

    def export(self) -> List[Dict[str, object]]:
        """Recorded spans with ids and parent ids, ordered by start."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        ordered = sorted(self.spans, key=lambda s: (s[0], s[2], s[4]))
        out: List[Dict[str, object]] = []
        open_spans: List[Tuple[int, float, int, int]] = []
        for index, (cell, name, start, end, depth) in enumerate(ordered):
            while open_spans and (open_spans[-1][0] != cell
                                  or open_spans[-1][1] < end
                                  or open_spans[-1][2] >= depth):
                open_spans.pop()
            parent = open_spans[-1][3] if open_spans else None
            out.append({"id": index, "parent": parent, "cell": cell,
                        "name": name,
                        "start_ms": round((start - origin) * 1e3, 6),
                        "end_ms": round((end - origin) * 1e3, 6)})
            open_spans.append((cell, end, depth, index))
        return out


class _Probe:
    def noop(self, value):
        return value


def calibrate(calls: int = 100_000, reps: int = 5) -> Tuple[float, float]:
    """Measure the wrapper's per-call cost: ``(c_in, c_out)`` seconds.

    ``c_in`` is the part inside the wrapper's own timed interval (beyond
    the wrapped call itself), ``c_out`` the rest, paid by the caller.
    Medians over ``reps`` repetitions.
    """
    clock = time.perf_counter
    values = range(calls)
    inside: List[float] = []
    total: List[float] = []
    for __ in range(reps):
        probe = _Probe()
        started = clock()
        for value in values:
            value
        empty = clock() - started
        started = clock()
        for value in values:
            probe.noop(value)
        plain = clock() - started
        tracer = LayerTracer(fine_spans_per_cell=0)
        tracer.instrument("probe", probe)
        started = clock()
        for value in values:
            probe.noop(value)
        wrapped = clock() - started
        own_call = (plain - empty) / calls
        inside.append(tracer.acc["probe.noop"][0] / calls - own_call)
        total.append((wrapped - plain) / calls)
    c_in = max(statistics.median(inside), 0.0)
    c_out = max(statistics.median(total) - c_in, 0.0)
    return c_in, c_out
