"""Structured event bus: typed microarchitectural events, zero-cost off.

Components that want to narrate their behaviour hold an ``obs``
attribute that is ``None`` by default; every emission site is guarded by
``if self.obs is not None`` — the Python analogue of compiling the
instrumentation to a no-op — so a run without an attached
:class:`~repro.obs.Observer` executes exactly the same instruction
stream it did before the observability layer existed.

Events are small :class:`typing.NamedTuple` rows, not dicts: cheap to
allocate, cheap to pickle, and uniform enough that the Chrome-trace
exporter and the tests can pattern-match on them.  The bus keeps the
first ``limit`` events verbatim (a failed run's interesting prefix) and
counts the rest per kind, so memory stays bounded on long runs while
per-kind totals remain exact.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: The event taxonomy.  ``seq``/``pc`` are -1 when the event is not tied
#: to one dynamic instruction; ``arg`` and ``note`` are kind-specific.
EVENT_KINDS: Tuple[str, ...] = (
    "issue",             # instruction selected onto a functional unit
    "forward",           # SQ search matched: store->load forwarding
    "violation_squash",  # memory-order violation; arg = extra penalty
    "segment_hop",       # pipelined search crossed segments; arg = count
    "predictor_update",  # store-set/pair table training or clear
    "cache_miss",        # cache lookup missed; note = cache name
    "lb_insert",         # out-of-order load parked in the load buffer
    "lb_release",        # NILP passed the load; buffer entry freed
)


_KIND_SET = frozenset(EVENT_KINDS)


class Event(NamedTuple):
    """One structured event row."""

    cycle: int
    kind: str
    seq: int = -1
    pc: int = -1
    arg: int = 0
    note: str = ""


class EventBus:
    """Collects :class:`Event` rows during one simulation.

    The bus does not know about the processor; the attached
    :class:`~repro.obs.Observer` advances :attr:`cycle` once per
    simulated cycle so emitters never need the clock plumbed through.
    """

    __slots__ = ("cycle", "limit", "dropped", "counts", "_events")

    def __init__(self, limit: int = 65536) -> None:
        if limit < 0:
            raise ValueError("event limit must be >= 0")
        #: Current simulation cycle, stamped onto every emitted event.
        self.cycle = 0
        self.limit = limit
        #: Events beyond ``limit`` (counted per kind but not stored).
        self.dropped = 0
        self.counts: Dict[str, int] = {}
        self._events: List[Event] = []

    def begin_cycle(self, cycle: int) -> None:
        self.cycle = cycle

    def emit(self, kind: str, seq: int = -1, pc: int = -1, arg: int = 0,
             note: str = "") -> None:
        """Record one event at the current cycle (cheap, append-only)."""
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind {kind!r}; "
                             f"one of: {', '.join(EVENT_KINDS)}")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self._events) < self.limit:
            self._events.append(Event(self.cycle, kind, seq, pc, arg, note))
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._events)

    @property
    def total(self) -> int:
        """Every emission, stored or dropped."""
        return sum(self.counts.values())

    def events(self) -> List[Event]:
        """The stored event prefix, in emission order (copy)."""
        return list(self._events)

    def events_of(self, kind: str) -> List[Event]:
        return [event for event in self._events if event.kind == kind]
