"""repro.obs — the observability layer: events, metrics, CPI, traces.

The simulator's end-of-run :class:`~repro.stats.counters.SimStats`
totals say *how much* happened; this package shows *when* and *why*:

* :mod:`repro.obs.events` — a structured event bus with typed events
  (issue, forward, violation-squash, segment-hop, predictor-update,
  cache-miss, load-buffer traffic) emitted from the
  pipeline, LSQ, predictor, load buffer, and caches;
* :mod:`repro.obs.metrics` — an interval sampler recording per-N-cycle
  time series (IPC, ROB/LQ/SQ/load-buffer occupancy, port utilization,
  L1-D MPKI) into a bounded ring buffer with JSON/CSV export;
* :mod:`repro.obs.cpi` — a CPI stall-attribution stack charging every
  commit slot to exactly one cause;
* :mod:`repro.obs.chrometrace` — a Chrome-trace/Perfetto exporter
  (``trace.json`` loadable in ``ui.perfetto.dev``).

The :class:`Observer` bundles the first three and is attached like the
validation checker: pass ``obs=Observer()`` to
:func:`repro.pipeline.processor.simulate` (or ``repro trace`` on the
command line).  Detached, every emission site reduces to one
``is not None`` test — runs without an observer are unchanged, and runs
*with* one produce bit-identical ``SimStats`` (asserted by the tier-1
parity tests).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.obs.cpi import CPI_CAUSES, CpiStack
from repro.obs.events import EVENT_KINDS, Event, EventBus
from repro.obs.metrics import IntervalSampler, Sample

if TYPE_CHECKING:
    from repro.core.lsq import Violation
    from repro.pipeline.dyninst import DynInst
    from repro.pipeline.processor import Processor

__all__ = [
    "CPI_CAUSES", "CpiStack", "EVENT_KINDS", "Event", "EventBus",
    "IntervalSampler", "ObsConfig", "ObsSummary", "Observer", "Sample",
]


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """Observability knobs; part of any result-cache key that can carry
    observability output (see :mod:`repro.harness.engine`)."""

    #: Cycles between metric samples.
    sample_interval: int = 64
    #: Ring-buffer capacity of the sampler (rows).
    sample_capacity: int = 4096
    #: Stored-event cap of the bus (per-kind counts stay exact beyond).
    event_limit: int = 65536


@dataclasses.dataclass
class ObsSummary:
    """Picklable digest of one observed run (what the result cache and
    the parallel engine ship between processes)."""

    cycles: int
    commit_width: int
    samples: Tuple[Sample, ...]
    cpi_slots: Dict[str, int]
    event_counts: Dict[str, int]
    stored_events: int
    dropped_events: int

    @property
    def total_slots(self) -> int:
        return self.cycles * self.commit_width


class Observer:
    """Attachable bundle: event bus + interval sampler + CPI stack.

    Lifecycle mirrors the validation checker: construct, hand to the
    processor (``Processor(machine, obs=observer)``), and read the
    results after the run.  :meth:`attach` is called by the processor at
    the start of :meth:`~repro.pipeline.processor.Processor.run` —
    *after* cache/predictor warming, so warm-up traffic does not pollute
    the event stream.
    """

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.bus = EventBus(limit=self.config.event_limit)
        self.sampler = IntervalSampler(
            interval=self.config.sample_interval,
            capacity=self.config.sample_capacity)
        self.cpi: Optional[CpiStack] = None
        self._processor: Optional["Processor"] = None

    # -- wiring -----------------------------------------------------------

    def attach(self, processor: "Processor") -> None:
        """Wire the bus into every emitting component of ``processor``."""
        self._processor = processor
        self.cpi = CpiStack(processor.machine.core.commit_width)
        lsq = processor.lsq
        lsq.obs = self.bus
        lsq.predictor.obs = self.bus
        lsq.load_buffer.obs = self.bus
        processor.memory.l1d.obs = self.bus
        processor.memory.l2.obs = self.bus

    # -- per-cycle hooks (called by the processor) ------------------------

    def begin_cycle(self, cycle: int) -> None:
        self.bus.begin_cycle(cycle)

    def end_cycle(self, processor: "Processor") -> None:
        """A stepped cycle has ended: a span of one."""
        self.skip_cycles(processor, processor.cycle, processor.cycle + 1)

    def skip_cycles(self, processor: "Processor", start: int,
                    stop: int) -> None:
        """The cycles ``start`` .. ``stop``-1 have ended: one stepped
        cycle, or a quiet span the processor skipped, in which nothing
        commits and the same stalls are charged every cycle."""
        if self.cpi is not None:
            self.cpi.on_cycles_end(processor, start, stop)
        self.sampler.on_cycles_end(processor, start, stop)

    # -- event hooks (called by the processor) ----------------------------

    def on_issue(self, inst: "DynInst") -> None:
        self.bus.emit("issue", seq=inst.seq, pc=inst.pc)

    def on_recover(self, violation: "Violation", cycle: int,
                   penalty: int) -> None:
        self.bus.emit("violation_squash", seq=violation.squash_seq,
                      arg=penalty, note=violation.kind)
        if self.cpi is not None:
            self.cpi.note_recovery(cycle + penalty)

    # -- results ----------------------------------------------------------

    def summary(self) -> ObsSummary:
        """Compact, picklable digest of everything collected."""
        cycles = self.cpi.cycles if self.cpi is not None else 0
        width = self.cpi.commit_width if self.cpi is not None else 1
        slots = self.cpi.stack() if self.cpi is not None else {}
        return ObsSummary(
            cycles=cycles,
            commit_width=width,
            samples=tuple(self.sampler.rows()),
            cpi_slots=slots,
            event_counts=dict(self.bus.counts),
            stored_events=len(self.bus),
            dropped_events=self.bus.dropped,
        )
