"""Interval metrics: per-N-cycle time series over one simulation.

The paper's occupancy and bandwidth numbers (Tables 4-6) are end-of-run
averages; this sampler records the same quantities as a *time series* so
a port saturating for 2k cycles, or an IPC dip around a squash storm, is
visible instead of averaged away.

Every ``interval`` cycles the sampler snapshots structure occupancies
(point-in-time) and counter *deltas* over the interval (search traffic,
port stalls, L1-D misses), derives interval IPC and MPKI, and appends a
:class:`Sample` row to a bounded ring buffer.  Export is plain
JSON-able dicts or CSV — no plotting dependencies.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, NamedTuple, Sequence, \
    Union

if TYPE_CHECKING:
    from repro.pipeline.processor import Processor


class Sample(NamedTuple):
    """One interval row: point occupancies plus interval deltas."""

    cycle: int            # last cycle of the interval (inclusive)
    committed: int        # instructions committed during the interval
    ipc: float            # interval IPC (committed / interval cycles)
    rob_occ: int          # ROB entries at sample time
    lq_occ: int           # load-queue entries at sample time
    sq_occ: int           # store-queue entries at sample time
    lb_occ: int           # load-buffer entries at sample time
    sq_searches: int      # SQ forwarding searches during the interval
    lq_searches: int      # LQ ordering searches during the interval
    port_stalls: int      # SQ+LQ+D-cache port retries during the interval
    l1d_misses: int       # L1-D misses during the interval
    mpki: float           # interval L1-D misses per kilo-instruction
    port_util: float      # search events per port-cycle (0..~1)


#: SimStats counters whose interval deltas feed a :class:`Sample`.
_DELTA_FIELDS = ("committed", "sq_searches", "lq_searches",
                 "sq_port_stalls", "lq_port_stalls", "dcache_port_stalls")


def stream_points(samples: Sequence[Sample],
                  limit: int = 16) -> List[Dict[str, Union[int, float]]]:
    """Compact tail of an interval series for a live progress feed.

    The serving layer (:mod:`repro.serve`) attaches one of these to
    every finished cell's progress event, so a streaming client sees
    the shape of the run — IPC trajectory, queue pressure, port
    saturation — not just a completion tick.  ``limit`` bounds the
    payload (the full series still travels in the cached
    :class:`~repro.obs.ObsSummary`); the most recent rows win because
    they describe the run's steady state.
    """
    tail = list(samples)[-limit:] if limit > 0 else []
    return [{
        "cycle": row.cycle,
        "ipc": round(row.ipc, 4),
        "rob_occ": row.rob_occ,
        "lq_occ": row.lq_occ,
        "sq_occ": row.sq_occ,
        "lb_occ": row.lb_occ,
        "port_util": round(row.port_util, 4),
        "mpki": round(row.mpki, 3),
    } for row in tail]


class IntervalSampler:
    """Ring buffer of :class:`Sample` rows, one per ``interval`` cycles."""

    def __init__(self, interval: int = 64, capacity: int = 4096) -> None:
        if interval < 1:
            raise ValueError("sample interval must be >= 1")
        if capacity < 1:
            raise ValueError("sample capacity must be >= 1")
        self.interval = interval
        self.capacity = capacity
        #: Rows evicted from the ring buffer (oldest first).
        self.dropped = 0
        self._rows: Deque[Sample] = deque(maxlen=capacity)
        self._last: Dict[str, int] = {}
        self._last_l1d_misses = 0
        self._cycles_seen = 0

    # -- collection -------------------------------------------------------

    def on_cycles_end(self, processor: "Processor", start: int,
                      stop: int) -> None:
        """Called after cycles ``start`` .. ``stop``-1 (one stepped
        cycle, or a quiet span, in which nothing a row reads changes);
        samples every Nth cycle."""
        seen = self._cycles_seen
        self._cycles_seen = seen + stop - start
        for cycle in range(start + (-seen - 1) % self.interval, stop,
                           self.interval):
            self._sample(processor, cycle)

    def _sample(self, processor: "Processor", cycle: int) -> None:
        stats = processor.stats
        deltas = {}
        for name in _DELTA_FIELDS:
            value = int(getattr(stats, name))
            deltas[name] = value - self._last.get(name, 0)
            self._last[name] = value
        l1d_misses = processor.memory.l1d.stats.misses
        miss_delta = l1d_misses - self._last_l1d_misses
        self._last_l1d_misses = l1d_misses
        committed = deltas["committed"]
        searches = deltas["sq_searches"] + deltas["lq_searches"]
        ports = max(processor.machine.lsq.search_ports, 1)
        if len(self._rows) == self.capacity:
            self.dropped += 1
        self._rows.append(Sample(
            cycle=cycle,
            committed=committed,
            ipc=committed / self.interval,
            rob_occ=len(processor.rob),
            lq_occ=len(processor.lsq.lq),
            sq_occ=len(processor.lsq.sq),
            lb_occ=len(processor.lsq.load_buffer),
            sq_searches=deltas["sq_searches"],
            lq_searches=deltas["lq_searches"],
            port_stalls=(deltas["sq_port_stalls"]
                         + deltas["lq_port_stalls"]
                         + deltas["dcache_port_stalls"]),
            l1d_misses=miss_delta,
            mpki=(miss_delta / committed * 1000.0) if committed else 0.0,
            port_util=searches / (ports * self.interval),
        ))

    # -- access / export --------------------------------------------------

    def rows(self) -> List[Sample]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def as_dicts(self) -> List[Dict[str, Union[int, float]]]:
        return [dict(row._asdict()) for row in self._rows]

    def to_csv(self) -> str:
        """CSV text: header row plus one line per sample."""
        lines = [",".join(Sample._fields)]
        for row in self._rows:
            lines.append(",".join(f"{value:.6f}"
                                  if isinstance(value, float)
                                  else str(value)
                                  for value in row))
        return "\n".join(lines) + "\n"
