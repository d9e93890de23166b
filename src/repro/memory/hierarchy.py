"""The L1/L2/memory stack of Table 1.

Timing model: an access that hits in L1 costs ``l1.hit_latency``; an L1
miss adds the L2 hit latency; an L2 miss adds the main-memory latency.
All levels are pipelined, so concurrent misses overlap (the paper
deliberately provisions a 4-ported L1-D so the cache never throttles the
load/store queue; miss overlap follows the same spirit).

Port accounting is per cycle: ``try_reserve_port`` grants up to
``config.ports`` accesses in one cycle and must be called with
monotonically non-decreasing cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import MemoryConfig
from repro.memory.cache import Cache


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a data access: total latency and the level that served it."""

    latency: int
    level: str  # "L1", "L2", or "MEM"

    @property
    def l1_hit(self) -> bool:
        return self.level == "L1"


class _PortMeter:
    """Per-cycle port usage counter; ``exhausted`` counts the cycles
    whose ports were all taken."""

    def __init__(self, ports: int) -> None:
        self.ports = ports
        self._cycle = -1
        self._used = 0
        self.exhausted = 0

    def try_reserve(self, cycle: int) -> bool:
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0
        if self._used >= self.ports:
            return False
        self._used += 1
        if self._used == self.ports:
            self.exhausted += 1
        return True

    def available(self, cycle: int) -> bool:
        """Peek without reserving."""
        return cycle != self._cycle or self._used < self.ports


class MemoryHierarchy:
    """Instruction and data paths through the Table 1 hierarchy."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.l1i = Cache(config.l1i, "L1-I")
        self.l1d = Cache(config.l1d, "L1-D")
        self.l2 = Cache(config.l2, "L2")
        self.d_ports = _PortMeter(config.l1d.ports)
        self.i_ports = _PortMeter(config.l1i.ports)
        # In-flight L1-D misses (block -> data-ready cycle) when MSHRs
        # are modelled; accesses to an in-flight block merge onto it.
        self._outstanding: Dict[int, int] = {}
        self.mshr_merges = 0
        self.mshr_queue_delays = 0

    # -- data side -------------------------------------------------------

    def try_reserve_data_port(self, cycle: int) -> bool:
        """Claim one L1-D port for this cycle (False when exhausted)."""
        return self.d_ports.try_reserve(cycle)

    def data_access(self, addr: int, write: bool = False,
                    cycle: Optional[int] = None) -> AccessResult:
        """Access the data path, filling caches on the way back.

        With ``l1d_mshrs`` configured and ``cycle`` supplied, misses are
        subject to MSHR semantics: an access to a block already in
        flight *merges* (its latency is the remaining time of that
        miss), and a miss arriving while all MSHRs are busy queues
        behind the earliest-completing one.
        """
        if self.l1d.lookup(addr, write=write):
            # Tags fill eagerly in this model, so an access to a block
            # whose miss is still in flight *hits* here; with MSHRs
            # modelled it must instead merge onto the outstanding miss.
            if self.config.l1d_mshrs and cycle is not None:
                ready = self._outstanding.get(addr >> 6)
                if ready is not None and ready > cycle:
                    self.mshr_merges += 1
                    return AccessResult(
                        max(ready - cycle, self.config.l1d.hit_latency),
                        "L1")
            return AccessResult(self.config.l1d.hit_latency, "L1")
        if self.l2.lookup(addr):
            self._fill_l1d(addr, write)
            latency = self.config.l1d.hit_latency + self.config.l2.hit_latency
            return self._missed(addr, latency, "L2", cycle)
        self.l2.fill(addr)
        self._fill_l1d(addr, write)
        latency = (self.config.l1d.hit_latency + self.config.l2.hit_latency
                   + self.config.memory_latency)
        return self._missed(addr, latency, "MEM", cycle)

    def _missed(self, addr: int, latency: int, level: str,
                cycle: Optional[int]) -> AccessResult:
        mshrs = self.config.l1d_mshrs
        if not mshrs or cycle is None:
            return AccessResult(latency, level)
        block = addr >> 6
        ready = self._outstanding.get(block)
        if ready is not None and ready > cycle:
            # Merge onto the in-flight miss for this block.
            self.mshr_merges += 1
            return AccessResult(max(ready - cycle,
                                    self.config.l1d.hit_latency), level)
        live = sorted(r for r in self._outstanding.values() if r > cycle)
        if len(self._outstanding) > 4 * mshrs:
            self._outstanding = {b: r for b, r in self._outstanding.items()
                                 if r > cycle}
        delay = 0
        if len(live) >= mshrs:
            # All MSHRs busy: queue behind the one freeing soonest.
            delay = live[len(live) - mshrs] - cycle
            self.mshr_queue_delays += 1
        self._outstanding[block] = cycle + delay + latency
        return AccessResult(delay + latency, level)

    def _fill_l1d(self, addr: int, write: bool) -> None:
        victim = self.l1d.fill(addr, dirty=write)
        if victim is not None:
            # Dirty victim written back into L2 (timing-neutral here).
            self.l2.fill(victim, dirty=True)

    # -- instruction side --------------------------------------------------

    def instruction_access(self, pc: int) -> AccessResult:
        """Access the instruction path (fetch)."""
        if self.l1i.lookup(pc):
            return AccessResult(self.config.l1i.hit_latency, "L1")
        if self.l2.lookup(pc):
            self.l1i.fill(pc)
            latency = self.config.l1i.hit_latency + self.config.l2.hit_latency
            return AccessResult(latency, "L2")
        self.l2.fill(pc)
        self.l1i.fill(pc)
        latency = (self.config.l1i.hit_latency + self.config.l2.hit_latency
                   + self.config.memory_latency)
        return AccessResult(latency, "MEM")
