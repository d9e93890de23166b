"""Functional-unit pools (Table 1: 8 integer, 8 pipelined floating point).

All units are fully pipelined, so each unit accepts one new operation
per cycle: availability is a per-cycle issue-slot count per pool.
Integer units double as address-generation units for memory operations
and as branch-resolution units, which matches the paper's configuration
(no separate AGU pool is listed).
"""

from __future__ import annotations

from repro.workload.isa import OpClass

#: ``True`` for op classes executed by the FP pool, indexable by the
#: ``OpClass`` value (replaces a tuple-membership test on the hot path).
_USES_FP_POOL = tuple(op in (OpClass.FP_ALU, OpClass.FP_MUL)
                      for op in OpClass)


class FunctionalUnits:
    """Per-cycle issue-slot accounting for the INT and FP pools."""

    def __init__(self, int_units: int, fp_units: int) -> None:
        if int_units <= 0 or fp_units <= 0:
            raise ValueError("unit counts must be positive")
        self.int_units = int_units
        self.fp_units = fp_units
        self._cycle = -1
        self._int_used = 0
        self._fp_used = 0

    def _roll(self, cycle: int) -> None:
        if cycle != self._cycle:
            self._cycle = cycle
            self._int_used = 0
            self._fp_used = 0

    @staticmethod
    def pool_for(op: OpClass) -> str:
        """Which pool executes ``op`` ("int" or "fp")."""
        if _USES_FP_POOL[op]:
            return "fp"
        # Loads/stores (including FP loads/stores) use integer units for
        # address generation; branches resolve on integer units.
        return "int"

    def try_issue(self, op: OpClass, cycle: int) -> bool:
        """Claim a unit slot for this cycle; False when the pool is busy."""
        self._roll(cycle)
        if _USES_FP_POOL[op]:
            if self._fp_used >= self.fp_units:
                return False
            self._fp_used += 1
            return True
        if self._int_used >= self.int_units:
            return False
        self._int_used += 1
        return True
