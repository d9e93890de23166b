"""Physical register file accounting (Table 1: 356 INT / 356 FP).

The paper sizes the register files generously (356 + 356 against a
256-entry ROB) precisely so they never throttle the window; this module
models the free lists anyway so the constraint is enforced rather than
assumed.  Renaming itself is implicit in the simulator's dataflow
(RAW dependences resolve through per-register last-writer tracking,
which is what a rename table computes).
"""

from __future__ import annotations

from repro.workload.isa import FP_REG_BASE, NO_REG


class RegisterFile:
    """Free-list accounting for one physical register file pair."""

    def __init__(self, int_registers: int, fp_registers: int,
                 arch_registers: int = 32) -> None:
        if int_registers <= arch_registers or fp_registers <= arch_registers:
            raise ValueError("need more physical than architectural registers")
        self._int_free = int_registers - arch_registers
        self._fp_free = fp_registers - arch_registers
        self.rename_stalls = 0

    @staticmethod
    def _is_fp(reg: int) -> bool:
        return reg >= FP_REG_BASE

    def note_rename_stall(self, cycles: int = 1) -> None:
        """Record ``cycles`` dispatch cycles lost to an empty free list."""
        self.rename_stalls += cycles

    def can_rename(self, dest: int) -> bool:
        if dest == NO_REG:
            return True
        if self._is_fp(dest):
            return self._fp_free > 0
        return self._int_free > 0

    def rename(self, dest: int) -> None:
        """Claim a physical register for ``dest`` (NO_REG is free)."""
        if dest == NO_REG:
            return
        if self._is_fp(dest):
            if self._fp_free <= 0:
                raise RuntimeError("FP register file exhausted")
            self._fp_free -= 1
        else:
            if self._int_free <= 0:
                raise RuntimeError("INT register file exhausted")
            self._int_free -= 1

    def release(self, dest: int) -> None:
        """Return the previous mapping's register (at commit or squash)."""
        if dest == NO_REG:
            return
        if self._is_fp(dest):
            self._fp_free += 1
        else:
            self._int_free += 1
