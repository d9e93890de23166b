"""Trace container and on-disk format.

A :class:`Trace` is an indexable sequence of dynamic
:class:`~repro.workload.isa.Instruction` objects plus a name.  The
simulator requires random access because recovery from memory-order
violations rewinds the fetch pointer and replays instructions.

Traces can be saved to and loaded from a compact binary format
(``.lsqtrace``) so expensive synthetic generations can be reused across
experiment runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from repro.workload.isa import NO_REG, Instruction, OpClass

_MAGIC = b"LSQT"
_VERSION = 2
_HEADER = struct.Struct("<4sHI")
# pc, op, dest, src1, src2, src3, addr, size, flags(taken), target
_RECORD = struct.Struct("<QBbbbbqHBQ")


@dataclass
class TraceStats:
    """Instruction-mix summary of a trace."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    fp_ops: int = 0

    @property
    def load_fraction(self) -> float:
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        return self.stores / self.instructions if self.instructions else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.instructions if self.instructions else 0.0


class Trace(Sequence[Instruction]):
    """An immutable sequence of dynamic instructions.

    ``cold_regions`` lists address ranges ``(lo, hi)`` that would *not*
    be cache-resident in steady state (huge random/pointer-chased
    regions); the simulator's cache warm-up skips them so their misses
    are preserved.
    """

    def __init__(self, instructions: Iterable[Instruction],
                 name: str = "anonymous",
                 cold_regions: Iterable[tuple] = ()) -> None:
        self._instructions: List[Instruction] = list(instructions)
        self.name = name
        self.cold_regions = tuple(tuple(r) for r in cold_regions)

    def is_cold_address(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self.cold_regions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._instructions[index], name=self.name,
                         cold_regions=self.cold_regions)
        return self._instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, instructions={len(self)})"

    def stats(self) -> TraceStats:
        """Compute the instruction-mix summary."""
        stats = TraceStats(instructions=len(self))
        for inst in self._instructions:
            if inst.is_load:
                stats.loads += 1
            elif inst.is_store:
                stats.stores += 1
            elif inst.is_branch:
                stats.branches += 1
            if inst.op.is_fp:
                stats.fp_ops += 1
        return stats

    # -- serialisation --------------------------------------------------

    def save(self, path) -> None:
        """Write the trace in the binary ``.lsqtrace`` format."""
        name_bytes = self.name.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, len(self)))
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<H", len(self.cold_regions)))
            for lo, hi in self.cold_regions:
                fh.write(struct.pack("<QQ", lo, hi))
            for inst in self._instructions:
                if len(inst.srcs) > 3:
                    raise ValueError("trace format supports at most 3 sources")
                srcs = list(inst.srcs) + [NO_REG] * (3 - len(inst.srcs))
                fh.write(_RECORD.pack(
                    inst.pc, int(inst.op), inst.dest,
                    srcs[0], srcs[1], srcs[2],
                    inst.addr, inst.size, int(inst.taken), inst.target,
                ))

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a trace written by :meth:`save`.

        Raises :class:`ValueError` naming the file (and, for a truncated
        body, the record) when the input is not a complete trace.
        """
        with open(path, "rb") as fh:
            def read_header(size: int) -> bytes:
                data = fh.read(size)
                if len(data) < size:
                    raise ValueError(f"{path}: truncated header")
                return data

            magic, version, count = _HEADER.unpack(read_header(_HEADER.size))
            if magic != _MAGIC:
                raise ValueError(f"{path}: not an .lsqtrace file")
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            (name_len,) = struct.unpack("<H", read_header(2))
            name = read_header(name_len).decode("utf-8")
            (n_regions,) = struct.unpack("<H", read_header(2))
            cold_regions = [struct.unpack("<QQ", read_header(16))
                            for _ in range(n_regions)]
            body = fh.read(count * _RECORD.size)
        if len(body) < count * _RECORD.size:
            raise ValueError(f"{path}: truncated record "
                             f"{len(body) // _RECORD.size} of {count}")
        instructions = []
        for (pc, op, dest, s0, s1, s2, addr, size, taken,
             target) in _RECORD.iter_unpack(body):
            srcs = tuple(s for s in (s0, s1, s2) if s != NO_REG)
            instructions.append(Instruction(
                pc=pc, op=OpClass(op), dest=dest, srcs=srcs, addr=addr,
                size=size, taken=bool(taken), target=target,
            ))
        return cls(instructions, name=name, cold_regions=cold_regions)


def concatenate(traces: Iterable[Trace], name: str = "concat") -> Trace:
    """Join several traces into one."""
    instructions: List[Instruction] = []
    for trace in traces:
        instructions.extend(trace)
    return Trace(instructions, name=name)
