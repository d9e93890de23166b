"""Reorder buffer: in-order dispatch and commit window."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.pipeline.dyninst import DynInst, InstState


class ReorderBuffer:
    """A bounded FIFO of in-flight instructions in program order."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[DynInst] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._entries)

    def __reversed__(self) -> Iterator[DynInst]:
        return reversed(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    @property
    def head(self) -> Optional[DynInst]:
        return self._entries[0] if self._entries else None

    def dispatch(self, inst: DynInst) -> None:
        if self.full:
            raise RuntimeError("dispatch into a full ROB")
        self._entries.append(inst)

    def commit_head(self) -> DynInst:
        inst = self._entries.popleft()
        inst.state = InstState.COMMITTED
        return inst

    def squash_from(self, seq: int) -> List[DynInst]:
        """Remove and return every instruction with ``seq`` or younger,
        youngest first (so dataflow state can be unwound in order)."""
        squashed: List[DynInst] = []
        while self._entries and self._entries[-1].seq >= seq:
            inst = self._entries.pop()
            inst.state = InstState.SQUASHED
            squashed.append(inst)
        return squashed
