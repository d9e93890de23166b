"""Address-stream generators for synthetic workloads.

Each static memory instruction in a synthetic program draws its
effective addresses from one of these streams.  The streams model the
locality classes that matter to the paper's mechanisms:

* :class:`StridedStream` — array sweeps (dense spatial locality; L1/L2
  behaviour controlled by the footprint).
* :class:`RandomStream` — uniformly random accesses over a region
  (controls miss rate through region size).
* :class:`PointerChaseStream` — a seeded random permutation walked one
  element at a time (mcf/art-style dependent misses).
* :class:`StackStream` — a small, heavily reused window (store-to-load
  forwarding hot spots).

All streams are deterministic given their seed so traces are
reproducible.

A pointer chase over a large region (mcf: 393,216 64-byte slots) emits
only a few hundred addresses per trace, so building the permutation is
most of the stream's cost.  The stream makes exactly the
``getrandbits`` draws of ``random.Random(seed).shuffle``, inline, over a
packed ``array`` (4 bytes a slot instead of a boxed int plus a list
pointer), then walks the shuffled order with a cursor.
"""

from __future__ import annotations

import random
from array import array


class AddressStream:
    """Base class: an infinite, deterministic sequence of addresses."""

    def next_address(self) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind the stream to its initial state."""
        raise NotImplementedError


class StridedStream(AddressStream):
    """Linear sweep ``base, base+stride, ...`` wrapping at ``footprint``."""

    def __init__(self, base: int, stride: int, footprint: int) -> None:
        if stride <= 0 or footprint <= 0:
            raise ValueError("stride and footprint must be positive")
        if footprint < stride:
            raise ValueError("footprint must cover at least one stride")
        self.base = base
        self.stride = stride
        self.footprint = footprint
        self._offset = 0

    def next_address(self) -> int:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.footprint
        return addr

    def reset(self) -> None:
        self._offset = 0


class RandomStream(AddressStream):
    """Uniform random addresses in ``[base, base+footprint)``, aligned."""

    def __init__(self, base: int, footprint: int, align: int = 8,
                 seed: int = 0) -> None:
        if footprint < align:
            raise ValueError("footprint must hold at least one element")
        self.base = base
        self.footprint = footprint
        self.align = align
        self.seed = seed
        self._rng = random.Random(seed)

    def next_address(self) -> int:
        slots = self.footprint // self.align
        return self.base + self._rng.randrange(slots) * self.align

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


def _shuffled_slots(slots: int, seed: int) -> array[int]:
    """``random.Random(seed).shuffle(list(range(slots)))``, packed.

    CPython's ``shuffle`` (3.9-3.12) swaps ``x[i]`` with ``x[j]`` for
    ``i`` from ``slots - 1`` down to 1, where ``j`` is ``getrandbits(k)``
    with ``k = (i + 1).bit_length()``, redrawn while ``j > i``.  This
    loop makes exactly those calls, with ``k`` hoisted over each
    power-of-two band of ``i``; ``tests/test_addrgen.py`` pins the result
    against ``shuffle`` itself.
    """
    order = array("I", range(slots))
    getrandbits = random.Random(seed).getrandbits
    for k in range(slots.bit_length(), 1, -1):
        # i + 1 spans [2**(k-1), 2**k - 1] in this band.
        for i in range(min(slots, (1 << k) - 1) - 1, (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
    return order


class PointerChaseStream(AddressStream):
    """Walk a seeded random permutation of ``footprint // align`` slots.

    Successive addresses are data-dependent in real pointer chasing; the
    synthetic program models that by making the chasing load feed the
    next iteration's address register.  The walk visits every slot once,
    in shuffled order, before it repeats.
    """

    def __init__(self, base: int, footprint: int, align: int = 8,
                 seed: int = 0) -> None:
        slots = footprint // align
        if slots < 2:
            raise ValueError("pointer chase needs at least two slots")
        self.base = base
        self.align = align
        self.seed = seed
        self._order = _shuffled_slots(slots, seed)
        self._cursor = 0

    def next_address(self) -> int:
        addr = self.base + self._order[self._cursor] * self.align
        self._cursor = (self._cursor + 1) % len(self._order)
        return addr

    def reset(self) -> None:
        self._cursor = 0


class StackStream(AddressStream):
    """Hot reuse of a handful of slots (spill/fill style traffic).

    Addresses cycle pseudo-randomly through ``slots`` aligned locations,
    so a store and a later load using the same stream at the same phase
    hit identical addresses — the raw material for store-to-load
    forwarding.
    """

    def __init__(self, base: int, slots: int = 8, align: int = 8,
                 seed: int = 0) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        self.base = base
        self.slots = slots
        self.align = align
        self.seed = seed
        self._rng = random.Random(seed)

    def next_address(self) -> int:
        return self.base + self._rng.randrange(self.slots) * self.align

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


def paired_streams(factory, lag: int = 0):
    """Create a (producer, consumer) pair of identical streams.

    ``factory()`` must build a fresh, deterministic stream.  The producer
    (typically a store) is pre-advanced by ``lag`` addresses, so when
    producer and consumer are stepped once per loop iteration the
    consumer's address in iteration *i* equals the producer's address in
    iteration *i - lag*: the load reads what the store wrote ``lag``
    iterations ago — an in-flight store-load pair whenever ``lag``
    iterations fit in the instruction window.
    """
    if lag < 0:
        raise ValueError("lag must be >= 0")
    producer = factory()
    consumer = factory()
    for _ in range(lag):
        producer.next_address()
    return producer, consumer
