"""Bounded FIFO channel buffers.

Each router input port owns one :class:`ChannelBuffer`.  Link buffers are
bounded (Noxim's ``buffer_size`` parameter); injection queues are unbounded
because the encoder side of a crossbar can always hold spikes awaiting
network admission (Noxim models the source queue the same way).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional

from repro.noc.packet import SpikePacket


class ChannelBuffer:
    """FIFO of packets with optional capacity.

    ``capacity=None`` means unbounded (injection queues).  ``peak`` tracks
    the high-water mark for congestion reporting.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: Deque[SpikePacket] = deque()
        self.peak = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def has_space(self, extra: int = 0) -> bool:
        """Whether one more packet fits, given ``extra`` already-staged arrivals."""
        if self.capacity is None:
            return True
        return len(self._items) + extra < self.capacity

    def push(self, packet: SpikePacket) -> None:
        if not self.has_space():
            raise OverflowError("push to a full channel buffer")
        self._items.append(packet)
        self.peak = max(self.peak, len(self._items))

    def clear(self) -> None:
        """Drop queued packets and the high-water mark (start of a run)."""
        self._items.clear()
        self.peak = 0

    def head(self) -> SpikePacket:
        return self._items[0]

    def pop(self) -> SpikePacket:
        return self._items.popleft()

    def replace_head(self, replacements: Iterable[SpikePacket]) -> None:
        """Swap the head packet for one or more packets (multicast fork).

        The replacements keep the head position in order, so forking does
        not reorder traffic behind the forked packet.  Forking may
        transiently exceed capacity; this mirrors a fork inside the router
        crossbar rather than in the channel, so it does not consume
        downstream credit.
        """
        self._items.popleft()
        for pkt in reversed(list(replacements)):
            self._items.appendleft(pkt)
        self.peak = max(self.peak, len(self._items))
