"""Input-buffered router model.

Each router owns one bounded FIFO per incoming link plus an unbounded local
injection queue.  Arbitration is round-robin over input ports: the starting
port rotates every cycle so no port starves.  One packet may leave through
each output port per cycle, and one packet may be ejected to the local
crossbar per cycle (configurable), matching a single-crossbar-decoder tile.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

from repro.noc.buffer import ChannelBuffer
from repro.noc.packet import SpikePacket

LOCAL_PORT = "local"
PortKey = Union[int, str]


class Router:
    """One switching element of the interconnect."""

    def __init__(self, node: int, neighbors: Iterable[int], buffer_capacity: int) -> None:
        self.node = node
        self.buffers: Dict[PortKey, ChannelBuffer] = {
            LOCAL_PORT: ChannelBuffer(capacity=None)
        }
        for nb in sorted(neighbors):
            self.buffers[nb] = ChannelBuffer(capacity=buffer_capacity)
        # Port scan order is fixed; the rotation offset changes per cycle.
        self._port_order: List[PortKey] = [LOCAL_PORT] + sorted(
            p for p in self.buffers if p != LOCAL_PORT
        )

    def occupied(self) -> bool:
        return any(self.buffers.values())

    def ports_in_arbitration_order(self, cycle: int) -> List[PortKey]:
        """Input ports rotated by the cycle counter (round-robin fairness)."""
        n = len(self._port_order)
        start = cycle % n
        return self._port_order[start:] + self._port_order[:start]

    def accept(self, from_node: PortKey, packet: SpikePacket) -> None:
        """Enqueue an arriving packet on the buffer of its incoming port."""
        self.buffers[from_node].push(packet)

    def peak_link_occupancy(self) -> int:
        """High-water mark across bounded (link) buffers only."""
        peaks = [
            b.peak for port, b in self.buffers.items() if port != LOCAL_PORT
        ]
        return max(peaks) if peaks else 0
