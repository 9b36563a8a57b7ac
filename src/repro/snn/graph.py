"""The spike graph: the paper's G = (A, S) specification (Section III).

A trained SNN is handed to the partitioner as a graph whose nodes are
neurons and whose edges are synapses annotated with the spike times the
pre-synaptic neuron emits (the tuple <a_i, a_j, T_ij> of the paper).  The
per-synapse *traffic* — how many spikes that synapse would place on the
interconnect if it were global — is ``len(T_ij)``.

:class:`SpikeGraph` is the single artifact every partitioner and the NoC
traffic generator consume, whether it came from a simulation
(:meth:`SpikeGraph.from_simulation`) or was constructed synthetically
(:meth:`SpikeGraph.from_edges`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.snn.network import Network
from repro.snn.simulator import SimulationResult
from repro.utils.validation import check_index_range

if TYPE_CHECKING:  # exporters import networkx on call; a default run never loads it
    import networkx as nx


@dataclass
class SpikeGraph:
    """Trained-SNN specification consumed by partitioners.

    Attributes
    ----------
    n_neurons:
        Total neuron count; node ids are ``0 .. n_neurons - 1``.
    src, dst:
        Parallel int arrays of synapse endpoints (pre, post).
    weight:
        Synaptic weights (sign encodes excitatory/inhibitory).
    traffic:
        Spikes carried per synapse over the profiled window
        (``len(T_ij)``); the quantity the PSO fitness sums (Eq. 7-8).
    spike_times:
        Per-neuron sorted spike time arrays (ms).  Required by the NoC
        traffic generator; synthetic graphs may approximate them.
    layers:
        Per-neuron layer index (feedforward depth); used by the PACMAN
        baseline.  ``0`` everywhere when unknown.
    name:
        Label used in reports.
    """

    n_neurons: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    traffic: np.ndarray
    spike_times: List[np.ndarray]
    layers: np.ndarray
    name: str = "spike_graph"
    coding: str = "rate"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.traffic = np.asarray(self.traffic, dtype=np.float64)
        self.layers = np.asarray(self.layers, dtype=np.int64)
        self.validate()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        network: Network,
        result: SimulationResult,
        name: Optional[str] = None,
        coding: str = "rate",
    ) -> "SpikeGraph":
        """Build the graph from a simulated network.

        Per-synapse traffic is the pre-synaptic neuron's spike count — every
        pre spike must be conveyed to every post target of that neuron.
        The counts come from ``result.spike_counts()``, which the columnar
        engine caches as one bincount over its (neuron, tick) spike
        columns — no per-neuron length walk at paper scale.
        """
        if result.n_neurons != network.n_neurons:
            raise ValueError(
                f"simulation recorded {result.n_neurons} neurons but network "
                f"has {network.n_neurons}"
            )
        src, dst, weight = network.edges()
        counts = result.spike_counts()
        traffic = counts[src].astype(np.float64)
        return cls(
            n_neurons=network.n_neurons,
            src=src,
            dst=dst,
            weight=weight,
            traffic=traffic,
            spike_times=[t.copy() for t in result.spike_times],
            layers=network.neuron_layers(),
            name=name or network.name,
            coding=coding,
            metadata={"duration_ms": result.duration_ms, "dt": result.dt},
        )

    @classmethod
    def from_edges(
        cls,
        n_neurons: int,
        src: Sequence[int],
        dst: Sequence[int],
        traffic: Sequence[float],
        weight: Optional[Sequence[float]] = None,
        spike_times: Optional[List[np.ndarray]] = None,
        layers: Optional[Sequence[int]] = None,
        name: str = "synthetic",
        coding: str = "rate",
    ) -> "SpikeGraph":
        """Build a graph directly from edge arrays (synthetic workloads)."""
        src = np.asarray(src, dtype=np.int64)
        if weight is None:
            weight = np.ones(src.shape[0], dtype=np.float64)
        if spike_times is None:
            spike_times = [np.empty(0, dtype=np.float64) for _ in range(n_neurons)]
        if layers is None:
            layers = np.zeros(n_neurons, dtype=np.int64)
        return cls(
            n_neurons=n_neurons,
            src=src,
            dst=np.asarray(dst, dtype=np.int64),
            weight=np.asarray(weight, dtype=np.float64),
            traffic=np.asarray(traffic, dtype=np.float64),
            spike_times=spike_times,
            layers=np.asarray(layers, dtype=np.int64),
            name=name,
            coding=coding,
        )

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violation."""
        n_edges = self.src.shape[0]
        for attr in ("dst", "weight", "traffic"):
            arr = getattr(self, attr)
            if arr.shape[0] != n_edges:
                raise ValueError(
                    f"{attr} has {arr.shape[0]} entries, expected {n_edges}"
                )
        check_index_range("src", self.src, self.n_neurons)
        check_index_range("dst", self.dst, self.n_neurons)
        if (self.traffic < 0).any():
            raise ValueError("synapse traffic must be non-negative")
        if len(self.spike_times) != self.n_neurons:
            raise ValueError(
                f"spike_times has {len(self.spike_times)} entries, expected "
                f"{self.n_neurons}"
            )
        if self.layers.shape[0] != self.n_neurons:
            raise ValueError(
                f"layers has {self.layers.shape[0]} entries, expected "
                f"{self.n_neurons}"
            )

    # -- queries ---------------------------------------------------------------

    @property
    def n_synapses(self) -> int:
        return int(self.src.shape[0])

    def total_traffic(self) -> float:
        """Sum of per-synapse spike counts — the fitness upper bound
        (every synapse global)."""
        return float(self.traffic.sum())

    def spike_counts(self) -> np.ndarray:
        """Spikes emitted per neuron."""
        return np.fromiter(
            (t.size for t in self.spike_times),
            dtype=np.int64,
            count=self.n_neurons,
        )

    def out_degree(self) -> np.ndarray:
        """Synapse out-degree per neuron."""
        return np.bincount(self.src, minlength=self.n_neurons)

    def in_degree(self) -> np.ndarray:
        """Synapse in-degree per neuron."""
        return np.bincount(self.dst, minlength=self.n_neurons)

    def neuron_out_traffic(self) -> np.ndarray:
        """Total synapse traffic originating from each neuron."""
        return np.bincount(
            self.src, weights=self.traffic, minlength=self.n_neurons
        )

    def to_networkx(self) -> nx.DiGraph:
        """Export as a networkx DiGraph with traffic/weight edge attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(range(self.n_neurons))
        for s, d, w, t in zip(self.src, self.dst, self.weight, self.traffic):
            if g.has_edge(int(s), int(d)):
                g[int(s)][int(d)]["traffic"] += float(t)
            else:
                g.add_edge(int(s), int(d), weight=float(w), traffic=float(t))
        return g

    def undirected_traffic(self) -> nx.Graph:
        """Symmetrized traffic as a networkx Graph: parallel and opposite
        synapses merge into one ``traffic``-weighted edge, self-loops drop."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(range(self.n_neurons))
        for s, d, t in zip(self.src, self.dst, self.traffic):
            s, d = int(s), int(d)
            if s == d:
                continue
            if g.has_edge(s, d):
                g[s][d]["traffic"] += float(t)
            else:
                g.add_edge(s, d, traffic=float(t))
        return g

    def describe(self) -> str:
        counts = self.spike_counts()
        return (
            f"SpikeGraph {self.name!r}: {self.n_neurons} neurons, "
            f"{self.n_synapses} synapses, total traffic "
            f"{self.total_traffic():.0f} spikes, "
            f"{int(counts.sum())} spikes recorded, coding={self.coding}"
        )
