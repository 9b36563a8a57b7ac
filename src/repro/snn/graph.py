"""The spike graph: the paper's G = (A, S) specification (Section III).

A trained SNN is handed to the partitioner as a graph whose nodes are
neurons and whose edges are synapses annotated with the spike times the
pre-synaptic neuron emits (the tuple <a_i, a_j, T_ij> of the paper).  The
per-synapse *traffic* — how many spikes that synapse would place on the
interconnect if it were global — is ``len(T_ij)``.

:class:`SpikeGraph` is the single artifact every partitioner and the NoC
traffic generator consume, whether it came from a simulation
(:meth:`SpikeGraph.from_simulation`) or was constructed synthetically
(:meth:`SpikeGraph.from_edges`), and cannot change once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.snn.network import Network
from repro.snn.simulator import SimulationResult
from repro.utils.validation import check_index_range

if TYPE_CHECKING:  # exporters import networkx on call; a default run never loads it
    import networkx as nx


#: The array fields of :class:`SpikeGraph` and their dtypes.
_ARRAYS = dict(
    src=np.int64, dst=np.int64, weight=np.float64, traffic=np.float64, layers=np.int64
)


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array: adopted when it already
    is one, copied once when the caller could still write to it."""
    adopt = isinstance(values, np.ndarray) and values.dtype == dtype
    if not adopt or values.flags.writeable:
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class SpikeGraph:
    """Trained-SNN specification consumed by partitioners.

    Immutable from birth: every array, each ``spike_times`` entry too, is
    read-only (a writable input is copied once, a read-only one adopted),
    ``spike_times`` is a tuple, reassigning a field raises, and unpickled
    or deep-copied graphs are frozen again.  ``dataclasses.replace``
    edits a graph by building a new one.  Equality is identity.

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
        Tuple of per-neuron sorted float64 spike time arrays (ms).  Required
        by the NoC traffic generator; synthetic graphs may approximate them.
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
    spike_times: Tuple[np.ndarray, ...]
    layers: np.ndarray
    name: str = "spike_graph"
    coding: str = "rate"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, dtype in _ARRAYS.items():
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        spike_times = tuple(_read_only(t, np.float64) for t in self.spike_times)
        object.__setattr__(self, "spike_times", spike_times)
        self.validate()

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)  # unpickled / deep-copied arrays: writable
        for array in (*(state[name] for name in _ARRAYS), *self.spike_times):
            array.flags.writeable = False

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
        for built_here in (src, dst, weight, traffic):
            built_here.flags.writeable = False  # adopted, not copied again
        return cls(
            n_neurons=network.n_neurons,
            src=src,
            dst=dst,
            weight=weight,
            traffic=traffic,
            spike_times=result.spike_times,
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
        spike_times: Optional[Sequence[np.ndarray]] = None,
        layers: Optional[Sequence[int]] = None,
        name: str = "synthetic",
        coding: str = "rate",
    ) -> "SpikeGraph":
        """Build a graph directly from edge arrays (synthetic workloads)."""
        if weight is None:
            weight = np.ones(len(src))
        if spike_times is None:
            spike_times = (_read_only((), np.float64),) * n_neurons
        if layers is None:
            layers = np.zeros(n_neurons, dtype=np.int64)
        return cls(
            n_neurons, src, dst, weight, traffic, spike_times, layers, name, coding
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
                f"layers has {self.layers.shape[0]} entries, expected {self.n_neurons}"
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

    def neuron_out_traffic(self) -> np.ndarray:
        """Total synapse traffic originating from each neuron."""
        return np.bincount(self.src, weights=self.traffic, minlength=self.n_neurons)

    def to_networkx(self) -> nx.DiGraph:
        """Export as a networkx DiGraph with traffic/weight edge attributes
        (networkx comes with the ``test`` extra, not at run time)."""
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
        """Symmetrized traffic as a networkx Graph (needs the ``test`` extra):
        parallel and opposite synapses merge into one ``traffic``-weighted
        edge, self-loops drop."""
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
