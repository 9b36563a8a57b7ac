"""Network construction: populations, projections, global neuron ids.

A :class:`Network` is a list of named populations (source or neuron) wired
by projections.  Populations get contiguous global neuron-id ranges in the
order they are added; all downstream artifacts (spike graphs, partitions,
hardware mappings) index neurons by these global ids.

Populations also carry a ``layer`` index.  Layering is the structural
information the PACMAN baseline exploits (it packs populations onto cores
in layer order), and it lets synthetic workload generators label their
feedforward depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.snn.generators import PoissonSource, ScheduledSource
from repro.snn.neuron import NeuronModel
from repro.utils.validation import check_finite, check_positive


@dataclass
class Population:
    """A named group of neurons sharing a model (or a spike source).

    Exactly one of ``model`` / ``source`` is set; a source is a
    :class:`PoissonSource` or a :class:`ScheduledSource`.
    """

    name: str
    size: int
    model: Optional[NeuronModel] = None
    source: Optional[Union[PoissonSource, ScheduledSource]] = None
    layer: int = 0
    id_offset: int = field(default=-1, init=False)

    def __post_init__(self) -> None:
        check_positive(f"population {self.name!r} size", self.size)
        if (self.model is None) == (self.source is None):
            raise ValueError(
                f"population {self.name!r} must set exactly one of model/source"
            )
        if self.source is None:
            return
        if not isinstance(self.source, (PoissonSource, ScheduledSource)):
            raise TypeError(
                f"population {self.name!r}: source must be a PoissonSource or "
                f"a ScheduledSource, got {type(self.source).__name__}"
            )
        if self.source.size != self.size:
            raise ValueError(
                f"population {self.name!r} size {self.size} != source size "
                f"{self.source.size}"
            )

    @property
    def is_source(self) -> bool:
        return self.source is not None


@dataclass
class Projection:
    """Weighted synaptic connection from ``pre`` to ``post``.

    ``weights`` has shape ``(pre.size, post.size)``; zero entries are
    absent synapses.  ``delay_ms`` is a whole number of ticks at the
    simulator's dt.  ``plastic`` marks the projection as trainable by an
    attached STDP rule.
    """

    pre: Population
    post: Population
    weights: np.ndarray
    delay_ms: float = 1.0
    plastic: bool = False
    name: Optional[str] = None

    def __post_init__(self) -> None:
        expected = (self.pre.size, self.post.size)
        if self.weights.shape != expected:
            raise ValueError(
                f"projection {self.describe()}: weights shape {self.weights.shape} "
                f"!= (pre.size, post.size) = {expected}"
            )
        check_finite(f"projection {self.describe()}: delay_ms", self.delay_ms)
        check_positive(f"projection {self.describe()}: delay_ms", self.delay_ms)
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def describe(self) -> str:
        return self.name or f"{self.pre.name}->{self.post.name}"

    def synapse_count(self) -> int:
        return int(np.count_nonzero(self.weights))


class Network:
    """A complete SNN specification: populations + projections.

    Example
    -------
    >>> from repro.snn import Network, LIFModel, PoissonSource
    >>> net = Network("demo")
    >>> src = net.add_source("in", PoissonSource(10, 50.0))
    >>> out = net.add_population("out", 5, LIFModel())
    >>> _ = net.connect(src, out, weights=np.full((10, 5), 8.0))
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.populations: List[Population] = []
        self.projections: List[Projection] = []
        self._by_name: Dict[str, Population] = {}
        self._n_neurons = 0

    # -- construction ------------------------------------------------------

    def add_population(
        self,
        name: str,
        size: int,
        model: NeuronModel,
        layer: int = 0,
    ) -> Population:
        """Add a dynamical population and assign its global id range."""
        pop = Population(name=name, size=size, model=model, layer=layer)
        return self._register(pop)

    def add_source(
        self, name: str, source: Union[PoissonSource, ScheduledSource], layer: int = 0
    ) -> Population:
        """Add a stimulus population backed by ``source``."""
        pop = Population(name=name, size=source.size, source=source, layer=layer)
        return self._register(pop)

    def _register(self, pop: Population) -> Population:
        if pop.name in self._by_name:
            raise ValueError(f"duplicate population name {pop.name!r}")
        pop.id_offset = self._n_neurons
        self._n_neurons += pop.size
        self.populations.append(pop)
        self._by_name[pop.name] = pop
        return pop

    def connect(
        self,
        pre: Union[str, Population],
        post: Union[str, Population],
        weights: np.ndarray,
        delay_ms: float = 1.0,
        plastic: bool = False,
        name: Optional[str] = None,
    ) -> Projection:
        """Wire ``pre`` to ``post`` with an explicit weight matrix."""
        proj = Projection(
            pre=self.population(pre),
            post=self.population(post),
            weights=np.asarray(weights, dtype=np.float64),
            delay_ms=delay_ms,
            plastic=plastic,
            name=name,
        )
        self.projections.append(proj)
        return proj

    # -- queries -----------------------------------------------------------

    def population(self, ref: Union[str, Population]) -> Population:
        """Resolve a population by name or pass one through, validating ownership."""
        if isinstance(ref, Population):
            if self._by_name.get(ref.name) is not ref:
                raise ValueError(
                    f"population {ref.name!r} does not belong to network {self.name!r}"
                )
            return ref
        if ref not in self._by_name:
            raise KeyError(f"no population named {ref!r} in network {self.name!r}")
        return self._by_name[ref]

    @property
    def n_neurons(self) -> int:
        """Total neurons across all populations (sources included)."""
        return self._n_neurons

    def neuron_layers(self) -> np.ndarray:
        """Layer index of each global neuron id."""
        layers = np.zeros(self._n_neurons, dtype=np.int64)
        for pop in self.populations:
            layers[pop.id_offset : pop.id_offset + pop.size] = pop.layer
        return layers

    def synapse_count(self) -> int:
        """Total realized synapses over all projections."""
        return sum(proj.synapse_count() for proj in self.projections)

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All synapses as parallel arrays ``(src_gid, dst_gid, weight)``."""
        srcs, dsts, ws = [], [], []
        for proj in self.projections:
            pre_idx, post_idx = np.nonzero(proj.weights)
            srcs.append(pre_idx + proj.pre.id_offset)
            dsts.append(post_idx + proj.post.id_offset)
            ws.append(proj.weights[pre_idx, post_idx])
        if not srcs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=np.float64)
        return (
            np.concatenate(srcs),
            np.concatenate(dsts),
            np.concatenate(ws),
        )

    def summary(self) -> str:
        """Human-readable one-line-per-population/projection description."""
        lines = [f"Network {self.name!r}: {self.n_neurons} neurons"]
        for pop in self.populations:
            kind = "source" if pop.is_source else type(pop.model).__name__
            lines.append(
                f"  population {pop.name!r}: size={pop.size} layer={pop.layer} "
                f"kind={kind} gids=[{pop.id_offset}, {pop.id_offset + pop.size})"
            )
        for proj in self.projections:
            lines.append(
                f"  projection {proj.describe()}: {proj.synapse_count()} synapses, "
                f"delay={proj.delay_ms}ms{' (plastic)' if proj.plastic else ''}"
            )
        return "\n".join(lines)
