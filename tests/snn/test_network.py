"""Tests for Network / Population / Projection construction."""

import numpy as np
import pytest

from repro.snn.generators import PoissonSource
from repro.snn.network import Network, Population
from repro.snn.neuron import LIFModel


class TestPopulation:
    def test_requires_model_xor_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            Population(name="bad", size=3)
        with pytest.raises(ValueError, match="exactly one"):
            Population(
                name="bad", size=3, model=LIFModel(),
                source=PoissonSource(3, 1.0),
            )

    def test_source_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="size"):
            Population(name="bad", size=5, source=PoissonSource(3, 1.0))


class TestNetwork:
    def test_contiguous_id_ranges(self):
        net = Network()
        a = net.add_source("a", PoissonSource(3, 1.0))
        b = net.add_population("b", 4, LIFModel())
        c = net.add_population("c", 2, LIFModel())
        assert [a.id_offset, b.id_offset, c.id_offset] == [0, 3, 7]
        assert net.n_neurons == 9

    def test_duplicate_name_raises(self):
        net = Network()
        net.add_population("x", 2, LIFModel())
        with pytest.raises(ValueError, match="duplicate"):
            net.add_population("x", 2, LIFModel())

    def test_connect_by_name(self):
        net = Network()
        net.add_source("in", PoissonSource(2, 1.0))
        net.add_population("out", 3, LIFModel())
        proj = net.connect("in", "out", weights=np.ones((2, 3)))
        assert proj.synapse_count() == 6

    def test_connect_shape_mismatch_raises(self):
        net = Network()
        net.add_source("in", PoissonSource(2, 1.0))
        net.add_population("out", 3, LIFModel())
        with pytest.raises(ValueError, match="shape"):
            net.connect("in", "out", weights=np.ones((3, 2)))

    def test_foreign_population_rejected(self):
        net1, net2 = Network("n1"), Network("n2")
        pop1 = net1.add_population("p", 2, LIFModel())
        net2.add_population("q", 2, LIFModel())
        with pytest.raises(ValueError, match="belong"):
            net2.connect(pop1, "q", weights=np.ones((2, 2)))

    def test_unknown_name_raises(self):
        net = Network()
        with pytest.raises(KeyError):
            net.population("ghost")

    def test_nonpositive_delay_raises(self):
        net = Network()
        net.add_population("a", 2, LIFModel())
        with pytest.raises(ValueError, match="delay"):
            net.connect("a", "a", weights=np.ones((2, 2)), delay_ms=0.0)

    @pytest.mark.parametrize("delay", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_raises(self, delay):
        net = Network()
        net.add_population("a", 2, LIFModel())
        with pytest.raises(ValueError, match="delay_ms must be finite"):
            net.connect("a", "a", weights=np.ones((2, 2)), delay_ms=delay)
        assert net.projections == []

    def test_neuron_layers(self):
        net = Network()
        net.add_source("in", PoissonSource(2, 1.0), layer=0)
        net.add_population("h", 3, LIFModel(), layer=1)
        layers = net.neuron_layers()
        assert list(layers) == [0, 0, 1, 1, 1]

    def test_edges_concatenate_projections(self):
        net = Network()
        net.add_source("in", PoissonSource(2, 1.0))
        net.add_population("h", 2, LIFModel())
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        net.connect("in", "h", weights=w)
        net.connect("h", "h", weights=np.array([[0.0, 3.0], [0.0, 0.0]]))
        src, dst, weight = net.edges()
        triples = set(zip(src.tolist(), dst.tolist(), weight.tolist()))
        assert triples == {(0, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)}

    def test_empty_network_edges(self):
        net = Network()
        net.add_population("solo", 2, LIFModel())
        src, dst, w = net.edges()
        assert src.size == dst.size == w.size == 0

    def test_synapse_count_sums(self):
        net = Network()
        net.add_source("in", PoissonSource(2, 1.0))
        net.add_population("h", 2, LIFModel())
        net.connect("in", "h", weights=np.ones((2, 2)))
        net.connect("h", "h", weights=np.eye(2))
        assert net.synapse_count() == 6

    def test_summary_mentions_populations(self):
        net = Network("demo")
        net.add_population("alpha", 2, LIFModel())
        assert "alpha" in net.summary()
