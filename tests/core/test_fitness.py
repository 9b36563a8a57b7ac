"""Tests for fitness functions (Eq. 8 and variants)."""

import numpy as np
import pytest

from repro.core.fitness import UNDELIVERED_PENALTY, InterconnectFitness
from repro.noc.interconnect import NocConfig
from repro.noc.topology import tree
from repro.snn.graph import SpikeGraph


class TestDefaultFitness:
    def test_matches_bruteforce(self, tiny_graph):
        fit = InterconnectFitness(tiny_graph)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.integers(0, 2, size=8)
            brute = sum(
                t for s, d, t in zip(tiny_graph.src, tiny_graph.dst,
                                     tiny_graph.traffic)
                if a[s] != a[d]
            )
            assert fit.evaluate(a) == pytest.approx(brute)

    def test_upper_bound(self, tiny_graph):
        """Eq. 8 never exceeds the graph's total traffic and reaches it
        when every neuron sits on its own crossbar."""
        fit = InterconnectFitness(tiny_graph)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.integers(0, 3, size=8)
            assert fit.evaluate(a) <= tiny_graph.total_traffic()
        assert fit.evaluate(np.arange(8)) == tiny_graph.total_traffic()

    def test_batch_agrees_with_single(self, tiny_graph):
        fit = InterconnectFitness(tiny_graph)
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 2, size=(8, 8))
        values = fit.evaluate_batch(batch)
        for row, v in zip(batch, values):
            assert fit.evaluate(row) == pytest.approx(v)

    def test_perfect_partition_zero(self, tiny_graph):
        fit = InterconnectFitness(tiny_graph)
        assert fit.evaluate(np.zeros(8, dtype=int)) == 0.0


class TestPacketCountVariant:
    def test_multicast_counts_once_per_cluster(self):
        # Neuron 0 (10 spikes) feeds neurons 1 and 2 on the same remote
        # cluster: per-synapse fitness counts 20, packet fitness counts 10.
        spike_times = [np.linspace(0, 9, 10), np.empty(0), np.empty(0)]
        g = SpikeGraph.from_edges(
            3, [0, 0], [1, 2], [10.0, 10.0], spike_times=spike_times
        )
        a = np.array([0, 1, 1])
        per_synapse = InterconnectFitness(g)
        per_packet = InterconnectFitness(g, objective="packets")
        assert per_synapse.evaluate(a) == 20.0
        assert per_packet.evaluate(a) == 10.0

    def test_two_remote_clusters_two_packets(self):
        spike_times = [np.linspace(0, 9, 10), np.empty(0), np.empty(0)]
        g = SpikeGraph.from_edges(
            3, [0, 0], [1, 2], [10.0, 10.0], spike_times=spike_times
        )
        a = np.array([0, 1, 2])
        per_packet = InterconnectFitness(g, objective="packets")
        assert per_packet.evaluate(a) == 20.0

    def test_all_local_zero(self, tiny_graph):
        fit = InterconnectFitness(tiny_graph, objective="packets")
        assert fit.evaluate(np.zeros(8, dtype=int)) == 0.0


@pytest.mark.parametrize("objective", ["spikes", "packets"])
@pytest.mark.parametrize(
    "bad",
    [
        [0, 0, 0, 0, -1, -1, 1, 1],  # negative cluster id
        [0, 0, 0, 0, 1, 1, 1],  # one neuron short
        [0, 0, 0, 0, 1, 1, 1, 1, 1],  # one neuron too many
    ],
)
def test_evaluate_and_evaluate_batch_reject_alike(tiny_graph, objective, bad):
    """The single and the swarm path of one objective refuse the same
    malformed assignments with the same exception type."""
    fit = InterconnectFitness(
        tiny_graph, objective=objective
    )
    bad = np.array(bad)
    with pytest.raises(ValueError):
        fit.evaluate(bad)
    with pytest.raises(ValueError):
        fit.evaluate_batch(bad[None, :])


def _one_schedule_score(fit, assignment):
    """The single-assignment path ``evaluate`` used to take: one
    ``build_injections`` schedule through ``simulate``, not a batch of
    one through ``simulate_many``."""
    from repro.noc.stats import summarize
    from repro.noc.traffic import build_injections

    schedule = build_injections(
        fit.graph, assignment, fit.topology,
        cycles_per_ms=fit.cycles_per_ms, events=fit._events,
    )
    s = summarize(fit._noc.simulate(schedule), fit.topology)
    return float(s.total_hops) + UNDELIVERED_PENALTY * s.undelivered


class TestNocInLoopVariant:
    def _fit(self, graph, **kwargs):
        topo = tree(2)
        return InterconnectFitness(
            graph, objective="noc", topology=topo, **kwargs
        )

    def test_requires_topology(self, tiny_graph):
        with pytest.raises(ValueError, match="topology"):
            InterconnectFitness(tiny_graph, objective="noc")

    def test_unknown_objective_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="unknown objective"):
            InterconnectFitness(tiny_graph, objective="hops")

    def test_all_local_scores_zero(self, tiny_graph):
        fit = self._fit(tiny_graph)
        assert fit.evaluate(np.zeros(8, dtype=int)) == 0.0

    def test_good_partition_beats_bad(self, tiny_graph):
        """The simulated objective prefers the community cut."""
        fit = self._fit(tiny_graph)
        good = np.array([0, 0, 0, 0, 1, 1, 1, 1])  # only the bridge crosses
        bad = np.array([0, 1, 0, 1, 0, 1, 0, 1])   # everything crosses
        assert fit.evaluate(good) < fit.evaluate(bad)

    def test_batch_matches_single(self, tiny_graph):
        """``evaluate`` scores a batch of one: bit-equal to the batch row
        and to the one-schedule path it replaced, undelivered penalty
        included."""
        batch = np.array([[0, 0, 0, 0, 1, 1, 1, 1],
                          [0, 1, 0, 1, 0, 1, 0, 1],
                          [0, 0, 0, 0, 0, 0, 0, 0]])
        for noc_config in (None, NocConfig(max_extra_cycles=1)):
            fit = self._fit(tiny_graph, noc_config=noc_config)
            values = fit.evaluate_batch(batch)
            for row, v in zip(batch, values):
                assert fit.evaluate(row) == v == _one_schedule_score(fit, row)
        assert values[1] >= UNDELIVERED_PENALTY

    def test_undelivered_penalized(self, tiny_graph):
        """A drain budget too small to deliver must dominate the score."""
        fit = self._fit(
            tiny_graph, noc_config=NocConfig(max_extra_cycles=1)
        )
        bad = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert fit.evaluate(bad) >= UNDELIVERED_PENALTY

    def test_drives_pso(self, tiny_graph):
        """BinaryPSO accepts the NoC-in-the-loop objective end to end."""
        from repro.core.pso import BinaryPSO, PSOConfig

        fit = self._fit(tiny_graph)
        result = BinaryPSO(
            fit, n_neurons=8, n_clusters=2, capacity=4,
            config=PSOConfig(n_particles=6, n_iterations=4), seed=3,
        ).optimize()
        assert result.best_fitness < UNDELIVERED_PENALTY
        assert result.n_evaluations == 24


class TestBalancePenalty:
    """Fault-aware spreading: over-watermark cluster fill is penalized."""

    def test_penalty_matches_bruteforce(self, tiny_graph):
        fit = InterconnectFitness(
            tiny_graph, balance_watermark=3, balance_weight=2.0
        )
        plain = InterconnectFitness(tiny_graph)
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.integers(0, 3, size=8)
            counts = np.bincount(a, minlength=3)
            overflow = np.clip(counts - 3, 0, None)
            expected = plain.evaluate(a) + 2.0 * float(
                (overflow.astype(float) ** 2).sum()
            )
            assert fit.evaluate(a) == pytest.approx(expected)

    def test_batch_agrees_with_single(self, tiny_graph):
        fit = InterconnectFitness(
            tiny_graph, balance_watermark=3, balance_weight=1.5
        )
        rng = np.random.default_rng(5)
        batch = rng.integers(0, 3, size=(6, 8))
        values = fit.evaluate_batch(batch)
        for row, v in zip(batch, values):
            assert fit.evaluate(row) == pytest.approx(v)

    def test_balanced_assignment_unpenalized(self, tiny_graph):
        fit = InterconnectFitness(
            tiny_graph, balance_watermark=4, balance_weight=10.0
        )
        plain = InterconnectFitness(tiny_graph)
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert fit.evaluate(a) == pytest.approx(plain.evaluate(a))

    def test_zero_weight_is_default(self, tiny_graph):
        fit = InterconnectFitness(tiny_graph, balance_weight=0.0)
        plain = InterconnectFitness(tiny_graph)
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2, size=8)
        assert fit.evaluate(a) == plain.evaluate(a)

    def test_validation(self, tiny_graph):
        with pytest.raises(ValueError, match="balance_weight"):
            InterconnectFitness(tiny_graph, balance_weight=-1.0)
        with pytest.raises(ValueError, match="watermark"):
            InterconnectFitness(tiny_graph, balance_weight=1.0)
        with pytest.raises(ValueError, match="watermark"):
            InterconnectFitness(
                tiny_graph, balance_weight=1.0, balance_watermark=0
            )
