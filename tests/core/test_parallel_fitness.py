"""NoC-in-the-loop fitness through the swarm stack, any thread count.

``InterconnectFitness(objective="noc")`` must hand ``BinaryPSO`` the
same fitness vectors whatever ``REPRO_NOC_THREADS`` says (``0`` = the
calling thread alone, ``N`` = an OpenMP team where the build has one) —
which makes whole swarm runs (same seed) land on the same optimum,
iteration by iteration — and ``map_snn(objective="noc")`` must carry
that end to end.  The environment variable is the only spelling: the
request chain takes neither ``threads=`` nor ``workers=``.

Every fabric here is a 4-chip board, whose routing certificate refuses
every row (the bridges close a channel dependency cycle): the swarm runs
through the kernel's thread team instead of being counted in closed
form.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitness import InterconnectFitness
from repro.core.mapper import map_snn
from repro.core.pso import BinaryPSO, PSOConfig
from repro.noc.multichip import multichip


def _noc_fitness(graph, **kwargs):
    fitness = InterconnectFitness(
        graph, objective="noc", topology=multichip(8, n_chips=4), **kwargs
    )
    assert not fitness._certificate.deadlock_free
    return fitness


def _under_threads(monkeypatch, threads, fn):
    monkeypatch.setenv("REPRO_NOC_THREADS", str(threads))
    return fn()


class TestBatchDeterminism:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_fitness_vectors_identical(self, tiny_graph, monkeypatch, threads):
        batch = np.random.default_rng(7).integers(0, 8, size=(12, 8))
        fitness = _noc_fitness(tiny_graph)
        expected = _under_threads(monkeypatch, 0, lambda: fitness.evaluate_batch(batch))
        got = _under_threads(monkeypatch, threads, lambda: fitness.evaluate_batch(batch))
        np.testing.assert_array_equal(got, expected)

    def test_single_evaluate_agrees_with_batch(self, tiny_graph, monkeypatch):
        monkeypatch.setenv("REPRO_NOC_THREADS", "2")
        batch = np.random.default_rng(9).integers(0, 8, size=(4, 8))
        fit = _noc_fitness(tiny_graph)
        values = fit.evaluate_batch(batch)
        for row, value in zip(batch, values):
            assert fit.evaluate(row) == value

    def test_execution_kwargs_are_gone(self, tiny_graph):
        for kwargs in ({"workers": 2}, {"threads": 2}):
            with pytest.raises(TypeError):
                _noc_fitness(tiny_graph, **kwargs)
        assert not hasattr(InterconnectFitness, "close")


class TestSwarmDeterminism:
    def _run(self, graph):
        config = PSOConfig(n_particles=6, n_iterations=4)
        pso = BinaryPSO(
            _noc_fitness(graph), n_neurons=8, n_clusters=8, capacity=8,
            config=config, seed=123,
        )
        return pso.optimize()

    def test_whole_swarm_run_identical(self, tiny_graph, monkeypatch):
        alone = _under_threads(monkeypatch, 0, lambda: self._run(tiny_graph))
        team = _under_threads(monkeypatch, 2, lambda: self._run(tiny_graph))
        assert alone.best_fitness == team.best_fitness
        np.testing.assert_array_equal(alone.history, team.history)
        np.testing.assert_array_equal(alone.best_assignment, team.best_assignment)


class TestMapSnnNocObjective:
    def _arch(self):
        from repro.hardware.presets import custom

        return custom(8, 8, interconnect="mesh", n_chips=4, name="noc-objective")

    def test_noc_objective_runs_and_matches_serial(self, tiny_graph, monkeypatch):
        config = PSOConfig(n_particles=4, n_iterations=2)
        kwargs = dict(method="pso", seed=5, pso_config=config, objective="noc")
        runs = [
            _under_threads(
                monkeypatch, t, lambda: map_snn(tiny_graph, self._arch(), **kwargs)
            )
            for t in (0, 1, 2)
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].assignment, other.assignment)
            np.testing.assert_array_equal(
                runs[0].extras["history"], other.extras["history"]
            )

    def test_unknown_objective_still_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="objective"):
            map_snn(tiny_graph, self._arch(), objective="vibes")

    def test_noc_objective_rejected_for_structural_methods(self, tiny_graph):
        """Baselines cannot honor 'noc'; mislabeling them would be worse."""
        with pytest.raises(ValueError, match="only supported by method='pso'"):
            map_snn(tiny_graph, self._arch(), method="greedy", objective="noc")

    def test_compare_methods_rejects_mixed_noc(self, tiny_graph):
        from repro.core.mapper import compare_methods

        with pytest.raises(ValueError, match="only supported by method='pso'"):
            compare_methods(
                tiny_graph, self._arch(), methods=("greedy", "pso"), objective="noc"
            )

    def test_noc_config_forwarded_to_fitness(self, tiny_graph, monkeypatch):
        """The swarm must optimize the fabric the mapping is measured on."""
        from repro.core import mapper
        from repro.noc.interconnect import NocConfig

        captured = {}
        original = mapper.InterconnectFitness

        class Spy(original):
            def __init__(self, *args, **kwargs):
                captured.update(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mapper, "InterconnectFitness", Spy)
        cfg = NocConfig(multicast=False, buffer_capacity=2)
        map_snn(
            tiny_graph,
            self._arch(),
            method="pso",
            seed=5,
            pso_config=PSOConfig(n_particles=4, n_iterations=2),
            objective="noc",
            noc_config=cfg,
        )
        assert captured["noc_config"] is cfg

    @pytest.mark.parametrize("kwarg", ["workers", "threads"])
    def test_execution_kwargs_rejected(self, tiny_graph, kwarg):
        """How a batch runs is the host's business (``REPRO_NOC_THREADS``),
        never a request's: neither spelling reaches ``map_snn`` — not even
        through its ``**kwargs``, which belong to the chosen baseline."""
        with pytest.raises(TypeError):
            map_snn(
                tiny_graph,
                self._arch(),
                method="pso",
                seed=5,
                pso_config=PSOConfig(n_particles=4, n_iterations=2),
                **{kwarg: 2},
            )
