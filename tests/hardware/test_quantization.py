"""Tests for memristor weight quantization."""

import numpy as np
import pytest

from repro.hardware.quantization import (
    quantization_report,
    quantize_graph,
    quantize_weights,
)


class TestQuantizeWeights:
    def test_zero_preserved_exactly(self):
        w = np.array([0.0, 0.3, 0.0, -0.7])
        q = quantize_weights(w, n_bits=2)
        assert q[0] == 0.0 and q[2] == 0.0

    def test_no_new_synapses(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, 100)
        w[rng.random(100) < 0.5] = 0.0
        q = quantize_weights(w, n_bits=3)
        assert ((w == 0) == (q == 0 * (w == 0))).all() or (
            (q[w == 0] == 0).all()
        )

    def test_small_weights_can_vanish_but_not_flip(self):
        # A tiny weight may round to zero (below half a level) but a
        # weight can never change sign.
        w = np.array([0.01, -0.01, 1.0])
        q = quantize_weights(w, n_bits=2)
        assert (np.sign(q) * np.sign(w) >= 0).all()

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-2, 2, 500)
        n_bits = 4
        q = quantize_weights(w, n_bits=n_bits)
        step = np.abs(w).max() / (2**n_bits - 1)
        assert np.abs(q - w).max() <= step / 2 + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, 300)
        err = {
            b: np.abs(quantize_weights(w, n_bits=b) - w).mean()
            for b in (2, 4, 8)
        }
        assert err[8] < err[4] < err[2]

    def test_levels_count(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 1, 2000)
        q = quantize_weights(w, n_bits=3)
        assert len(np.unique(q)) <= 2**3  # 7 levels + zero

    def test_clipping_at_full_scale(self):
        w = np.array([0.5, 3.0])
        q = quantize_weights(w, n_bits=4, w_max=1.0)
        assert q[1] == 1.0

    def test_all_zero_input(self):
        q = quantize_weights(np.zeros(5), n_bits=4)
        assert (q == 0).all()

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_weights(np.ones(3), n_bits=0)


class TestQuantizationReport:
    def test_counts(self):
        w = np.array([0.0, 0.5, -0.5, 1.0])
        report = quantization_report(w, n_bits=4)
        assert report.n_weights == 3
        assert report.n_levels == 15
        assert report.max_abs_error >= report.mean_abs_error

    def test_saturation_counted(self):
        report = quantization_report(
            np.array([0.5, 2.0, 3.0]), n_bits=4, w_max=1.0
        )
        assert report.n_saturated == 2


class TestQuantizeGraph:
    def test_traffic_untouched_and_partition_invariant(self, tiny_graph):
        """Quantization changes weights, never mapping inputs."""
        from repro.core.fitness import InterconnectFitness

        weight_before = tiny_graph.weight.copy()
        fit_before = InterconnectFitness(tiny_graph).evaluate(
            np.array([0, 0, 0, 0, 1, 1, 1, 1])
        )
        quantized, report = quantize_graph(tiny_graph, n_bits=3)
        assert np.array_equal(quantized.traffic, tiny_graph.traffic)
        assert np.array_equal(
            quantized.weight, quantize_weights(weight_before, n_bits=3)
        )
        assert np.array_equal(tiny_graph.weight, weight_before)
        fit_after = InterconnectFitness(quantized).evaluate(
            np.array([0, 0, 0, 0, 1, 1, 1, 1])
        )
        assert fit_after == fit_before
        assert report.n_weights == quantized.n_synapses
