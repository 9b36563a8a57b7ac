"""Tests for the four realistic applications (paper Table I)."""

import numpy as np
import pytest

from repro.apps.digit_recognition import (
    build_digit_recognition,
    build_digit_recognition_network,
    synthetic_digit,
)
from repro.apps.heartbeat import (
    build_heartbeat,
    estimate_rr_from_spikes,
    heart_rate_accuracy,
    level_crossing_encode,
    synthetic_ecg,
)
from repro.apps.hello_world import build_hello_world
from repro.apps.image_smoothing import build_image_smoothing, synthetic_image
from repro.apps.registry import build_application


class TestHelloWorld:
    def test_paper_topology(self):
        graph = build_hello_world(seed=0, duration_ms=200.0)
        assert graph.n_neurons == 117 + 9
        assert graph.n_synapses == 117 * 9

    def test_outputs_fire(self):
        graph = build_hello_world(seed=0, duration_ms=300.0)
        out_counts = graph.spike_counts()[graph.layers == 1]
        assert out_counts.sum() > 0

    def test_rate_coded(self):
        assert build_hello_world(seed=0, duration_ms=50.0).coding == "rate"


class TestImageSmoothing:
    def test_paper_topology(self):
        graph = build_image_smoothing(seed=0, duration_ms=60.0)
        assert graph.n_neurons == 1024 + 1024

    def test_synthetic_image_range(self):
        img = synthetic_image(seed=1)
        assert img.shape == (32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_smoothing_activity_follows_image(self):
        graph = build_image_smoothing(seed=0, duration_ms=150.0)
        counts = graph.spike_counts()
        inputs = counts[:1024]
        outputs = counts[1024:]
        # Bright input regions must drive bright output regions: rank
        # correlation between input and output activity is positive.
        bright = inputs > np.median(inputs)
        assert outputs[bright].mean() > outputs[~bright].mean()

    def test_kernel_locality(self):
        graph = build_image_smoothing(seed=0, duration_ms=30.0)
        # Each input connects only within its kernel neighborhood.
        fanouts = np.bincount(graph.src, minlength=graph.n_neurons)[:1024]
        assert fanouts.max() <= 13  # radius-2 disc


class TestDigitRecognition:
    def test_paper_topology(self):
        net = build_digit_recognition_network(seed=0)
        assert net.population("excitatory").size == 250
        assert net.population("inhibitory").size == 250
        assert net.population("pixels").size == 784

    def test_wta_wiring(self):
        net = build_digit_recognition_network(seed=0)
        w_ie = [p for p in net.projections if p.describe() == "inh->exc"][0]
        assert (np.diag(w_ie.weights) == 0).all()
        off_diag = w_ie.weights[~np.eye(250, dtype=bool)]
        assert (off_diag < 0).all()

    def test_digit_classes_distinct(self):
        a = synthetic_digit(0, seed=0)
        b = synthetic_digit(1, seed=0)
        assert not np.allclose(a, b)

    def test_same_class_similar(self):
        a = synthetic_digit(3, seed=0)
        b = synthetic_digit(3, seed=1)
        # Same strokes, different jitter: strong correlation.
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert corr > 0.9

    def test_training_changes_weights_and_network_fires(self):
        graph = build_digit_recognition(
            seed=0, duration_ms=100.0, n_training_samples=1,
            train_ms_per_sample=50.0,
        )
        counts = graph.spike_counts()
        assert counts[graph.layers == 1].sum() > 0  # excitatory active
        assert counts[graph.layers == 2].sum() > 0  # inhibitory active


class TestHeartbeat:
    def test_ecg_beat_structure(self):
        t, signal, beats = synthetic_ecg(5000.0, mean_rr_ms=800.0, seed=0)
        assert len(beats) >= 5
        rr = np.diff(beats)
        assert 600.0 < rr.mean() < 1000.0

    def test_level_crossing_round_trip_activity(self):
        t, signal, _ = synthetic_ecg(3000.0, seed=0)
        trains = level_crossing_encode(t, signal)
        assert len(trains) == 16
        total = sum(tr.size for tr in trains)
        assert total > 10  # R peaks cross several levels per beat

    def test_paper_topology(self):
        graph = build_heartbeat(seed=0, duration_ms=2000.0)
        assert graph.n_neurons == 16 + 64 + 16
        assert graph.coding == "temporal"

    def test_liquid_and_readout_fire(self):
        graph = build_heartbeat(seed=0, duration_ms=3000.0)
        counts = graph.spike_counts()
        assert counts[graph.layers == 1].sum() > 0
        assert counts[graph.layers == 2].sum() > 0

    def test_rr_estimation_from_liquid(self):
        graph = build_heartbeat(seed=0, duration_ms=8000.0,
                                mean_rr_ms=800.0)
        liquid_ids = np.nonzero(graph.layers == 1)[0]
        pooled = np.concatenate([graph.spike_times[i] for i in liquid_ids])
        rr = estimate_rr_from_spikes(pooled)
        assert np.isfinite(rr)
        accuracy = heart_rate_accuracy(800.0, rr)
        assert accuracy > 0.5

    def test_accuracy_bounds(self):
        assert heart_rate_accuracy(800.0, 800.0) == 1.0
        assert heart_rate_accuracy(800.0, float("nan")) == 0.0
        assert heart_rate_accuracy(800.0, 4000.0) == 0.0

    def test_accuracy_is_one_minus_relative_error(self):
        assert heart_rate_accuracy(800.0, 880.0) == pytest.approx(0.9)
        assert heart_rate_accuracy(800.0, 720.0) == pytest.approx(0.9)

    def test_rr_of_a_regular_train(self):
        train = np.arange(0.0, 8000.0, 800.0)
        assert estimate_rr_from_spikes(train) == 800.0
        shuffled = np.random.default_rng(0).permutation(train)
        assert estimate_rr_from_spikes(shuffled) == 800.0

    @pytest.mark.parametrize(
        "train",
        [[0.0, 800.0, 1600.0],            # fewer than four spikes
         [0.0, 100.0, 200.0, 300.0, 500.0]],  # shorter than two min RRs
        ids=["too-few-spikes", "too-short"],
    )
    def test_rr_undefined_without_enough_activity(self, train):
        assert np.isnan(estimate_rr_from_spikes(np.array(train)))


class TestRegistry:
    @pytest.mark.parametrize("name", ["hello_world", "HW"])
    def test_name_and_abbreviation(self, name):
        graph = build_application(name, seed=0, duration_ms=50.0)
        assert graph.n_neurons == 126

    def test_synthetic_names(self):
        graph = build_application("synth_1x10", seed=0, duration_ms=50.0)
        assert graph.n_neurons == 20

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown application"):
            build_application("not_an_app")
