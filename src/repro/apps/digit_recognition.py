"""Diehl & Cook unsupervised digit recognition (paper Table I, row 3).

The (250, 250) recurrent topology of Diehl & Cook (2015): 28 x 28 = 784
rate-encoded pixel sources project plastically (STDP) onto 250 excitatory
neurons; each excitatory neuron drives its partner inhibitory neuron
one-to-one, and every inhibitory neuron suppresses all excitatory neurons
except its partner — the winner-take-all lateral inhibition that makes
receptive fields self-organize.

The paper doesn't ship MNIST; training here uses synthetic "digit"
stimuli (class-conditioned stroke patterns) which exercise the identical
topology and firing statistics the mapper consumes.  Accuracy on real
MNIST is irrelevant to mapping quality; spike *structure* is what matters.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.snn.coding import rate_encode
from repro.snn.generators import PoissonSource
from repro.snn.graph import SpikeGraph
from repro.snn.network import Network
from repro.snn.neuron import AdaptiveLIFModel, LIFModel
from repro.snn.simulator import Simulation
from repro.snn.stdp import STDPRule
from repro.utils.rng import SeedLike, default_rng, derive_seed

IMAGE_SIDE = 28
N_INPUTS = IMAGE_SIDE * IMAGE_SIDE  # 784
N_EXCITATORY = 250
N_INHIBITORY = 250


def synthetic_digit(klass: int, seed: SeedLike = None) -> np.ndarray:
    """A 28 x 28 stroke pattern for "digit class" ``klass`` in [0, 1].

    Each class is a fixed set of line strokes (deterministic given the
    class) plus per-sample jitter — enough structure for STDP to form
    class-selective receptive fields.
    """
    rng = default_rng(seed)
    base = np.random.default_rng(1000 + klass)  # class-defining strokes
    image = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    for _ in range(3):
        x0, y0 = base.uniform(4, 24, size=2)
        angle = base.uniform(0, np.pi)
        length = base.uniform(8, 16)
        x1 = x0 + length * np.cos(angle)
        y1 = y0 + length * np.sin(angle)
        # Distance from each pixel to the stroke segment.
        px, py = xx - x0, yy - y0
        vx, vy = x1 - x0, y1 - y0
        t = np.clip((px * vx + py * vy) / (vx * vx + vy * vy), 0.0, 1.0)
        dist = np.sqrt((px - t * vx) ** 2 + (py - t * vy) ** 2)
        image += np.exp(-(dist**2) / 2.0)
    jitter = 0.08 * rng.random(image.shape)
    return np.clip(image / max(image.max(), 1e-9) + jitter, 0.0, 1.0)


def build_digit_recognition_network(seed: SeedLike = None) -> Network:
    """784 pixel sources -> 250 exc (plastic) <-> 250 inh, Diehl & Cook
    wiring; the sources start on a synthetic digit 0."""
    rng = default_rng(seed)
    initial_image = synthetic_digit(0, seed=rng)
    net = Network("digit_recognition")
    rates = rate_encode(initial_image.ravel(), max_rate_hz=63.75, min_rate_hz=0.0)
    inputs = net.add_source("pixels", PoissonSource(N_INPUTS, rates), layer=0)

    # Excitatory neurons use the adaptive threshold of Diehl & Cook: the
    # homeostatic theta keeps any one neuron from monopolizing the WTA.
    exc_model = AdaptiveLIFModel(
        tau_m=20.0, v_thresh=-52.0, t_ref=5.0, theta_plus=0.6,
        tau_theta=2_000.0,
    )
    inh_model = LIFModel(tau_m=10.0, v_thresh=-40.0, t_ref=2.0)
    exc = net.add_population("excitatory", N_EXCITATORY, exc_model, layer=1)
    inh = net.add_population("inhibitory", N_INHIBITORY, inh_model, layer=2)

    # Plastic input projection: uniform random initial weights; STDP will
    # concentrate weight on class strokes during training.
    w_in = rng.uniform(1.0, 4.0, size=(N_INPUTS, N_EXCITATORY))
    net.connect(inputs, exc, weights=w_in, plastic=True, name="input->exc")

    # One-to-one excitatory -> inhibitory partner drive, strong enough
    # that a single partner spike fires the inhibitory neuron (Diehl &
    # Cook's WTA trigger): delta-v = w / tau_m must exceed the 25 mV gap.
    w_ei = np.zeros((N_EXCITATORY, N_INHIBITORY))
    np.fill_diagonal(w_ei, 320.0)
    net.connect(exc, inh, weights=w_ei, name="exc->inh")

    # Inhibitory -> all excitatory except the partner (lateral WTA).
    w_ie = np.full((N_INHIBITORY, N_EXCITATORY), -12.0)
    np.fill_diagonal(w_ie, 0.0)
    net.connect(inh, exc, weights=w_ie, name="inh->exc")
    return net


def training_stimuli(
    n_samples: int, seed: SeedLike = None
) -> List[Tuple[int, np.ndarray]]:
    """(class, image) pairs cycling over 10 synthetic digit classes."""
    rng = default_rng(seed)
    return [
        (k % 10, synthetic_digit(k % 10, seed=rng)) for k in range(n_samples)
    ]


def build_digit_recognition(
    seed: SeedLike = None,
    duration_ms: float = 300.0,
    n_training_samples: int = 3,
    train_ms_per_sample: float = 100.0,
) -> SpikeGraph:
    """Train briefly with STDP, then profile spikes for the mapper.

    Each training sample re-targets the Poisson pixel rates and runs one
    STDP episode; the final profiling run (plasticity frozen) produces the
    spike graph the partitioners consume.
    """
    rng = default_rng(seed)
    net = build_digit_recognition_network(seed=rng)
    stdp = STDPRule(a_plus=0.01, a_minus=0.012, w_max=8.0)
    pixels = net.population("pixels")

    for klass, image in training_stimuli(n_training_samples, seed=rng):
        pixels.source.rates_hz[:] = rate_encode(
            image.ravel(), max_rate_hz=63.75, min_rate_hz=0.0
        )
        sim = Simulation(net, seed=derive_seed(seed, 100 + klass), stdp=stdp)
        sim.run(train_ms_per_sample, learning=True)

    # Profiling pass with plasticity frozen on a held-out sample.
    test_image = synthetic_digit(7, seed=rng)
    pixels.source.rates_hz[:] = rate_encode(
        test_image.ravel(), max_rate_hz=63.75, min_rate_hz=0.0
    )
    sim = Simulation(net, seed=derive_seed(seed, 999))
    result = sim.run(duration_ms)
    return SpikeGraph.from_simulation(net, result, coding="rate")
