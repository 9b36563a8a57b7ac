"""CARLsim-native image smoothing application (paper Table I, row 2).

Topology (1024, 1024): a 32 x 32 pixel image is rate-encoded onto 1024
Poisson generators, which drive 1024 LIF neurons through a Gaussian
spatial kernel — each output neuron integrates a neighborhood of input
pixels, producing a smoothed copy of the image in its firing rates.  The
local kernel structure makes this the most "mappable" workload: a good
partitioner keeps whole image tiles on one crossbar.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.snn.coding import rate_encode
from repro.snn.generators import PoissonSource
from repro.snn.graph import SpikeGraph
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation
from repro.snn.synapse import gaussian_kernel_2d
from repro.utils.rng import SeedLike, default_rng, derive_seed

IMAGE_SHAPE: Tuple[int, int] = (32, 32)
KERNEL_SIGMA = 1.0
KERNEL_RADIUS = 2
MAX_RATE_HZ = 80.0  # rate of a white pixel


def synthetic_image(seed: SeedLike = None) -> np.ndarray:
    """A noisy multi-blob test image with intensities in [0, 1].

    Smooth Gaussian blobs over speckle noise give the smoothing kernel
    realistic structure to work on (sharp noise to suppress, smooth
    gradients to preserve).
    """
    rng = default_rng(seed)
    rows, cols = IMAGE_SHAPE
    yy, xx = np.mgrid[0:rows, 0:cols]
    image = 0.15 * rng.random(IMAGE_SHAPE)  # speckle noise floor
    for _ in range(4):
        cy, cx = rng.uniform(0, rows), rng.uniform(0, cols)
        sigma = rng.uniform(2.0, 6.0)
        amp = rng.uniform(0.4, 0.9)
        image += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return np.clip(image, 0.0, 1.0)


def build_image_smoothing_network(seed: SeedLike = None) -> Network:
    """1024 rate-encoded pixel sources -> Gaussian kernel -> 1024 LIF."""
    image = synthetic_image(seed=seed)
    n_pixels = image.size
    net = Network("image_smoothing")
    rates = rate_encode(image.ravel(), max_rate_hz=MAX_RATE_HZ, min_rate_hz=2.0)
    inputs = net.add_source("pixels", PoissonSource(n_pixels, rates), layer=0)
    model = LIFModel()
    outputs = net.add_population("smoothed", n_pixels, model, layer=1)
    # Kernel weight sizing: ~13 taps, center tap weight w; mean drive per
    # output ~ sum(kernel) * mean_rate * dt * w.  w=75 with ~5.8 kernel sum
    # and ~40 Hz mean rate gives ~1.7x rheobase.
    weights = gaussian_kernel_2d(
        IMAGE_SHAPE, sigma=KERNEL_SIGMA, weight=75.0, radius=KERNEL_RADIUS
    )
    net.connect(inputs, outputs, weights=weights, name="smooth")
    return net


def build_image_smoothing(
    seed: SeedLike = None, duration_ms: float = 200.0
) -> SpikeGraph:
    """Simulate image smoothing and return its spike graph."""
    net = build_image_smoothing_network(seed=seed)
    sim = Simulation(net, seed=derive_seed(seed, 1))
    result = sim.run(duration_ms)
    return SpikeGraph.from_simulation(net, result, coding="rate")
