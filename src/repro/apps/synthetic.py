"""Synthetic m x n feedforward workloads (paper Section V).

"Neurons of the first layer in each of these topologies receive their
input from 10 neurons creating spike trains, whose inter-spike interval
follows a Poisson process with mean firing rates between 10 Hz and 100 Hz.
Additionally, these synthetic SNNs implement fully connected feedforward
topologies."  — paper, Section V-A.

Weights are auto-scaled per layer so activity propagates at biologically
plausible rates through arbitrary depth/width combinations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.snn.generators import PoissonSource
from repro.snn.graph import SpikeGraph
from repro.snn.network import Network
from repro.snn.neuron import RESISTANCE, V_REST, LIFModel
from repro.snn.simulator import Simulation
from repro.utils.rng import SeedLike, default_rng, derive_seed
from repro.utils.validation import check_positive

N_INPUT_SOURCES = 10
INPUT_RATE_RANGE_HZ = (10.0, 100.0)
#: Relative spread of the feedforward weights around the auto-scaled one.
WEIGHT_JITTER = 0.2


def _feedforward_weight(n_pre: int, assumed_rate_hz: float, model: LIFModel) -> float:
    """Weight giving a mean drive comfortably above the firing threshold.

    With ``n_pre`` inputs at ``assumed_rate_hz`` the mean synaptic current
    is ``n_pre * rate * dt * w``; we size ``w`` so that mean current is
    ~1.5x the rheobase (threshold - rest), which yields mid-range firing
    without saturation.
    """
    rheobase = (model.v_thresh - V_REST) / RESISTANCE
    target_current = 1.5 * rheobase
    mean_spikes_per_ms = n_pre * assumed_rate_hz / 1000.0
    return target_current / max(mean_spikes_per_ms, 1e-9)


def synthetic_feedforward(
    n_layers: int,
    neurons_per_layer: int,
    seed: SeedLike = None,
) -> Network:
    """Build the m x n fully connected feedforward network."""
    check_positive("n_layers", n_layers)
    check_positive("neurons_per_layer", neurons_per_layer)
    rng = default_rng(seed)
    model = LIFModel()
    net = Network(f"synth_{n_layers}x{neurons_per_layer}")

    rates = rng.uniform(*INPUT_RATE_RANGE_HZ, size=N_INPUT_SOURCES)
    prev = net.add_source("input", PoissonSource(N_INPUT_SOURCES, rates), layer=0)
    prev_rate = float(rates.mean())
    for layer in range(1, n_layers + 1):
        pop = net.add_population(
            f"layer{layer}", neurons_per_layer, model, layer=layer
        )
        w = _feedforward_weight(prev.size, prev_rate, model)
        weights = w * (
            1.0 + WEIGHT_JITTER * rng.standard_normal((prev.size, pop.size))
        )
        np.clip(weights, 0.05 * w, 3.0 * w, out=weights)
        net.connect(prev, pop, weights=weights, name=f"ff{layer}")
        prev = pop
        prev_rate = 25.0  # assumed steady-state hidden rate for next scale
    return net


def build_synthetic(
    n_layers: int,
    neurons_per_layer: int,
    seed: SeedLike = None,
    duration_ms: float = 500.0,
) -> SpikeGraph:
    """Simulate a synthetic topology and return its spike graph."""
    net = synthetic_feedforward(n_layers, neurons_per_layer, seed=seed)
    sim = Simulation(net, seed=derive_seed(seed, 1))
    result = sim.run(duration_ms)
    return SpikeGraph.from_simulation(net, result, coding="rate")


def parse_synthetic_name(name: str) -> Optional[tuple]:
    """Parse "synth_MxN" labels used by the registry and benches."""
    if not name.startswith("synth_"):
        return None
    try:
        m, n = name[len("synth_"):].split("x")
        return int(m), int(n)
    except ValueError:
        return None
