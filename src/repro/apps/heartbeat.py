"""Heartbeat estimation with a liquid state machine (paper Table I, row 4).

Das et al. (2017) estimate heart rate from ECG in wearables using a liquid
state machine with a probabilistic readout.  The paper marks this as the
*temporally coded* application — the one whose accuracy degrades with ISI
distortion on the interconnect (Section V-B: 20% less ISI distortion gave
>5% better estimation accuracy).

Topology (64, 16): a synthetic ECG (parameterized QRS pulse train with
drifting RR intervals) is level-crossing encoded onto 16 input channels,
which drive a 64-neuron liquid (distance-dependent recurrent wiring on a
4 x 4 x 4 lattice, 80/20 excitatory/inhibitory) read out by 16 LIF
neurons.  Heart-rate information lives in the liquid's inter-spike
intervals, so the app also provides an RR-interval estimator used by the
accuracy experiments.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.snn.generators import ScheduledSource
from repro.snn.graph import SpikeGraph
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation
from repro.snn.synapse import distance_dependent
from repro.utils.rng import SeedLike, default_rng, derive_seed
from repro.utils.validation import check_positive

N_CHANNELS = 16      # level-crossing encoder outputs (8 up + 8 down)
N_LEVELS = N_CHANNELS // 2
LEVEL_DELTA = 0.12    # encoder level spacing, in R-peak units
N_LIQUID = 64
N_READOUT = 16
LIQUID_GRID = (4, 4, 4)

RR_DRIFT = 0.15      # sinusoidal RR modulation depth (respiration)
ECG_NOISE = 0.03     # white noise on the ECG, in R-peak units
ECG_FS_HZ = 250.0    # ECG sample rate
MIN_RR_MS = 300.0    # physiological RR range the estimator searches
MAX_RR_MS = 2000.0
RR_BIN_MS = 10.0     # spike binning of the RR estimator


def synthetic_ecg(
    duration_ms: float,
    mean_rr_ms: float = 800.0,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate a synthetic single-lead ECG.

    Returns ``(t_ms, signal, beat_times_ms)``.  Each beat is a stylized
    P-QRS-T complex; RR intervals drift sinusoidally by :data:`RR_DRIFT`
    around ``mean_rr_ms`` (respiratory modulation) plus white jitter —
    preserving the inter-beat-interval structure the LSM encodes.
    """
    check_positive("duration_ms", duration_ms)
    check_positive("mean_rr_ms", mean_rr_ms)
    rng = default_rng(seed)
    dt_ms = 1000.0 / ECG_FS_HZ
    t = np.arange(0.0, duration_ms, dt_ms)
    signal = ECG_NOISE * rng.standard_normal(t.size)

    beat_times: List[float] = []
    now = float(rng.uniform(0.0, mean_rr_ms / 4))
    phase = rng.uniform(0, 2 * np.pi)
    while now < duration_ms:
        beat_times.append(now)
        modulation = 1.0 + RR_DRIFT * np.sin(phase + 2 * np.pi * now / 10_000.0)
        now += mean_rr_ms * modulation + rng.normal(0.0, 0.01 * mean_rr_ms)

    def add_wave(center_ms: float, width_ms: float, amplitude: float) -> None:
        lo = np.searchsorted(t, center_ms - 4 * width_ms)
        hi = np.searchsorted(t, center_ms + 4 * width_ms)
        signal[lo:hi] += amplitude * np.exp(
            -((t[lo:hi] - center_ms) ** 2) / (2 * width_ms**2)
        )

    for beat in beat_times:
        add_wave(beat - 160.0, 30.0, 0.12)   # P wave
        add_wave(beat - 20.0, 8.0, -0.18)    # Q
        add_wave(beat, 10.0, 1.0)            # R
        add_wave(beat + 25.0, 9.0, -0.25)    # S
        add_wave(beat + 220.0, 45.0, 0.3)    # T wave
    return t, signal, np.asarray(beat_times)


def level_crossing_encode(t_ms: np.ndarray, signal: np.ndarray) -> List[np.ndarray]:
    """Level-crossing (delta) encoder: the Das et al. spike generator.

    Channel ``2k`` spikes when the signal crosses level ``k`` upward;
    channel ``2k + 1`` when it crosses downward; levels are
    :data:`LEVEL_DELTA` apart.  Returns one spike-time array per channel
    (``2 * N_LEVELS`` channels total).
    """
    base = float(np.median(signal))
    levels = base + LEVEL_DELTA * (np.arange(N_LEVELS) - N_LEVELS / 2.0 + 0.5)
    trains: List[List[float]] = [[] for _ in range(2 * N_LEVELS)]
    above = signal[0] > levels  # state per level
    for i in range(1, signal.size):
        now_above = signal[i] > levels
        for k in np.nonzero(now_above != above)[0]:
            channel = 2 * int(k) + (0 if now_above[k] else 1)
            trains[channel].append(float(t_ms[i]))
        above = now_above
    return [np.asarray(tr) for tr in trains]


def build_heartbeat_network(
    spike_trains: List[np.ndarray],
    seed: SeedLike = None,
) -> Network:
    """16 encoded channels -> 64-neuron liquid -> 16 readout neurons."""
    if len(spike_trains) != N_CHANNELS:
        raise ValueError(f"expected {N_CHANNELS} channels, got {len(spike_trains)}")
    rng = default_rng(seed)
    net = Network("heartbeat")
    inputs = net.add_source("ecg", ScheduledSource(spike_trains), layer=0)

    liquid_model = LIFModel(tau_m=30.0, t_ref=3.0)
    liquid = net.add_population("liquid", N_LIQUID, liquid_model, layer=1)
    readout = net.add_population("readout", N_READOUT, LIFModel(), layer=2)

    # Input -> liquid: each channel excites a random subset of the liquid.
    # Level-crossing channels fire in near-coincident bursts around each
    # QRS complex; weights are sized so 2-3 coincident channel spikes
    # drive a liquid neuron past threshold.
    w_in = np.where(rng.random((N_CHANNELS, N_LIQUID)) < 0.4, 260.0, 0.0)
    net.connect(inputs, liquid, weights=w_in, name="ecg->liquid")

    # Liquid recurrence: Maass distance-dependent wiring on a 4x4x4
    # lattice, 80% excitatory / 20% inhibitory.
    grid = np.array(
        [(x, y, z)
         for x in range(LIQUID_GRID[0])
         for y in range(LIQUID_GRID[1])
         for z in range(LIQUID_GRID[2])],
        dtype=np.float64,
    )
    w_rec = distance_dependent(
        grid, grid, lambda_=2.0, max_weight=70.0, probability_scale=0.45,
        seed=rng,
    )
    np.fill_diagonal(w_rec, 0.0)
    inhibitory = rng.random(N_LIQUID) < 0.2
    w_rec[inhibitory, :] *= -1.5
    net.connect(liquid, liquid, weights=w_rec, delay_ms=2.0, name="liquid-rec")

    # Liquid -> readout: dense projection (the trained probabilistic
    # readout of Das et al.; weights here stand in for a trained readout).
    w_out = rng.uniform(15.0, 45.0, size=(N_LIQUID, N_READOUT))
    net.connect(liquid, readout, weights=w_out, name="liquid->readout")
    return net


def build_heartbeat(
    seed: SeedLike = None,
    duration_ms: float = 4000.0,
    mean_rr_ms: float = 800.0,
) -> SpikeGraph:
    """End-to-end heartbeat app: ECG -> encoder -> LSM -> spike graph."""
    rng = default_rng(seed)
    t, signal, beats = synthetic_ecg(
        duration_ms, mean_rr_ms=mean_rr_ms, seed=rng
    )
    trains = level_crossing_encode(t, signal)
    net = build_heartbeat_network(trains, seed=rng)
    sim = Simulation(net, seed=derive_seed(seed, 1))
    result = sim.run(duration_ms)
    graph = SpikeGraph.from_simulation(net, result, coding="temporal")
    graph.metadata["true_beat_times_ms"] = beats
    graph.metadata["mean_rr_ms"] = mean_rr_ms
    return graph


def estimate_rr_from_spikes(spike_times: np.ndarray) -> float:
    """Estimate the RR interval from spike-train periodicity.

    Liquid activity is beat-locked: binning the spikes and locating the
    dominant autocorrelation peak in the physiological RR range recovers
    the inter-beat interval even when neurons also fire between beats.
    ``spike_times`` may be one neuron's train or the pooled liquid.
    """
    t = np.sort(np.asarray(spike_times, dtype=np.float64))
    if t.size < 4:
        return float("nan")
    duration = t[-1] - t[0]
    if duration < 2 * MIN_RR_MS:
        return float("nan")
    n_bins = int(np.ceil(duration / RR_BIN_MS)) + 1
    binned = np.bincount(
        ((t - t[0]) / RR_BIN_MS).astype(int), minlength=n_bins
    ).astype(np.float64)
    binned -= binned.mean()
    ac = np.correlate(binned, binned, mode="full")[n_bins - 1:]
    lag_lo = max(1, int(MIN_RR_MS / RR_BIN_MS))
    lag_hi = min(ac.size - 1, int(MAX_RR_MS / RR_BIN_MS))
    if lag_hi <= lag_lo:
        return float("nan")
    peak = lag_lo + int(np.argmax(ac[lag_lo : lag_hi + 1]))
    if ac[peak] <= 0:
        return float("nan")
    return float(peak * RR_BIN_MS)


def heart_rate_accuracy(
    true_rr_ms: float, estimated_rr_ms: float
) -> float:
    """Estimation accuracy in [0, 1]: 1 - relative RR error (floored at 0)."""
    if not np.isfinite(estimated_rr_ms):
        return 0.0
    return float(max(0.0, 1.0 - abs(estimated_rr_ms - true_rr_ms) / true_rr_ms))
