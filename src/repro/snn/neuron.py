"""Point-neuron models.

Two models cover the paper's applications:

- :class:`LIFModel` — leaky integrate-and-fire, used by the feedforward
  rate-coded applications (hello world, image smoothing), the heartbeat
  liquid and readout, and digit recognition's inhibitory layer.
- :class:`AdaptiveLIFModel` — LIF with a homeostatic threshold, digit
  recognition's excitatory layer (Diehl & Cook, 2015).

Models are stateless parameter containers.  Mutable state lives in a
:class:`NeuronState` owned by the simulator, so one model instance can be
shared across populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

import numpy as np

from repro.utils.validation import check_finite, check_nonnegative, check_positive


@dataclass
class NeuronState:
    """Mutable per-population state advanced by the simulator.

    ``extra`` holds model-specific variables (the adaptive threshold
    ``theta`` of :class:`AdaptiveLIFModel`) keyed by name.
    """

    v: np.ndarray
    refractory: np.ndarray
    extra: Dict[str, np.ndarray] = field(default_factory=dict)


#: Resting and reset potentials (mV) and membrane resistance (MOhm) of
#: both LIF models: conventional cortical values.
V_REST = -65.0
V_RESET = -70.0
RESISTANCE = 1.0


def _check_lif_parameters(model: NeuronModel) -> None:
    """Every parameter finite, ``tau_m`` positive, ``t_ref``
    non-negative and ``v_thresh`` above :data:`V_RESET`."""
    for f in fields(model):
        check_finite(f.name, getattr(model, f.name))
    check_positive("tau_m", model.tau_m)
    check_nonnegative("t_ref", model.t_ref)
    if model.v_thresh <= V_RESET:
        raise ValueError(
            f"v_thresh ({model.v_thresh}) must exceed v_reset ({V_RESET})"
        )


class NeuronModel:
    """Interface for point-neuron dynamics.

    Subclasses implement :meth:`allocate_state` and :meth:`step`.  ``step``
    advances the membrane state by one tick of ``dt`` milliseconds under the
    given synaptic input current and returns a boolean spike mask.
    """

    def allocate_state(self, n: int) -> NeuronState:
        raise NotImplementedError

    def step(self, state: NeuronState, input_current: np.ndarray, dt: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class LIFModel(NeuronModel):
    """Leaky integrate-and-fire neuron.

    Membrane dynamics ``tau_m * dv/dt = (V_REST - v) + R * I`` with
    ``R = RESISTANCE``; a spike is emitted when ``v >= v_thresh``, after
    which ``v`` is clamped to ``V_RESET`` for ``t_ref`` milliseconds.

    Parameters use conventional cortical values by default (mV / ms).
    """

    tau_m: float = 20.0
    v_thresh: float = -50.0
    t_ref: float = 2.0

    def __post_init__(self) -> None:
        _check_lif_parameters(self)

    def allocate_state(self, n: int) -> NeuronState:
        return NeuronState(
            v=np.full(n, V_REST, dtype=np.float64),
            refractory=np.zeros(n, dtype=np.float64),
        )

    def step(self, state: NeuronState, input_current: np.ndarray, dt: float) -> np.ndarray:
        # RESISTANCE is 1.0, so R * I is I bit for bit.
        active = state.refractory <= 0.0
        dv = (dt / self.tau_m) * ((V_REST - state.v) + input_current)
        state.v = np.where(active, state.v + dv, state.v)
        spiked = active & (state.v >= self.v_thresh)
        state.v[spiked] = V_RESET
        state.refractory[spiked] = self.t_ref
        state.refractory[~spiked] -= dt
        np.clip(state.refractory, 0.0, None, out=state.refractory)
        return spiked


@dataclass(frozen=True)
class AdaptiveLIFModel(NeuronModel):
    """LIF with an adaptive (homeostatic) threshold.

    Each spike raises the effective threshold by ``theta_plus``; the
    adaptation decays with time constant ``tau_theta``.  Diehl & Cook
    (2015) rely on this homeostasis so that no single excitatory neuron
    dominates the winner-take-all competition — over training, every
    neuron's long-term firing rate equalizes.
    """

    tau_m: float = 20.0
    v_thresh: float = -52.0
    t_ref: float = 5.0
    theta_plus: float = 0.8
    tau_theta: float = 1_000.0

    def __post_init__(self) -> None:
        _check_lif_parameters(self)
        check_positive("tau_theta", self.tau_theta)
        check_nonnegative("theta_plus", self.theta_plus)

    def allocate_state(self, n: int) -> NeuronState:
        return NeuronState(
            v=np.full(n, V_REST, dtype=np.float64),
            refractory=np.zeros(n, dtype=np.float64),
            extra={"theta": np.zeros(n, dtype=np.float64)},
        )

    def step(self, state: NeuronState, input_current: np.ndarray, dt: float) -> np.ndarray:
        theta = state.extra["theta"]
        theta *= np.exp(-dt / self.tau_theta)
        active = state.refractory <= 0.0
        dv = (dt / self.tau_m) * ((V_REST - state.v) + input_current)
        state.v = np.where(active, state.v + dv, state.v)
        spiked = active & (state.v >= self.v_thresh + theta)
        state.v[spiked] = V_RESET
        state.refractory[spiked] = self.t_ref
        theta[spiked] += self.theta_plus
        state.refractory[~spiked] -= dt
        np.clip(state.refractory, 0.0, None, out=state.refractory)
        return spiked
