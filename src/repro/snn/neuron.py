"""Point-neuron models.

Two classic models cover the paper's applications:

- :class:`LIFModel` — leaky integrate-and-fire, used by the feedforward
  rate-coded applications (hello world, image smoothing) and the LSM liquid.
- :class:`IzhikevichModel` — the model CARLsim natively integrates; used by
  the digit-recognition network where richer excitability matters.

Models are stateless parameter containers.  Mutable state lives in a
:class:`NeuronState` owned by the simulator, so one model instance can be
shared across populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class NeuronState:
    """Mutable per-population state advanced by the simulator.

    ``extra`` holds model-specific variables (e.g. the Izhikevich recovery
    variable ``u``) keyed by name.
    """

    v: np.ndarray
    refractory: np.ndarray
    extra: Dict[str, np.ndarray] = field(default_factory=dict)


#: Resting and reset potentials (mV) and membrane resistance (MOhm) of
#: both LIF models: conventional cortical values.
V_REST = -65.0
V_RESET = -70.0
RESISTANCE = 1.0
#: Izhikevich spike cutoff (mV).
V_PEAK = 30.0


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
        check_positive("tau_m", self.tau_m)
        if self.v_thresh <= V_RESET:
            raise ValueError(
                f"v_thresh ({self.v_thresh}) must exceed v_reset ({V_RESET})"
            )
        if self.t_ref < 0:
            raise ValueError(f"t_ref must be non-negative, got {self.t_ref}")

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
class IzhikevichModel(NeuronModel):
    """Izhikevich (2003) neuron: ``v' = 0.04 v^2 + 5 v + 140 - u + I``.

    Defaults are the regular-spiking parameter set (a=0.02, b=0.2, c=-65,
    d=8).  Integration uses two half-steps per tick, matching CARLsim's
    practice for numerical stability at dt = 1 ms.
    """

    a: float = 0.02
    b: float = 0.2
    c: float = -65.0
    d: float = 8.0

    def allocate_state(self, n: int) -> NeuronState:
        v = np.full(n, self.c, dtype=np.float64)
        u = self.b * v
        return NeuronState(
            v=v,
            refractory=np.zeros(n, dtype=np.float64),
            extra={"u": u},
        )

    def step(self, state: NeuronState, input_current: np.ndarray, dt: float) -> np.ndarray:
        u = state.extra["u"]
        half = dt / 2.0
        for _ in range(2):
            dv = 0.04 * state.v**2 + 5.0 * state.v + 140.0 - u + input_current
            state.v = state.v + half * dv
            # Clamp runaway trajectories so one step past threshold cannot
            # overflow the quadratic term before spike detection.
            np.clip(state.v, -120.0, 2.0 * V_PEAK, out=state.v)
        du = self.a * (self.b * state.v - u)
        state.extra["u"] = u + dt * du
        spiked = state.v >= V_PEAK
        state.v[spiked] = self.c
        state.extra["u"][spiked] += self.d
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
        check_positive("tau_m", self.tau_m)
        check_positive("tau_theta", self.tau_theta)
        if self.v_thresh <= V_RESET:
            raise ValueError(
                f"v_thresh ({self.v_thresh}) must exceed v_reset ({V_RESET})"
            )
        if self.theta_plus < 0:
            raise ValueError(f"theta_plus must be non-negative, got {self.theta_plus}")
        if self.t_ref < 0:
            raise ValueError(f"t_ref must be non-negative, got {self.t_ref}")

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


# Named Izhikevich parameter sets from the 2003 paper, as CARLsim exposes them.
IZHIKEVICH_PRESETS: Dict[str, IzhikevichModel] = {
    "regular_spiking": IzhikevichModel(a=0.02, b=0.2, c=-65.0, d=8.0),
    "intrinsically_bursting": IzhikevichModel(a=0.02, b=0.2, c=-55.0, d=4.0),
    "chattering": IzhikevichModel(a=0.02, b=0.2, c=-50.0, d=2.0),
    "fast_spiking": IzhikevichModel(a=0.1, b=0.2, c=-65.0, d=2.0),
    "low_threshold_spiking": IzhikevichModel(a=0.02, b=0.25, c=-65.0, d=2.0),
}
