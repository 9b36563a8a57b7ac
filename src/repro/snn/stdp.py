"""Pair-based spike-timing-dependent plasticity.

Used by the digit-recognition application (Diehl & Cook 2015) to develop
receptive fields in the input->excitatory projection.  The rule is the
standard trace-based pair STDP with soft weight bounds:

- each presynaptic spike deposits on trace ``x_pre``; each postsynaptic
  spike deposits on trace ``x_post``; both traces decay exponentially;
- on a postsynaptic spike, potentiate by ``a_plus * x_pre * (w_max - w)``;
- on a presynaptic spike, depress by ``a_minus * x_post * w``.

Soft bounds keep weights in ``[0, w_max]`` without clipping artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

#: Decay time constants (ms) of the ``x_pre`` and ``x_post`` traces.
TAU_PLUS = 20.0
TAU_MINUS = 20.0


@dataclass
class STDPState:
    """Per-projection eligibility traces."""

    x_pre: np.ndarray
    x_post: np.ndarray


@dataclass(frozen=True)
class STDPRule:
    """Pair-based STDP with exponential traces (:data:`TAU_PLUS`,
    :data:`TAU_MINUS`) and soft bounds."""

    a_plus: float = 0.01
    a_minus: float = 0.012
    w_max: float = 1.0

    def __post_init__(self) -> None:
        check_positive("w_max", self.w_max)
        if self.a_plus < 0 or self.a_minus < 0:
            raise ValueError("a_plus and a_minus must be non-negative")

    def allocate_state(self, n_pre: int, n_post: int) -> STDPState:
        return STDPState(
            x_pre=np.zeros(n_pre, dtype=np.float64),
            x_post=np.zeros(n_post, dtype=np.float64),
        )

    def step(
        self,
        state: STDPState,
        weights: np.ndarray,
        pre_spikes: np.ndarray,
        post_spikes: np.ndarray,
        dt: float,
    ) -> None:
        """Advance traces one tick and update ``weights`` in place.

        Only entries that are already non-zero are modified, so the rule
        never creates synapses absent from the topology.
        """
        state.x_pre *= np.exp(-dt / TAU_PLUS)
        state.x_post *= np.exp(-dt / TAU_MINUS)

        mask = weights != 0.0
        if post_spikes.size:
            # LTP: pre trace at the moment of the post spike.
            dw = self.a_plus * np.outer(state.x_pre, np.ones(post_spikes.size))
            cols = weights[:, post_spikes]
            potentiation = dw * (self.w_max - cols) * mask[:, post_spikes]
            weights[:, post_spikes] = cols + potentiation
        if pre_spikes.size:
            # LTD: post trace at the moment of the pre spike.
            rows = weights[pre_spikes, :]
            depression = (
                self.a_minus
                * np.outer(np.ones(pre_spikes.size), state.x_post)
                * rows
                * mask[pre_spikes, :]
            )
            weights[pre_spikes, :] = rows - depression

        if pre_spikes.size:
            state.x_pre[pre_spikes] += 1.0
        if post_spikes.size:
            state.x_post[post_spikes] += 1.0
        np.clip(weights, 0.0, self.w_max, out=weights)
