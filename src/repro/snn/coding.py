"""Spike coding schemes.

The paper distinguishes rate-coded applications (hello world, image
smoothing, digit recognition) from temporally coded ones (heartbeat
estimation), because ISI distortion on the interconnect only degrades the
latter.  This module provides the rate encoder that turns analog stimuli
into Poisson rates (the temporal encoder of the heartbeat application
lives with it, in :mod:`repro.apps.heartbeat`).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def rate_encode(
    values: np.ndarray,
    max_rate_hz: float = 100.0,
    min_rate_hz: float = 0.0,
) -> np.ndarray:
    """Map stimulus intensities in [0, 1] to Poisson rates in Hz.

    Linear mapping, the scheme used by Diehl & Cook for MNIST pixels.
    """
    check_positive("max_rate_hz", max_rate_hz)
    if min_rate_hz < 0 or min_rate_hz > max_rate_hz:
        raise ValueError("require 0 <= min_rate_hz <= max_rate_hz")
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return min_rate_hz + v * (max_rate_hz - min_rate_hz)

