"""Evaluation applications (paper Table I + synthetic topologies).

Four realistic applications with different computation models, topologies
and coding schemes, matching the paper's evaluation set:

=======================  ==========================  =========
application              topology                    coding
=======================  ==========================  =========
hello world (HW)         feedforward (117, 9)        rate
image smoothing (IS)     feedforward (1024, 1024)    rate
handwritten digit (HD)   recurrent (250, 250), STDP  rate
heartbeat est. (HE)      LSM (64, 16)                temporal
=======================  ==========================  =========

plus :func:`synthetic_feedforward` — the paper's m x n layered topologies
driven by 10 Poisson spike sources at 10-100 Hz.

Every builder returns a simulated :class:`~repro.snn.graph.SpikeGraph`
ready for the mapping pipeline; ``build_network`` variants expose the raw
:class:`~repro.snn.Network` for application-level experiments.
"""

from repro.apps.hello_world import build_hello_world
from repro.apps.image_smoothing import build_image_smoothing
from repro.apps.digit_recognition import build_digit_recognition
from repro.apps.heartbeat import build_heartbeat
from repro.apps.synthetic import (
    build_synthetic,
    synthetic_feedforward,
)
from repro.apps.registry import APPLICATIONS, build_application

__all__ = [
    "build_hello_world",
    "build_image_smoothing",
    "build_digit_recognition",
    "build_heartbeat",
    "build_synthetic",
    "synthetic_feedforward",
    "APPLICATIONS",
    "build_application",
]
