"""Synaptic weight quantization for memristive crossbars.

A memristor stores a synapse's weight as a conductance with a few
distinguishable levels — typically 4-6 bits per device — so deploying a
trained SNN onto the paper's hardware implies quantizing its weights.
This module provides the deployment-side quantizer and the analysis
needed to confirm a mapping survives it:

- uniform quantization to ``n_bits`` levels per weight sign, preserving
  zero exactly (a zero weight is an *absent* synapse; quantization must
  never create or destroy connectivity);
- quantization error reporting;
- a helper to quantize a whole :class:`~repro.snn.graph.SpikeGraph`
  into a copy for post-quantization mapping studies.

Partition quality is invariant to quantization — the optimizer consumes
spike *traffic*, not weights — which :mod:`tests.hardware.test_quantization`
asserts; what quantization affects is application accuracy upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.snn.graph import SpikeGraph
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of one quantization pass."""

    n_bits: int
    n_levels: int
    max_abs_error: float
    mean_abs_error: float
    n_weights: int
    n_saturated: int  # weights clipped at the top level


def quantize_weights(
    weights: np.ndarray,
    n_bits: int = 4,
    w_max: float = None,
) -> np.ndarray:
    """Uniformly quantize weights to ``2**n_bits - 1`` magnitude levels.

    Positive and negative weights quantize symmetrically; exact zeros stay
    exactly zero (absent synapses are not devices).  ``w_max`` fixes the
    full-scale magnitude (defaults to the array's max magnitude); larger
    magnitudes clip to full scale, which models conductance saturation.
    """
    check_positive("n_bits", n_bits)
    w = np.asarray(weights, dtype=np.float64)
    magnitude = np.abs(w)
    scale = w_max if w_max is not None else float(magnitude.max())
    if scale <= 0:
        return w.copy()
    levels = 2**n_bits - 1
    step = scale / levels
    quantized_mag = np.clip(np.round(magnitude / step), 0, levels) * step
    out = np.sign(w) * quantized_mag
    # Zero must survive exactly: never create a synapse from nothing.
    out[w == 0.0] = 0.0
    return out


def quantization_report(
    weights: np.ndarray,
    n_bits: int = 4,
    w_max: float = None,
) -> QuantizationReport:
    """Quantize and summarize the introduced error."""
    w = np.asarray(weights, dtype=np.float64)
    q = quantize_weights(w, n_bits=n_bits, w_max=w_max)
    nonzero = w != 0.0
    errors = np.abs(q[nonzero] - w[nonzero])
    scale = w_max if w_max is not None else float(np.abs(w).max() or 1.0)
    saturated = int((np.abs(w) > scale).sum())
    return QuantizationReport(
        n_bits=n_bits,
        n_levels=2**n_bits - 1,
        max_abs_error=float(errors.max()) if errors.size else 0.0,
        mean_abs_error=float(errors.mean()) if errors.size else 0.0,
        n_weights=int(nonzero.sum()),
        n_saturated=saturated,
    )


def quantize_graph(
    graph: SpikeGraph, n_bits: int = 4
) -> tuple[SpikeGraph, QuantizationReport]:
    """Quantize a spike graph's synaptic weights into a copy.

    Returns ``(quantized_graph, report)``; ``graph`` is unchanged.
    Traffic (spike counts) is untouched: quantization happens at
    deployment, after the profiling run that produced the traffic.
    """
    report = quantization_report(graph.weight, n_bits=n_bits)
    quantized = replace(graph, weight=quantize_weights(graph.weight, n_bits=n_bits))
    return quantized, report
