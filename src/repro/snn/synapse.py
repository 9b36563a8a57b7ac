"""Connectivity builders for projections between populations.

A projection's connectivity is a dense weight matrix of shape
``(pre.size, post.size)`` where zero means "no synapse".  Dense storage is
deliberate: the paper's largest network is 2048 neurons (image smoothing),
so the biggest matrix is 1024 x 1024 doubles = 8 MB, and dense numpy keeps
the per-tick propagation a single matmul-free fancy-index reduction.

The functions here construct the weight patterns of the paper's
applications: spatial (convolution-like) kernels for the image-smoothing
network and distance-decayed random wiring for liquid-state-machine pools.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive


def gaussian_kernel_2d(
    shape: Tuple[int, int],
    sigma: float,
    weight: float = 1.0,
    radius: Optional[int] = None,
) -> np.ndarray:
    """Spatial smoothing connectivity on a 2D pixel grid.

    Both pre- and post-populations are ``shape[0] * shape[1]`` neurons laid
    out row-major.  Pixel (r, c) drives pixels within ``radius`` with
    Gaussian-decayed weights — the image-smoothing application's topology.
    """
    rows, cols = shape
    check_positive("rows", rows)
    check_positive("cols", cols)
    check_positive("sigma", sigma)
    if radius is None:
        radius = max(1, int(np.ceil(2.0 * sigma)))
    n = rows * cols
    w = np.zeros((n, n), dtype=np.float64)
    offsets = [
        (dr, dc)
        for dr in range(-radius, radius + 1)
        for dc in range(-radius, radius + 1)
        if dr * dr + dc * dc <= radius * radius
    ]
    kernel = {
        (dr, dc): weight * float(np.exp(-(dr * dr + dc * dc) / (2.0 * sigma**2)))
        for dr, dc in offsets
    }
    for r in range(rows):
        for c in range(cols):
            pre = r * cols + c
            for (dr, dc), k in kernel.items():
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    w[pre, rr * cols + cc] = k
    return w


def distance_dependent(
    positions_pre: np.ndarray,
    positions_post: np.ndarray,
    lambda_: float,
    max_weight: float = 1.0,
    probability_scale: float = 1.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Distance-decayed random connectivity for liquid-state-machine pools.

    Connection probability between neurons at Euclidean distance ``d`` is
    ``probability_scale * exp(-(d / lambda_)**2)`` — the standard Maass LSM
    wiring rule.  Connected synapses get weight ``max_weight``.
    """
    check_positive("lambda_", lambda_)
    rng = default_rng(seed)
    diff = positions_pre[:, None, :] - positions_post[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    prob = probability_scale * np.exp(-((dist / lambda_) ** 2))
    np.clip(prob, 0.0, 1.0, out=prob)
    mask = rng.random(prob.shape) < prob
    return np.where(mask, max_weight, 0.0)

