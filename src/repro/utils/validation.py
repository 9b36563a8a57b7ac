"""Small argument-validation helpers used across the library.

These raise ``ValueError`` with a message naming the offending argument,
so failures surface at the public API boundary rather than deep inside
numpy broadcasting.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_count(name: str, value: int) -> int:
    """Require an integer (``operator.index`` accepts it) of at least 1."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0`` (NaN fails, as in :func:`check_positive`)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_finite(name: str, value) -> None:
    """Require ``value`` (a number or an array) to be finite everywhere."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_index_range(name: str, indices: Sequence[int], upper: int) -> None:
    """Require every index in ``indices`` to lie in ``[0, upper)``."""
    arr = np.asarray(indices)
    if arr.size == 0:
        return
    if arr.min() < 0 or arr.max() >= upper:
        raise ValueError(
            f"{name} contains out-of-range indices "
            f"(min={arr.min()}, max={arr.max()}, allowed=[0, {upper}))"
        )
