"""Shared utilities: RNG management, validation helpers, table formatting."""

from repro.utils.rng import default_rng
from repro.utils.validation import check_count, check_nonnegative, check_positive
from repro.utils.tables import format_table

__all__ = [
    "default_rng",
    "check_count",
    "check_nonnegative",
    "check_positive",
    "format_table",
]
