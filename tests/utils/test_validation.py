"""Tests for argument validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_index_range,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", float("nan"))


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_nonnegative("x", -1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be non-negative"):
            check_nonnegative("x", float("nan"))


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError, match="p"):
            check_probability("p", bad)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            check_probability("p", float("nan"))


class TestCheckIndexRange:
    def test_accepts_in_range(self):
        check_index_range("idx", [0, 1, 4], 5)

    def test_empty_ok(self):
        check_index_range("idx", [], 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="idx"):
            check_index_range("idx", [-1, 0], 5)

    def test_rejects_too_large(self):
        with pytest.raises(ValueError, match="idx"):
            check_index_range("idx", [5], 5)

    def test_message_names_bounds(self):
        with pytest.raises(ValueError, match=r"min=-2, max=3, allowed=\[0, 3\)"):
            check_index_range("idx", np.array([-2, 3]), 3)

    def test_two_dimensional_array_checked_whole(self):
        check_index_range("idx", np.array([[0, 1], [2, 0]]), 3)
        with pytest.raises(ValueError, match="idx"):
            check_index_range("idx", np.array([[0, 1], [2, 3]]), 3)
