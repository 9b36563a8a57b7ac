"""Tests for argument validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_count,
    check_index_range,
    check_nonnegative,
    check_positive,
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


class TestCheckCount:
    @pytest.mark.parametrize("good", [1, 7, np.int64(3)])
    def test_accepts_integers_of_at_least_one(self, good):
        assert check_count("n", good) == good

    @pytest.mark.parametrize("bad", [2.5, 2.0, "8", None, np.float64(3.0)])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_count("n", bad)

    @pytest.mark.parametrize("bad", [0, -1, np.int64(0)])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError, match="n must be >= 1"):
            check_count("n", bad)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_nonnegative("x", -1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be non-negative"):
            check_nonnegative("x", float("nan"))


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
