"""Tests for rate coding."""

import numpy as np
import pytest

from repro.snn.coding import rate_encode


class TestRateEncode:
    def test_linear_mapping(self):
        rates = rate_encode(np.array([0.0, 0.5, 1.0]), max_rate_hz=100.0)
        assert list(rates) == [0.0, 50.0, 100.0]

    def test_min_rate_floor(self):
        rates = rate_encode(np.array([0.0]), max_rate_hz=100.0, min_rate_hz=5.0)
        assert rates[0] == 5.0

    def test_clipping_out_of_range_values(self):
        rates = rate_encode(np.array([-1.0, 2.0]), max_rate_hz=10.0)
        assert list(rates) == [0.0, 10.0]

    def test_bad_bounds_raise(self):
        with pytest.raises(ValueError):
            rate_encode(np.array([0.5]), max_rate_hz=10.0, min_rate_hz=20.0)

    def test_equal_bounds_give_constant_rate(self):
        rates = rate_encode(np.array([0.0, 0.3, 1.0]), max_rate_hz=40.0,
                            min_rate_hz=40.0)
        assert rates.tolist() == [40.0, 40.0, 40.0]

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_nonpositive_max_rate_raises(self, bad):
        with pytest.raises(ValueError, match="max_rate_hz"):
            rate_encode(np.array([0.5]), max_rate_hz=bad)

    def test_negative_min_rate_raises(self):
        with pytest.raises(ValueError, match="min_rate_hz"):
            rate_encode(np.array([0.5]), max_rate_hz=10.0, min_rate_hz=-1.0)

    def test_shape_kept_and_float64(self):
        image = [[0, 1], [1, 0], [0.5, 0.25]]
        rates = rate_encode(image, max_rate_hz=8.0)
        assert rates.shape == (3, 2)
        assert rates.dtype == np.float64
        assert rates.tolist() == [[0.0, 8.0], [8.0, 0.0], [4.0, 2.0]]


class TestRateRoundTrip:
    def test_encode_decode_identity(self):
        values = np.array([0.1, 0.4, 0.9])
        rates = rate_encode(values, max_rate_hz=100.0)
        # Build exact trains at those rates over 1 s.
        trains = [np.arange(0.0, 1000.0, 1000.0 / r) for r in rates]
        # Spike counts over 1 s back to [0, 1] intensities.
        decoded = np.asarray([t.size for t in trains]) / 100.0
        assert np.allclose(decoded, values, atol=0.02)

