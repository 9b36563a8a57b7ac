"""Tests for connectivity builders."""

import numpy as np
import pytest

from repro.snn.synapse import distance_dependent, gaussian_kernel_2d


class TestGaussianKernel:
    def test_center_strongest(self):
        w = gaussian_kernel_2d((5, 5), sigma=1.0, weight=1.0, radius=2)
        center = 2 * 5 + 2
        row = w[center]
        assert row[center] == row.max() == 1.0

    def test_kernel_respects_radius(self):
        w = gaussian_kernel_2d((7, 7), sigma=1.0, weight=1.0, radius=1)
        center = 3 * 7 + 3
        targets = np.nonzero(w[center])[0]
        for t in targets:
            r, c = divmod(t, 7)
            assert abs(r - 3) <= 1 and abs(c - 3) <= 1

    def test_edge_pixels_have_fewer_targets(self):
        w = gaussian_kernel_2d((5, 5), sigma=1.0, radius=2)
        corner_targets = np.count_nonzero(w[0:1])
        center_targets = np.count_nonzero(w[12:13])
        assert corner_targets < center_targets

    def test_symmetric_weights(self):
        w = gaussian_kernel_2d((6, 6), sigma=1.5, radius=2)
        assert np.allclose(w, w.T)

    def test_default_radius_is_two_sigma(self):
        w = gaussian_kernel_2d((9, 9), sigma=1.5)
        center = 4 * 9 + 4
        rows, cols = np.divmod(np.nonzero(w[center])[0], 9)
        reach = (rows - 4) ** 2 + (cols - 4) ** 2
        assert reach.max() == 9  # radius ceil(2 * 1.5) = 3
        assert w[center, 4 * 9 + 7] == pytest.approx(np.exp(-9 / 4.5))

    def test_weight_scales_linearly(self):
        one = gaussian_kernel_2d((4, 4), sigma=1.0, weight=1.0, radius=2)
        three = gaussian_kernel_2d((4, 4), sigma=1.0, weight=3.0, radius=2)
        assert np.allclose(three, 3.0 * one)

    def test_non_square_grid_is_row_major(self):
        w = gaussian_kernel_2d((3, 5), sigma=1.0, radius=1)
        assert w.shape == (15, 15)
        # Pixel (0, 0) drives its right neighbour (0, 1) and the one
        # below it (1, 0) = index 5, but not (0, 2) or (2, 0).
        assert np.nonzero(w[0])[0].tolist() == [0, 1, 5]

    def test_single_pixel(self):
        w = gaussian_kernel_2d((1, 1), sigma=1.0, weight=2.5)
        assert w.tolist() == [[2.5]]

    @pytest.mark.parametrize(
        "shape, sigma, name",
        [((0, 3), 1.0, "rows"), ((3, -1), 1.0, "cols"), ((3, 3), 0.0, "sigma")],
    )
    def test_invalid_arguments_raise(self, shape, sigma, name):
        with pytest.raises(ValueError, match=name):
            gaussian_kernel_2d(shape, sigma=sigma)


class TestDistanceDependent:
    def test_nearby_more_likely_than_far(self):
        n = 64
        pos = np.array([(x, y, z) for x in range(4) for y in range(4)
                        for z in range(4)], dtype=float)
        w = distance_dependent(pos, pos, lambda_=2.0, probability_scale=1.0,
                               seed=3)
        dist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
        near = (w != 0) & (dist < 1.5)
        far = (w != 0) & (dist > 4.0)
        near_rate = near.sum() / max((dist < 1.5).sum(), 1)
        far_rate = far.sum() / max((dist > 4.0).sum(), 1)
        assert near_rate > far_rate

    def test_deterministic_given_seed(self):
        pos = np.random.default_rng(0).random((10, 3))
        a = distance_dependent(pos, pos, lambda_=1.0, seed=5)
        b = distance_dependent(pos, pos, lambda_=1.0, seed=5)
        assert np.array_equal(a, b)

    def test_invalid_lambda_raises(self):
        pos = np.zeros((3, 3))
        with pytest.raises(ValueError):
            distance_dependent(pos, pos, lambda_=0.0)

    def test_zero_probability_scale_is_empty(self):
        pos = np.random.default_rng(1).random((6, 3))
        w = distance_dependent(pos, pos, lambda_=1.0, probability_scale=0.0,
                               seed=2)
        assert not w.any()

    def test_connected_synapses_get_max_weight(self):
        pos = np.random.default_rng(4).random((12, 3))
        w = distance_dependent(pos, pos, lambda_=1.0, max_weight=0.7, seed=6)
        assert w.any()
        assert set(np.unique(w).tolist()) <= {0.0, 0.7}

    def test_rectangular_projection(self):
        rng = np.random.default_rng(8)
        w = distance_dependent(rng.random((5, 2)), rng.random((3, 2)),
                               lambda_=1.0, seed=9)
        assert w.shape == (5, 3)

    def test_long_range_scale_one_connects_all(self):
        rng = np.random.default_rng(10)
        pre, post = rng.random((4, 3)), rng.random((7, 3))
        w = distance_dependent(pre, post, lambda_=1e9, max_weight=2.0, seed=11)
        assert (w == 2.0).all()
