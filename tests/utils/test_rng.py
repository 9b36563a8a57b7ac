"""Tests for RNG helpers: determinism, independence, coercion."""

import numpy as np

import pytest

from repro.utils.rng import default_rng, derive_seed, replayable


class TestDefaultRng:
    def test_int_seed_is_deterministic(self):
        a = default_rng(42).random(8)
        b = default_rng(42).random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = default_rng(1).random(8)
        b = default_rng(2).random(8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert default_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_none_stays_none(self):
        assert derive_seed(None, 3) is None

    def test_deterministic(self):
        assert derive_seed(10, 1) == derive_seed(10, 1)

    def test_salt_changes_seed(self):
        assert derive_seed(10, 1) != derive_seed(10, 2)

    def test_from_generator_is_int(self):
        s = derive_seed(np.random.default_rng(0), 0)
        assert isinstance(s, int)

    def test_extra_salts_change_seed(self):
        """Each (level, draw) cell of a campaign gets its own stream."""
        cells = {derive_seed(10, level, draw)
                 for level in range(4) for draw in range(5)}
        assert len(cells) == 20

    def test_trailing_zero_salts_drop_out(self):
        """SeedSequence pads its entropy with zeros: children of different
        salt counts collide, which is why a parent seed keeps one salt
        count.  Pinned so a change to the derivation shows."""
        assert derive_seed(10, 1, 0) == derive_seed(10, 1)
        assert derive_seed(10, 1, 0, 0) == derive_seed(10, 1)
        assert derive_seed(10, 1, 1) != derive_seed(10, 1)

    def test_salt_order_matters(self):
        assert derive_seed(10, 1, 2) != derive_seed(10, 2, 1)

    def test_child_seed_seeds_numpy(self):
        s = derive_seed(2018, 3, 4)
        assert isinstance(s, int) and s >= 0
        assert np.array_equal(default_rng(s).random(4), default_rng(s).random(4))

    def test_generator_parent_advances(self):
        """A generator is a position in a stream: each draw moves it on,
        so two children of the same generator differ."""
        gen = np.random.default_rng(0)
        assert derive_seed(gen, 0) != derive_seed(gen, 0)


class TestReplayable:
    @pytest.mark.parametrize(
        "seed, unused, expected",
        [
            (7, False, True),
            (7, True, True),
            (None, True, True),
            (None, False, False),
            (np.random.default_rng(0), False, False),
            (np.random.default_rng(0), True, False),
        ],
        ids=["int", "int-unused", "none-unused", "none-drawn",
             "generator", "generator-unused"],
    )
    def test_memoizable_only_by_content(self, seed, unused, expected):
        assert replayable(seed, unused=unused) is expected
