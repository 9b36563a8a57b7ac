"""Tests for the architecture description."""

import pytest

from repro.hardware.architecture import Architecture


class TestArchitecture:
    def test_total_capacity(self):
        arch = Architecture(n_crossbars=4, neurons_per_crossbar=128)
        assert arch.total_capacity == 512

    def test_fits(self):
        arch = Architecture(n_crossbars=2, neurons_per_crossbar=10)
        assert arch.fits(20) and not arch.fits(21)

    def test_require_fits_raises(self):
        arch = Architecture(n_crossbars=2, neurons_per_crossbar=10, name="t")
        with pytest.raises(ValueError, match="exceeds"):
            arch.require_fits(21)

    def test_build_topology_matches_crossbars(self):
        arch = Architecture(n_crossbars=6, neurons_per_crossbar=8,
                            interconnect="mesh")
        topo = arch.build_topology()
        assert topo.n_attach_points == 6
        assert topo.kind == "mesh"

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Architecture(n_crossbars=0, neurons_per_crossbar=8)
        with pytest.raises(ValueError):
            Architecture(n_crossbars=2, neurons_per_crossbar=-1)


class TestScaledTo:
    def test_crossbar_count_derived(self):
        arch = Architecture(n_crossbars=4, neurons_per_crossbar=128)
        scaled = arch.scaled_to(n_neurons=300, neurons_per_crossbar=100)
        assert scaled.neurons_per_crossbar == 100
        assert scaled.n_crossbars == 3
        assert scaled.fits(300)

    def test_exact_division(self):
        arch = Architecture(n_crossbars=1, neurons_per_crossbar=1)
        scaled = arch.scaled_to(n_neurons=200, neurons_per_crossbar=100)
        assert scaled.n_crossbars == 2

    def test_preserves_interconnect(self):
        arch = Architecture(n_crossbars=4, neurons_per_crossbar=8,
                            interconnect="star")
        assert arch.scaled_to(16, 4).interconnect == "star"


class TestMultiChipArchitecture:
    def test_build_topology_multichip(self):
        from repro.hardware.presets import custom
        from repro.noc.multichip import MultiChipTopology

        arch = custom(8, 16, interconnect="mesh", n_chips=2, bridge_latency=3)
        topo = arch.build_topology()
        assert isinstance(topo, MultiChipTopology)
        assert topo.n_chips == 2
        assert topo.bridge_latency == 3
        assert topo.chip_kind == "mesh"
        assert topo.n_attach_points == 8

    def test_single_chip_stays_flat(self):
        from repro.hardware.presets import custom
        from repro.noc.multichip import MultiChipTopology

        arch = custom(8, 16, interconnect="mesh")
        assert not isinstance(arch.build_topology(), MultiChipTopology)

    def test_chip_count_clamped_to_crossbars(self):
        """scaled_to may shrink below one crossbar per chip; still builds."""
        from repro.hardware.presets import custom

        arch = custom(8, 16, interconnect="mesh", n_chips=4)
        shrunk = arch.scaled_to(20, 20)  # 1 crossbar, 4 chips requested
        assert shrunk.n_crossbars == 1
        topo = shrunk.build_topology()
        assert topo.n_attach_points == 1

    def test_describe_mentions_chips(self):
        from repro.hardware.presets import custom

        arch = custom(8, 16, interconnect="mesh", n_chips=2, bridge_latency=5)
        text = arch.describe()
        assert "2 chips of mesh" in text
        assert "bridge latency 5" in text

    def test_invalid_chip_parameters_rejected(self):
        import pytest

        from repro.hardware.presets import custom

        with pytest.raises(ValueError):
            custom(8, 16, n_chips=0)
        with pytest.raises(ValueError):
            custom(8, 16, n_chips=2, bridge_latency=0)

    def test_multichip_board_preset(self):
        from repro.hardware.presets import multichip_board
        from repro.noc.multichip import MultiChipTopology

        arch = multichip_board(n_chips=4, crossbars_per_chip=4)
        assert arch.n_crossbars == 16
        topo = arch.build_topology()
        assert isinstance(topo, MultiChipTopology)
        assert topo.n_chips == 4
