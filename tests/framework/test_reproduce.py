"""Tests for programmatic paper-artifact reproduction.

Only dispatch and budget validation live here.  The artifacts themselves
run at full effort in ``benchmarks/test_fig5_energy.py``,
``test_table2_metrics.py``, ``test_fig6_exploration.py`` and
``test_fig7_swarm.py``, which assert the paper's shape and pin each
printed table; ``tests/framework/test_cli.py`` drives ``repro
reproduce`` end to end at low effort.
"""

import math

import pytest

from repro.framework.reproduce import ARTIFACTS, reproduce


class TestReproduceDispatch:
    def test_unknown_artifact(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            reproduce("fig99")

    def test_nonpositive_effort(self):
        """Every artifact refuses a budget that is not positive and
        finite, called by name or directly."""
        for effort in (0.0, -1.0, math.nan, math.inf):
            for artifact, run in ARTIFACTS.items():
                with pytest.raises(ValueError, match="effort"):
                    reproduce(artifact, effort=effort)
                with pytest.raises(ValueError, match="effort"):
                    run(effort=effort)

    def test_all_artifacts_registered(self):
        assert set(ARTIFACTS) == {"fig5", "table2", "fig6", "fig7"}
