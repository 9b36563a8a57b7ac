"""Shared benchmark fixtures.

The application spike graphs come from the paper reproduction's one
table (:data:`repro.framework.reproduce.BENCH_GRAPHS`) and are
session-scoped: the SNN simulation (the CARLsim stage) runs once per app
regardless of how many benches use it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.framework.reproduce import FIG5_SYNTHETIC, bench_graph


@pytest.fixture(scope="session")
def hello_world_graph():
    return bench_graph("hello_world")


@pytest.fixture(scope="session")
def heartbeat_graph():
    return bench_graph("heartbeat")


@pytest.fixture(scope="session")
def synthetic_graphs():
    """The paper's plotted synthetic topologies: 1x200, 1x600, 3x200, 4x200."""
    return {app: bench_graph(app) for app in FIG5_SYNTHETIC}


@pytest.fixture
def assert_pinned(capsys):
    """Check the table a ``reproduce_*`` call printed against its pinned
    digest (sha256 of the text, 16 hex digits).

    Hashing the printed precision moves the digest exactly when a digit
    of the paper's table moves.  Re-pin only in a change that means to
    move the science.
    """

    def check(pinned: str) -> None:
        table = capsys.readouterr().out
        digest = hashlib.sha256(table.encode()).hexdigest()[:16]
        assert digest == pinned, (
            f"printed table moved: digest {digest}, pinned {pinned}\n{table}"
        )

    return check
