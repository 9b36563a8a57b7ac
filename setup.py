"""Package metadata and legacy setup shim.

Metadata lives here (not in a ``[project]`` table) on purpose: the
development environment has no network access and no ``wheel`` package,
so PEP 660 editable installs cannot build and the repo is installed with
``python setup.py develop`` — which only reads setup() arguments.  CI
installs the same metadata through ``pip install -e .[test]``.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    """Single source of truth: ``repro.__version__``."""
    init = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init) as fh:
        return re.search(r'^__version__ = "(.+?)"', fh.read(), re.M).group(1)


setup(
    name="repro-datesnn",
    version=_version(),
    description=(
        "Reproduction of PSO-based SNN partitioning onto crossbar "
        "neuromorphic hardware with a cycle-accurate NoC simulator "
        "(Das et al., DATE 2018)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.noc": ["_fastsim_kernel.c"]},
    install_requires=[  # CI's runtime-deps job runs on these alone
        "numpy>=2.0",  # np.bitwise_count (columnar mask popcounts)
    ],
    extras_require={
        "test": [
            "pytest>=8",
            "pytest-benchmark>=4",
            "hypothesis>=6",
            "networkx>=3.0",  # test oracles and the to_networkx() exporters
            "scipy>=1.13",  # first scipy ABI-compatible with numpy 2
        ],
    },
)
