"""Every path the CI files name exists.

The lint job format-checks the files listed in
``.github/format-adopted.txt`` and the tier-1 job runs the ``tests/…``
and ``benchmarks/…`` paths its steps name.  A path left behind by a
deleted or moved file breaks those jobs on CI only, so it is caught
here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GITHUB = ROOT / ".github"


def _missing(paths):
    return sorted(path for path in set(paths) if not (ROOT / path).exists())


def test_format_adopted_paths_exist():
    lines = (GITHUB / "format-adopted.txt").read_text().splitlines()
    paths = [line.strip() for line in lines if line.strip()]
    assert paths
    missing = _missing(paths)
    assert not missing, f"format-adopted.txt names missing paths: {missing}"


def test_ci_test_and_bench_paths_exist():
    text = (GITHUB / "workflows" / "ci.yml").read_text()
    paths = re.findall(r"\b(?:tests|benchmarks)/[\w./-]*\w", text)
    assert paths
    missing = _missing(paths)
    assert not missing, f"ci.yml names missing paths: {missing}"
