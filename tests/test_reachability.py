"""Every module under ``src/repro`` is reached from a caller.

The roots are what a user runs: the CLI (``python -m repro``), the
examples, the benchmarks and the perfbench workloads.  Following their
``repro`` imports, and then the imports of every module reached, must
reach each module of the package.  A package ``__init__`` re-export is
not a use: ``from repro.noc import x`` reaches the module that defines
``x``.  A module that only tests import has no place in ``src/``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _path(module):
    return SRC.joinpath(*module.split("."))


def _file(module):
    return _path(module).with_suffix(".py")


def _resolve(module, name):
    """The module ``from module import name`` takes ``name`` from."""
    submodule = f"{module}.{name}"
    if _path(submodule).is_dir() or _file(submodule).exists():
        return submodule
    if _path(module).is_dir():
        owner = getattr(importlib.import_module(module), name)
        return getattr(owner, "__module__", None) or module
    return module


def _imports(file):
    """The ``repro`` modules (not packages) one source file imports."""
    for node in ast.walk(ast.parse(file.read_text(), str(file))):
        if isinstance(node, ast.Import):
            found = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            found = [_resolve(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module in found:
            if module.split(".")[0] == "repro" and not _path(module).is_dir():
                yield module


def test_every_module_is_reached_from_a_caller():
    todo = ["repro.__main__", "repro.framework.cli"]
    for folder in ("examples", "benchmarks", "perfbench"):
        for file in sorted((ROOT / folder).glob("*.py")):
            todo.extend(_imports(file))
    reached = set()
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_imports(_file(module)))
    modules = {
        ".".join(file.relative_to(SRC).with_suffix("").parts)
        for file in (SRC / "repro").rglob("*.py")
        if file.name != "__init__.py"
    }
    missing = sorted(modules - reached)
    assert not missing, f"modules no caller reaches: {missing}"
