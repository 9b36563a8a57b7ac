"""Everything under ``src/repro`` is reached from a caller.

The roots are what a user runs: the CLI (``python -m repro``), the
examples, the benchmarks and the perfbench workloads.  Following their
``repro`` imports, and then the imports of every module reached, must
reach each module of the package.  A package ``__init__`` re-export is
not a use: ``from repro.noc import x`` reaches the module that defines
``x``.  A module that only tests import has no place in ``src/``.

One level down the same holds for names: every public top-level
function and class, and every public method and property of a
top-level class, is referenced by name (an ``ast.Name`` or an
``ast.Attribute``) in ``src/`` code outside its own definition, in a
root folder, or in one of perfbench's ``"module:qualname"`` patch
targets.  Re-exports, ``__all__``, docstrings and tests are not uses.
A method is matched by its attribute name alone, so the check can
miss a dead method that shares its name with a live one, never the
other way round.  :data:`ALLOWED` names the few kept exceptions.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOT_FOLDERS = ("examples", "benchmarks", "perfbench")

#: Public names no caller reaches that stay in ``src/``, each with why.
ALLOWED = {
    "repro.snn.graph:SpikeGraph.to_networkx": (
        "one of the three networkx exporters README documents for users "
        "of the test extra; tests/snn/test_graph.py checks it"
    ),
    "repro.snn.graph:SpikeGraph.undirected_traffic": (
        "networkx exporter (README): the undirected traffic graph NEUTRAMS "
        "bisects; tests/snn/test_graph.py checks it"
    ),
    "repro.noc.topology:RouterGraph.to_networkx": (
        "networkx exporter (README); test_router_graph checks the stdlib "
        "graph against networkx through it"
    ),
    "repro.obs.metrics:MetricsRegistry.counter_value": (
        "read side of repro.obs: how a caller reads one counter back"
    ),
    "repro.obs.metrics:NullMetricsRegistry.counter_value": (
        "the disabled observer's twin of MetricsRegistry.counter_value"
    ),
    "repro.obs.tracer:Tracer.iter_spans": (
        "read side of repro.obs: how a caller reads the recorded spans"
    ),
    "repro.obs.tracer:NullTracer.iter_spans": (
        "the disabled observer's twin of Tracer.iter_spans"
    ),
    "repro.snn.graph:SpikeGraph.from_edges": (
        "documented constructor of a spike graph from an edge list"
    ),
    "repro.hardware.presets:cxquad": (
        "the paper's reference platform (CxQuad), exported by repro.hardware"
    ),
}

_PATCH_TARGET = re.compile(r"repro(\.\w+)+:[\w.]+")


def _path(module):
    return SRC.joinpath(*module.split("."))


def _file(module):
    return _path(module).with_suffix(".py")


def _module_name(file):
    return ".".join(file.relative_to(SRC).with_suffix("").parts)


def _parse(file):
    return ast.parse(file.read_text(), str(file))


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
    for node in ast.walk(_parse(file)):
        if isinstance(node, ast.Import):
            found = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            found = [_resolve(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module in found:
            if module.split(".")[0] == "repro" and not _path(module).is_dir():
                yield module


def _src_files():
    return sorted((SRC / "repro").rglob("*.py"))


def _root_files():
    return [file for folder in ROOT_FOLDERS for file in (ROOT / folder).rglob("*.py")]


def test_every_module_is_reached_from_a_caller():
    todo = ["repro.__main__", "repro.framework.cli"]
    for folder in ROOT_FOLDERS:
        for file in sorted((ROOT / folder).glob("*.py")):
            todo.extend(_imports(file))
    reached = set()
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_imports(_file(module)))
    modules = {
        _module_name(file) for file in _src_files() if file.name != "__init__.py"
    }
    missing = sorted(modules - reached)
    assert not missing, f"modules no caller reaches: {missing}"


def _definitions():
    """``(qualname, node, file)`` of every public top-level function and
    class and every public method and property of a top-level class."""
    for file in _src_files():
        module = _module_name(file)
        for node in _parse(file).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}:{node.name}", node, file
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{module}:{node.name}.{item.name}", item, file


def _referenced(node):
    """The names one AST node refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _patched(node):
    """The names one perfbench ``"module:qualname"`` patch target names."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _PATCH_TARGET.fullmatch(node.value):
            return node.value.split(":")[1].split(".")
    return []


def _uses():
    """Every referenced name, mapped to the ``(file, line)`` of each use
    in ``src/``; a use from a root folder is ``(None, 0)``."""
    uses = {}
    for file in _src_files():
        for node in ast.walk(_parse(file)):
            for name in _referenced(node):
                uses.setdefault(name, []).append((file, node.lineno))
    for file in _root_files():
        for node in ast.walk(_parse(file)):
            for name in _referenced(node) + _patched(node):
                uses.setdefault(name, []).append((None, 0))
    return uses


def _unreached():
    uses = _uses()
    for qualname, node, file in _definitions():
        inside = range(node.lineno, node.end_lineno + 1)
        if all(at == file and line in inside for at, line in uses.get(node.name, ())):
            yield qualname


def test_every_public_name_is_reached_from_a_caller():
    unreached = set(_unreached())
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, f"names no caller reaches: {missing}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"allowed names a caller reaches, or gone: {stale}"
