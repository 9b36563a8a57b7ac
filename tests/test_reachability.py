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
other way round.  The same holds for every public module-level
constant (a name a top-level assignment binds, outside a package
``__init__``): some code reads it.  Assigning to a name is not a use.

One level further down the same holds for options: every defaulted
parameter of a public function, method or constructor, and every
defaulted field of a public dataclass or named tuple, is set by some
call in ``src/`` or a root folder -- by keyword, by position, through
``*`` / ``**`` unpacking (``cls(**config)``), by ``cls(...)`` inside
the class, or by ``dataclasses.replace(..., field=...)``.  A call is
matched by the name it calls (a subclass's name calls its base's
constructor), so this check is a floor too.  A callable handed on as a
value (a call argument, a container element, an assigned or returned
value) may be called with anything, so its options all count as set.
An option no caller sets is a constant or dead code: it goes, with the
branch it selects, or becomes a module constant.  State that a
constructor fills in is ``field(init=False)``, not an option.  The
parameters of a name :data:`ALLOWED` keeps are kept with it.

:data:`ALLOWED` names the few kept exceptions of both checks.
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
    "repro.framework.cli:main(argv)": (
        "the console entry point reads sys.argv when called bare; argv is "
        "how an embedding program (and the CLI tests) pass their own"
    ),
    "repro.noc.interconnect:NocConfig(max_extra_cycles)": (
        "safety bound: the drain deadline and the delivery certificate's "
        "hop bound read it, and tests drive both through it"
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


def _constants():
    """``(qualname, name, node, file)`` of every public module-level
    constant: each name a top-level assignment binds in a module that
    is not a package ``__init__``."""
    for file in _src_files():
        if file.name == "__init__.py":
            continue
        module = _module_name(file)
        for node in _parse(file).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id[0] != "_":
                        yield f"{module}:{name.id}", name.id, node, file


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


def _reads(file):
    """The nodes of one file, without the targets it assigns to."""
    for node in ast.walk(_parse(file)):
        if not isinstance(getattr(node, "ctx", None), ast.Store):
            yield node


def _uses():
    """Every read name, mapped to the ``(file, line)`` of each use in
    ``src/``; a use from a root folder is ``(None, 0)``."""
    uses = {}
    for file in _src_files():
        for node in _reads(file):
            for name in _referenced(node):
                uses.setdefault(name, []).append((file, node.lineno))
    for file in _root_files():
        for node in _reads(file):
            for name in _referenced(node) + _patched(node):
                uses.setdefault(name, []).append((None, 0))
    return uses


def _unreached():
    uses = _uses()
    named = [
        (qualname, node.name, node, file) for qualname, node, file in _definitions()
    ]
    for qualname, name, node, file in named + list(_constants()):
        inside = range(node.lineno, node.end_lineno + 1)
        if all(at == file and line in inside for at, line in uses.get(name, ())):
            yield qualname


def test_every_public_name_is_reached_from_a_caller():
    unreached = set(_unreached())
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, f"names no caller reaches: {missing}"
    stale = sorted(k for k in set(ALLOWED) - unreached if "(" not in k)
    assert not stale, f"allowed names a caller reaches, or gone: {stale}"


def _is_record(node):
    """Whether a class's annotated fields are its constructor's parameters
    (a ``@dataclass`` or a ``NamedTuple``)."""
    for target in node.decorator_list:
        target = target.func if isinstance(target, ast.Call) else target
        if _referenced(target) == ["dataclass"]:
            return True
    return any(_referenced(base) == ["NamedTuple"] for base in node.bases)


def _init_false(value):
    return (
        isinstance(value, ast.Call)
        and _referenced(value.func) == ["field"]
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and not k.value.value
            for k in value.keywords
        )
    )


def _fields(node):
    """``(name, defaulted)`` of each constructor field of a record class."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            annotation = ast.unparse(item.annotation)
            if "ClassVar" not in annotation and not _init_false(item.value):
                yield item.target.id, item.value is not None


def _parameters(fn, method):
    """The positional parameter names of a function (without a method's
    ``self`` / ``cls``) and the names of its defaulted parameters."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and ["staticmethod"] not in map(_referenced, fn.decorator_list):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults) :]
    if not args.defaults:
        defaulted = []
    keyword_only = zip(args.kwonlyargs, args.kw_defaults)
    return positional, defaulted + [a.arg for a, d in keyword_only if d is not None]


def _subclasses():
    """Each ``src/`` class name, mapped to its own and its subclasses' names."""
    bases = {}
    for file in _src_files():
        for node in ast.walk(_parse(file)):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    for name in _referenced(base):
                        bases.setdefault(name, set()).add(node.name)
    closure = {}
    for name in bases:
        todo, seen = [name], {name}
        while todo:
            for sub in bases.get(todo.pop(), ()):
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        closure[name] = seen
    return closure


def _options():
    """``(qualname, callee names, positional names, defaulted names,
    record)`` of every public function, method and constructor (``record``:
    the dataclass or named-tuple fields), skipping the names
    :data:`ALLOWED` keeps."""
    subclasses = _subclasses()
    for qualname, node, _ in _definitions():
        if qualname in ALLOWED:
            continue
        if isinstance(node, ast.FunctionDef):
            method = "." in qualname.split(":")[1]
            yield qualname, {node.name}, *_parameters(node, method), False
            continue
        names = subclasses.get(node.name, {node.name})
        if _is_record(node):
            fields = list(_fields(node))
            defaulted = [name for name, default in fields if default]
            yield qualname, names, [name for name, _ in fields], defaulted, True
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                callees = names | {"__init__"}
                positional, defaulted = _parameters(item, method=True)
                yield f"{qualname}.__init__", callees, positional, defaulted, False


def _handed_on(node, parents):
    """Whether a name is passed on as a value rather than called."""
    parent = parents.get(node)
    if isinstance(parent, ast.keyword):
        parent = parents.get(parent)
    elif isinstance(parent, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
        parent = parents.get(parent)
        if isinstance(parent, (ast.Compare, ast.Subscript)):
            return False
        if not isinstance(parent, ast.Call):
            return True
    if isinstance(parent, ast.Call):
        checks = (["isinstance"], ["issubclass"])
        return node is not parent.func and _referenced(parent.func) not in checks
    return isinstance(parent, (ast.Assign, ast.Return, ast.Lambda))


def _without_annotations(tree):
    """``tree`` with its annotations blanked: a type named in one is not
    a callable handed on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
        elif isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.FunctionDef):
            node.returns = None
    return tree


def _calls():
    """Each called name, mapped to the ``(n_positional, keywords,
    unpacked)`` of every call to it in ``src/`` and the root folders (a
    callable handed on counts as one unpacked call); also every field
    name a ``replace(...)`` call sets."""
    calls, replaced = {}, set()
    for file in _src_files() + _root_files():
        tree = _without_annotations(_parse(file))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if isinstance(node, ast.Name) and node.id == "cls":
                        node.id = cls.name
        parents = {}
        for node in ast.walk(tree):
            parents.update(dict.fromkeys(ast.iter_child_nodes(node), node))
        for node in ast.walk(tree):
            for name in _referenced(node):
                if _handed_on(node, parents):
                    calls.setdefault(name, []).append((0, set(), True))
            if not isinstance(node, ast.Call):
                continue
            keywords = {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            call = (len(node.args), keywords, None in keywords or starred)
            for name in _referenced(node.func):
                calls.setdefault(name, []).append(call)
                if name == "replace":
                    replaced |= keywords
    return calls, replaced


def _unset():
    calls, replaced = _calls()
    for qualname, names, positional, defaulted, record in _options():
        for param in defaulted:
            if record and param in replaced:
                continue
            index = positional.index(param) if param in positional else len(positional)
            if not any(
                unpacked or param in keywords or index < n_positional
                for name in names
                for n_positional, keywords, unpacked in calls.get(name, ())
            ):
                yield f"{qualname}({param})"


def test_every_option_is_set_by_a_caller():
    unset = set(_unset())
    missing = sorted(unset - set(ALLOWED))
    assert not missing, f"options no caller sets: {missing}"
    stale = sorted(k for k in set(ALLOWED) - unset if "(" in k)
    assert not stale, f"allowed options a caller sets, or gone: {stale}"
