"""Content-addressed result cache for the mapping service layer.

The cache memoizes *results*, not parts.  It holds four kinds of entry:

- ``mapping-result`` (memory + disk) — a deterministic ``map_snn``
  answer; a hit skips the optimizer, the one thing the disk layer is for.
- ``pipeline-result`` (memory only) — a deterministic ``run_pipeline``
  answer; a hit skips everything.  A new process on the same directory
  reads the mapping from disk and measures it again.
- ``warm-state`` (memory + disk) — the best converged swarm assignment
  per (graph, architecture, objective): ``MapRequest(warm=True)``.
- ``sweep-point`` (memory + disk) — one finished point of a long sweep:
  a fault campaign's (level, draw) rows, an ``explore`` point.  Small
  tuples of plain numbers keyed by the point's content, so a killed
  sweep run again on the same directory computes only what is missing,
  and a changed flag, seed or mapping addresses other entries.

Topologies, routing tables, hop matrices, schedules, fault draws and
NoC statistics are *not* cached.  Measured per kind (CHANGES.md, PR 21)
they cost what they saved — a 6-crossbar topology builds in 0.09 ms, its
key hashes in 0.036 ms and stores in 0.18 ms; schedules were 92 % of the
bytes on disk — and the sharing they stood for exists without a key:
per instance (``Topology`` keeps its hop matrices), per run (one
schedule per fabric addressing).  So ``cache=None`` and a cache miss run
the same builders in the same order.

- **stable keys** — :func:`stable_hash` folds a token tree of primitives
  and numpy arrays into a sha256 digest.  No ``hash()`` anywhere, so a
  request hashes identically across processes and Python releases
  regardless of ``PYTHONHASHSEED``.
- **token helpers** — :func:`architecture_token`, :func:`graph_token`,
  :func:`mapping_token` and :func:`pipeline_token` cover everything that
  changes the result (platform, fault spec, seeds, optimizer
  configuration) and nothing that does not.  Each frozen input — spike
  graph, architecture, config dataclass — is folded into a digest once
  per instance, so a repeated request hashes digests, not arrays.
- **:class:`ArtifactCache`** — a thread-safe, unbounded memo store with
  an optional on-disk layer (``cache_dir``).  Disk entries are atomic
  pickles named by their key; corrupted or truncated entries are
  discarded and rebuilt, never crashed on, and a write that fails is
  counted (``stats["persist_failures"]``), never raised.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import weakref
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs import get_observer

#: Bump when token layouts change incompatibly: old on-disk entries then
#: miss instead of deserializing into the wrong shape.
CACHE_SCHEMA = 4

_DIGESTS: Dict[int, Any] = {}  # id(instance) -> (weakref, digest); see _digest


# -- stable hashing ----------------------------------------------------------


def _fold(h, obj: Any) -> None:
    """Fold one token-tree node into the running digest (type-tagged)."""
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, int):
        h.update(b"I" + str(obj).encode() + b";")
    elif isinstance(obj, float):
        h.update(b"F" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(b"S" + str(len(raw)).encode() + b":" + raw + b";")
    elif isinstance(obj, bytes):
        h.update(b"Y" + str(len(obj)).encode() + b":" + obj + b";")
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        head = f"A{a.dtype.str}{a.shape}".encode()
        h.update(head + a.tobytes() + b";")
    elif isinstance(obj, np.generic):
        _fold(h, obj.item())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode() + b"[")
        for item in obj:
            _fold(h, item)
        h.update(b"];")
    elif isinstance(obj, (set, frozenset)):
        _fold(h, sorted(obj, key=repr))
    elif isinstance(obj, Mapping):
        _fold(h, sorted(obj.items(), key=lambda kv: repr(kv[0])))
    else:
        raise TypeError(
            f"unhashable token node of type {type(obj).__name__}: {obj!r}"
        )


def stable_hash(token: Any) -> str:
    """sha256 hex digest of a token tree, stable across processes.

    Accepts primitives, numpy arrays/scalars, lists/tuples, sets and
    mappings; anything else raises ``TypeError`` (silent repr-based
    fallbacks could collide across objects, which a content-addressed
    store must never do).
    """
    h = hashlib.sha256()
    _fold(h, (CACHE_SCHEMA, token))
    return h.hexdigest()


def _digest(kind: str, instance: Any, token: Callable[[Any], Any]) -> str:
    """``stable_hash`` of a frozen key input's ``token``, derived once per
    instance (counted as ``cache.digests_built{kind}``) and memoized by
    identity beside it, never on it: no pickle or copy carries a digest
    (it embeds ``CACHE_SCHEMA``), and the entry dies with the instance.
    Unlocked: threads racing on one instance store the same digest."""
    key = id(instance)
    entry = _DIGESTS.get(key)
    if entry is None or entry[0]() is not instance:
        alive = weakref.ref(instance, lambda _: _DIGESTS.pop(key, None))
        entry = _DIGESTS[key] = (alive, stable_hash((kind, token(instance))))
        get_observer().inc("cache.digests_built", kind=kind)
    return entry[1]


def _config_fields(config: Any) -> Any:
    return (
        type(config).__name__,
        tuple((f.name, repr(getattr(config, f.name))) for f in fields(config)),
    )


def config_token(config: Any) -> Any:
    """Canonical token of a frozen config dataclass (``None`` passes through).

    One digest per instance of its field values folded by ``repr``, which
    round-trips floats exactly.
    """
    if config is None:
        return None
    if not (is_dataclass(config) and type(config).__dataclass_params__.frozen):
        raise TypeError(f"expected a frozen config dataclass, got {config!r}")
    return _digest("config", config, _config_fields)


# -- token builders ----------------------------------------------------------


def _architecture_structure(architecture) -> Any:
    return (
        architecture.n_crossbars,
        architecture.neurons_per_crossbar,
        architecture.interconnect,
        architecture.cycles_per_ms,
        architecture.n_chips,
        architecture.bridge_latency,
        config_token(architecture.energy),
    )


def architecture_token(architecture, include_name: bool = False) -> Any:
    """Canonical token of an architecture's *structural* identity.

    One digest per instance.  The report label (``name``) is excluded by
    default so platforms that differ only in how they are labelled share
    one warm-start pool; result-level memo keys pass ``include_name=True``
    (the label is printed in the report) and get it beside the digest.
    """
    digest = _digest("architecture", architecture, _architecture_structure)
    return (digest, architecture.name) if include_name else digest


def _graph_content(graph) -> Any:
    return (
        graph.name,
        graph.n_neurons,
        graph.src,
        graph.dst,
        graph.traffic,
        graph.layers,
        graph.spike_counts(),
        np.concatenate((np.empty(0), *graph.spike_times)),
    )


def graph_token(graph) -> Any:
    """Canonical content token of a spike graph: one digest per frozen
    :class:`~repro.snn.graph.SpikeGraph` (since ``CACHE_SCHEMA`` 2), folded on
    first use from its name, size, arrays and spike counts and times."""
    return _digest("graph", graph, _graph_content)


def fault_token(faults: int, fault_seed) -> Any:
    """Token of a random-fault draw spec as ``run_pipeline`` takes it."""
    return ("faults", int(faults), fault_seed)


def mapping_token(
    graph,
    architecture,
    *,
    method: str,
    seed,
    pso_config=None,
    warm_start: bool = True,
    placement: bool = True,
    objective: str = "packets",
    noc_config=None,
    warm_seeds=None,
    spare_capacity: float = 0.0,
) -> Any:
    """Memo token of one ``map_snn`` call (worker counts excluded)."""
    return (
        "mapping",
        graph_token(graph),
        architecture_token(architecture, include_name=True),
        method,
        seed,
        config_token(pso_config),
        warm_start,
        placement,
        objective,
        config_token(noc_config),
        None if warm_seeds is None else np.asarray(warm_seeds, dtype=np.int64),
        float(spare_capacity),
    )


def pipeline_token(
    graph,
    architecture,
    *,
    method: str,
    seed,
    pso_config=None,
    noc_config=None,
    objective: str = "packets",
    faults: int = 0,
    fault_seed=None,
    warm_seeds=None,
    spare_capacity: float = 0.0,
) -> Any:
    """Memo token of one ``run_pipeline`` call (worker counts excluded)."""
    return (
        "pipeline",
        graph_token(graph),
        architecture_token(architecture, include_name=True),
        method,
        seed,
        config_token(pso_config),
        config_token(noc_config),
        objective,
        fault_token(faults, fault_seed),
        None if warm_seeds is None else np.asarray(warm_seeds, dtype=np.int64),
        float(spare_capacity),
    )


# -- the cache ---------------------------------------------------------------


class ArtifactCache:
    """Thread-safe content-addressed memo store with an optional disk layer.

    Parameters
    ----------
    cache_dir:
        Directory for persistent entries (created on demand).  ``None``
        keeps the cache purely in-memory.  Only entries stored with
        ``persist=True`` are written to disk: mapping results (small,
        and a hit skips the optimizer), warm-start states and sweep
        points.  Pipeline results stay in memory.  The memory layer
        keeps every entry for the cache's lifetime.

    Notes
    -----
    Entries are keyed by :func:`stable_hash` over canonical token trees,
    so two content-identical requests made in different processes
    address the same entry.  The store itself is generic (``key`` /
    ``get`` / ``put``); the four kinds it holds are listed in the
    module docstring.  Corrupted disk entries (truncated writes,
    foreign junk) are discarded and rebuilt, and a failed disk write is
    counted in ``stats["persist_failures"]`` — the cache must never turn
    a cache *problem* into a serving failure.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self._mem: Dict[str, Any] = {}
        self._lock = threading.RLock()
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
            "corrupt_discarded": 0,
            "persist_failures": 0,
            "stores": 0,
        }

    # -- generic store -------------------------------------------------------

    def key(self, kind: str, token: Any) -> str:
        return stable_hash((kind, token))

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _load_disk(self, key: str) -> Any:
        """Disk lookup: ``(found, value)``; corrupt entries are discarded."""
        path = self._path(key)
        if not os.path.exists(path):
            return False, None
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if not (isinstance(payload, tuple) and len(payload) == 2):
                raise ValueError("malformed cache payload")
            stored_key, value = payload
            if stored_key != key:
                raise ValueError("cache entry key mismatch")
            return True, value
        except Exception:
            with self._lock:
                self.stats["corrupt_discarded"] += 1
            get_observer().inc("cache.corrupt_discarded")
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None

    def _store_disk(self, key: str, value: Any) -> None:
        """Atomic pickle write (tmp file + rename); failures are counted."""
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp", prefix=key[:16]
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump((key, value), fh)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # A cache that cannot persist still serves from memory, but
            # says so: sweep checkpoints ride on this layer.
            with self._lock:
                self.stats["persist_failures"] += 1
            get_observer().inc("cache.persist_failures")

    def get(self, key: str):
        """``(found, value)`` for a key, consulting memory then disk."""
        obs = get_observer()
        with self._lock:
            if key in self._mem:
                self.stats["hits"] += 1
                if obs.enabled:
                    obs.inc("cache.hits", layer="memory")
                return True, self._mem[key]
        if self.cache_dir is not None:
            found, value = self._load_disk(key)
            if found:
                with self._lock:
                    self._mem[key] = value
                    self.stats["hits"] += 1
                    self.stats["disk_hits"] += 1
                if obs.enabled:
                    obs.inc("cache.hits", layer="disk")
                return True, value
        with self._lock:
            self.stats["misses"] += 1
        if obs.enabled:
            obs.inc("cache.misses")
        return False, None

    def put(self, key: str, value: Any, persist: bool = False) -> None:
        with self._lock:
            self._mem[key] = value
            self.stats["stores"] += 1
        obs = get_observer()
        if obs.enabled:
            obs.inc("cache.stores", persist=bool(persist))
        if persist and self.cache_dir is not None:
            self._store_disk(key, value)

    # -- warm swarm states ---------------------------------------------------

    def warm_token(self, graph, architecture, objective: str) -> Any:
        """Identity of a warm-start pool: problem + objective, not seed."""
        return (
            graph_token(graph),
            architecture_token(architecture),
            objective,
        )

    def record_warm_state(
        self, graph, architecture, objective: str, assignment, fitness: float
    ) -> None:
        """Remember the best converged swarm assignment for this problem.

        Later requests can opt in (``MapRequest(warm=True)``) to seed
        their swarm from it; warm-start evaluates seeds exactly, so a
        warmed swarm can never end worse than the recorded state.
        """
        key = self.key("warm-state", self.warm_token(graph, architecture, objective))
        found, value = self.get(key)
        if found and value[1] <= fitness:
            return
        self.put(
            key,
            (np.asarray(assignment, dtype=np.int64).copy(), float(fitness)),
            persist=True,
        )

    def warm_assignment(self, graph, architecture, objective: str):
        """Best recorded swarm assignment for this problem, or ``None``."""
        found, value = self.get(
            self.key("warm-state", self.warm_token(graph, architecture, objective))
        )
        return value[0] if found else None


# -- sweep points ------------------------------------------------------------


def _sweep_point(
    cache: Optional[ArtifactCache],
    replays: bool,
    token: Callable[[], Any],
    compute: Callable[[], Any],
) -> Any:
    """One sweep point, memoized whole: :func:`_sweep_points` of one."""
    return _sweep_points(cache, replays, [token], lambda missing: [compute()])[0]


def _sweep_points(
    cache: Optional[ArtifactCache],
    replays: bool,
    tokens: Sequence[Callable[[], Any]],
    compute: Callable[[List[int]], List[Any]],
) -> List[Any]:
    """Sweep points, each memoized whole (kind ``sweep-point``, on disk).

    The checkpoint of a long sweep: a point stored by a killed run is
    read back by the next one on the same ``cache_dir``.  ``tokens[i]()``
    is point ``i``'s content and is built only when there is a cache and
    the points' seeds replay; ``compute(missing)`` returns the values of
    the listed points, in that order, and runs once for all points the
    cache does not hold (not at all when it holds every one).  Each
    computed point is stored as its own entry.
    """
    if cache is None or not replays:
        return compute(list(range(len(tokens))))
    keys = [cache.key("sweep-point", token()) for token in tokens]
    values: List[Any] = []
    missing: List[int] = []
    for i, key in enumerate(keys):
        found, value = cache.get(key)
        values.append(value)
        if not found:
            missing.append(i)
    if missing:
        for i, value in zip(missing, compute(missing)):
            cache.put(keys[i], value, persist=True)
            values[i] = value
    return values
