"""Thread-safe labelled counters — the metrics half of obs.

A :class:`MetricsRegistry` is a plain in-memory store keyed by
``(name, sorted label items)``.  It is deliberately *always functional*
(no global gating inside): hot-path instrumentation reaches the registry
only through the active observer (``repro.obs.get_observer()``), which
is a no-op singleton when observability is off.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _flat(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters behind one lock.

    Values are plain numbers; labels are optional keyword arguments
    (``inc("noc.simulations", backend="fast")``).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[LabelKey, float] = {}

    # -- mutators ------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    # -- readers -------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    def counters(self) -> Dict[str, float]:
        """Flat ``name{label="v",...} -> value`` view of every counter."""
        with self._lock:
            return {_flat(k): v for k, v in sorted(self._counters.items())}

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._counters)


class NullMetricsRegistry:
    """Disabled registry: mutators are no-ops, readers come back empty."""

    enabled = False

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        pass

    def counter_value(self, name: str, **labels: Any) -> float:
        return 0

    def counters(self) -> Dict[str, float]:
        return {}

    def __bool__(self) -> bool:
        return False


#: Shared disabled registry (stateless, safe to reuse everywhere).
NULL_METRICS = NullMetricsRegistry()


def parse_flat_name(flat: str) -> Tuple[str, Dict[str, str]]:
    """Invert the flat ``name{k="v",...}`` form back to (name, labels)."""
    if not flat.endswith("}"):
        return flat, {}
    name, _, inner = flat[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k] = v.strip('"')
    return name, labels
