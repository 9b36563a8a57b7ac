"""Thread-safe counters / gauges / histograms — the metrics half of obs.

A :class:`MetricsRegistry` is a plain in-memory store keyed by
``(name, sorted label items)``.  It is deliberately *always functional*
(no global gating inside): hot-path instrumentation reaches the registry
only through the active observer (``repro.obs.get_observer()``), which
is a no-op singleton when observability is off.

Histograms keep count/sum/min/max plus fixed log-spaced bucket counts —
enough for a Prometheus-style export without storing samples.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Upper bucket bounds (seconds-ish scale); +Inf is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


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


class Histogram:
    """Bucketed distribution summary (no raw samples retained)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing = +Inf
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts)
            },
        }


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock.

    Counter/gauge values are plain numbers; labels are optional keyword
    arguments on every mutator (``inc("noc.simulations", backend="fast")``).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[LabelKey, float] = {}
        self._gauges: Dict[LabelKey, float] = {}
        self._histograms: Dict[LabelKey, Histogram] = {}

    # -- mutators ------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # -- readers -------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    def counters(self) -> Dict[str, float]:
        """Flat ``name{label="v",...} -> value`` view of every counter."""
        with self._lock:
            return {_flat(k): v for k, v in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return {_flat(k): v for k, v in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                _flat(k): h.to_dict() for k, h in sorted(self._histograms.items())
            }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able dump of everything recorded."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._counters or self._gauges or self._histograms)


class NullMetricsRegistry:
    """Disabled registry: mutators are no-ops, readers come back empty."""

    enabled = False

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def counter_value(self, name: str, **labels: Any) -> float:
        return 0

    def counters(self) -> Dict[str, float]:
        return {}

    def gauges(self) -> Dict[str, float]:
        return {}

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

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
