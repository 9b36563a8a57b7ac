"""Unified tracing + metrics for the mapping/serving stack.

One process-wide *observer* — a (tracer, metrics) pair — is active at a
time.  Instrumented code asks for it and emits through it::

    from repro.obs import get_observer

    obs = get_observer()
    if obs.enabled:
        obs.inc("noc.simulations", backend="fast")
    with obs.span("map.pso_optimize", particles=n) as sp:
        ...
        sp.set(best_fitness=best)

The default observer is :data:`DISABLED` — both halves are inert
singletons, so instrumentation costs a module-global read plus no-op
calls and perturbs nothing (the neutrality tests pin bit-identical
results with obs on vs off).  Enable observability for a region with
:func:`observe`::

    from repro.obs import observe

    with observe() as obs:
        result = run_pipeline(...)
    print(span_tree_summary(obs.tracer))
    print(obs.metrics.counters())

The observer is intentionally a plain module global, *not* thread-local:
any caller may run traced code on threads of its own, and those threads
must feed the same registry/tracer as the one that entered
:func:`observe` (the tracer keeps per-thread span stacks internally, so
trees never interleave).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Union

from repro.obs.exporters import (
    prometheus_text,
    read_trace_jsonl,
    span_tree_summary,
    trace_rows,
    write_metrics_text,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Observer",
    "DISABLED",
    "get_observer",
    "observe",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_SPAN",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "trace_rows",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "prometheus_text",
    "write_metrics_text",
    "span_tree_summary",
]


class Observer:
    """A tracer + metrics pair with convenience pass-throughs.

    ``enabled`` is precomputed: hot paths guard bulk instrumentation
    with one attribute read (``if obs.enabled: ...``) and fall through
    to no-op singleton calls otherwise.
    """

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(self, tracer, metrics) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.enabled = bool(tracer.enabled or metrics.enabled)

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """A nested span (``NULL_SPAN`` when tracing is off)."""
        return self.tracer.span(name, **attributes)

    def event(self, name: str, **attributes: Any):
        """A zero-duration timeline marker at the current nesting."""
        return self.tracer.event(name, **attributes)

    def timed_span(self, name: str, **attributes: Any) -> Span:
        """A span that *always* measures real wall time.

        With tracing on this is a normal recorded span; with tracing off
        it is a detached :class:`Span` — timed but stored nowhere — so
        code that derives reported values from span durations (e.g. the
        mapper's ``pso_wall_time_s`` extra) works identically in both
        modes.
        """
        span = self.tracer.span(name, **attributes)
        if span.recorded:
            return span
        return Span(name, attributes)

    # -- metrics -------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        self.metrics.inc(name, value, **labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Observer({state})"


#: The default, inert observer: everything no-ops, nothing allocates.
DISABLED = Observer(NULL_TRACER, NULL_METRICS)

_active: Observer = DISABLED
_swap_lock = threading.Lock()


def get_observer() -> Observer:
    """The currently active observer (the :data:`DISABLED` singleton by
    default)."""
    return _active


def _resolve(part, default_factory, null):
    """False -> disabled half; None -> fresh default; else use as given."""
    if part is False:
        return null
    if part is None:
        return default_factory()
    return part


@contextmanager
def observe(
    tracer: Union[Tracer, None, bool] = None,
    metrics: Union[MetricsRegistry, None, bool] = None,
) -> Iterator[Observer]:
    """Activate an observer for the duration of the ``with`` block.

    Each half defaults to a fresh instance; pass ``False`` to disable
    one side (``observe(metrics=False)`` traces without counting) or an
    existing :class:`Tracer` / :class:`MetricsRegistry` to accumulate
    into it across several blocks.  Nesting restores the previous
    observer on exit.
    """
    global _active
    obs = Observer(
        _resolve(tracer, Tracer, NULL_TRACER),
        _resolve(metrics, MetricsRegistry, NULL_METRICS),
    )
    with _swap_lock:
        previous, _active = _active, obs
    try:
        yield obs
    finally:
        with _swap_lock:
            _active = previous
