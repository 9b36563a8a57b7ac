"""Nested wall-clock spans with attributes — the tracing half of obs.

A :class:`Tracer` records a forest of :class:`Span` trees.  Spans nest
per *thread* (each thread keeps its own span stack, so spans a caller
opens on threads of its own form their own trees instead of
interleaving into each other's), carry arbitrary key/value attributes,
and may hold zero-duration child *events* (fault injections, cache
decisions, evacuation moves).

Two cost regimes:

- the module's :data:`NULL_SPAN` / :class:`NullTracer` singletons make
  disabled instrumentation a handful of attribute reads and no-op calls
  — no allocation, no clock read;
- an enabled :class:`Tracer` costs one ``perf_counter`` pair plus a list
  append per span, cheap enough for per-simulation granularity but not
  meant for per-packet loops.

A ``max_spans`` cap bounds memory on long daemons: once reached, new
spans degrade to :data:`NULL_SPAN` and ``n_dropped`` counts what was
shed, so a truncated trace is detectable rather than silently partial.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed region: name, attributes, children, start/end stamps.

    Use as a context manager.  ``t_start``/``t_end`` are
    ``perf_counter`` readings (relative, monotonic — durations and
    sibling ordering are meaningful, absolute epochs are not).  A span
    created by a :class:`Tracer` attaches itself to the current thread's
    open span (or becomes a root) on ``__enter__``; a *detached* span
    (``tracer=None``, see :meth:`Tracer.timed` and
    ``Observer.timed_span``) still measures real wall time but records
    nothing anywhere — that is how derived timings stay available with
    tracing off.
    """

    __slots__ = ("name", "attributes", "t_start", "t_end", "children", "_tracer")

    #: Distinguishes real spans from :data:`NULL_SPAN` without isinstance.
    recorded = True

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        _tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = _tracer

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._thread_stack()
            if stack:
                stack[-1].children.append(self)
            else:
                with tracer._lock:
                    tracer.roots.append(self)
            stack.append(self)
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.t_end = time.perf_counter()
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._thread_stack()
            # Tolerate exotic exits (a span closed on a different thread
            # than it was opened on would corrupt that thread's stack).
            if stack and stack[-1] is self:
                stack.pop()
        return False

    def set(self, **attributes: Any) -> "Span":
        """Merge ``attributes`` into the span (no-op on :data:`NULL_SPAN`)."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> "Span":
        """Attach a zero-duration child marking an instant (fault hit,
        cache miss, forced evacuation) on this span's timeline."""
        child = Span(name, attributes)
        child.t_start = child.t_end = time.perf_counter()
        self.children.append(child)
        return child

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds; an open span reads the clock now."""
        if self.t_start is None:
            return 0.0
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return end - self.t_start

    def walk(self) -> Iterator["Span"]:
        """Yield this span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """Inert singleton standing in for a span when tracing is off.

    Supports the full :class:`Span` surface as no-ops so instrumented
    code never branches on enablement just to call ``.set(...)``.
    """

    __slots__ = ()

    recorded = False
    name = ""
    t_start = None
    t_end = None
    duration_s = 0.0

    @property
    def attributes(self) -> Dict[str, Any]:
        return {}

    @property
    def children(self) -> List[Span]:
        return []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def walk(self) -> Iterator[Span]:
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: The shared inert span. Identity-comparable: ``span is NULL_SPAN``.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; thread-safe, one span stack per thread."""

    enabled = True

    def __init__(self, max_spans: int = 1_000_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.roots: List[Span] = []
        self.max_spans = max_spans
        self.n_spans = 0
        self.n_dropped = 0
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _thread_stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, **attributes: Any):
        """A new span to enter with ``with``; nests under the current one."""
        with self._lock:
            if self.n_spans >= self.max_spans:
                self.n_dropped += 1
                return NULL_SPAN
            self.n_spans += 1
        return Span(name, attributes, _tracer=self)

    def event(self, name: str, **attributes: Any):
        """A zero-duration span marking an instant at the current nesting."""
        with self._lock:
            if self.n_spans >= self.max_spans:
                self.n_dropped += 1
                return NULL_SPAN
            self.n_spans += 1
        span = Span(name, attributes)
        span.t_start = span.t_end = time.perf_counter()
        stack = self._thread_stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        return span

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread, if any."""
        stack = self._thread_stack()
        return stack[-1] if stack else None

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()


class NullTracer:
    """Disabled tracer: every call returns :data:`NULL_SPAN` or nothing."""

    enabled = False
    max_spans = 0
    n_spans = 0
    n_dropped = 0

    @property
    def roots(self) -> List[Span]:
        return []

    def span(self, name: str, **attributes: Any):
        return NULL_SPAN

    def event(self, name: str, **attributes: Any):
        return NULL_SPAN

    def current(self) -> Optional[Span]:
        return None

    def iter_spans(self) -> Iterator[Span]:
        return iter(())


#: Shared disabled tracer (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()
