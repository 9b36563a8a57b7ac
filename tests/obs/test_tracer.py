"""Tracer/span semantics: nesting, events, caps, the null fast path."""

import threading

import pytest

from repro.obs import (
    DISABLED,
    NULL_SPAN,
    Span,
    Tracer,
    get_observer,
    observe,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer


class TestSpanNesting:
    def test_spans_nest_depth_first(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert tracer.roots == [root]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in a.children] == ["a1"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_durations_are_ordered(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.t_start <= inner.t_start
        assert inner.t_end <= outer.t_end
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("s", stage="map") as span:
            span.set(n_packets=7)
        assert span.attributes == {"stage": "map", "n_packets": 7}

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            event = tracer.event("fault", crossbar=3)
        assert event in parent.children
        assert event.t_start == event.t_end
        assert event.attributes == {"crossbar": 3}

    def test_event_without_open_span_is_a_root(self):
        tracer = Tracer()
        event = tracer.event("lonely")
        assert tracer.roots == [event]

    def test_walk_and_iter_spans(self):
        tracer = Tracer()
        with tracer.span("r"):
            with tracer.span("c1"):
                pass
            with tracer.span("c2"):
                pass
        names = [s.name for s in tracer.iter_spans()]
        assert names == ["r", "c1", "c2"]

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("thread-root"):
                done.wait(timeout=5)

        t = threading.Thread(target=worker)
        with tracer.span("main-root"):
            t.start()
            # Let the worker open its span while main-root is open.
            while len(tracer.roots) < 2:
                pass
            done.set()
            t.join()
        names = sorted(r.name for r in tracer.roots)
        # The worker's span is a root, not a child of main-root.
        assert names == ["main-root", "thread-root"]
        for root in tracer.roots:
            assert root.children == []


class TestMaxSpans:
    def test_cap_degrades_to_null_and_counts_drops(self):
        tracer = Tracer(max_spans=2)
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            with tracer.span("three") as dropped:
                pass
        assert dropped is NULL_SPAN
        assert tracer.n_spans == 2
        assert tracer.n_dropped == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestNullPath:
    def test_null_tracer_returns_null_span(self):
        tracer = NullTracer()
        span = tracer.span("anything", key="value")
        assert span is NULL_SPAN
        with span as entered:
            assert entered is NULL_SPAN
            entered.set(x=1)
            entered.event("e")
        assert span.attributes == {}
        assert span.duration_s == 0.0
        assert list(tracer.iter_spans()) == []

    def test_default_observer_is_disabled(self):
        obs = get_observer()
        assert obs is DISABLED
        assert not obs.enabled

    def test_timed_span_measures_even_when_disabled(self):
        obs = DISABLED
        span = obs.timed_span("timed")
        assert isinstance(span, Span)
        with span:
            pass
        assert span.t_end is not None
        assert span.duration_s >= 0.0
        # ... but it was recorded nowhere.
        assert list(obs.tracer.iter_spans()) == []


class TestObserve:
    def test_observe_installs_and_restores(self):
        assert get_observer() is DISABLED
        with observe() as obs:
            assert get_observer() is obs
            assert obs.enabled
        assert get_observer() is DISABLED

    def test_observe_nests(self):
        with observe() as outer:
            with observe() as inner:
                assert get_observer() is inner
            assert get_observer() is outer

    def test_observe_halves_disable_independently(self):
        with observe(metrics=False) as obs:
            assert obs.tracer.enabled
            assert not obs.metrics.enabled
            assert obs.enabled
        with observe(tracer=False) as obs:
            assert not obs.tracer.enabled
            assert obs.metrics.enabled
            assert obs.enabled
        with observe(tracer=False, metrics=False) as obs:
            assert not obs.enabled

    def test_observe_accepts_existing_instances(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        with observe(tracer=tracer, metrics=registry) as obs:
            assert obs.tracer is tracer
            assert obs.metrics is registry
            with obs.span("kept"):
                pass
        assert [r.name for r in tracer.roots] == ["kept"]
