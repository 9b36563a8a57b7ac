"""MetricsRegistry semantics and the exporter formats."""

import json
import math

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    prometheus_text,
    span_tree_summary,
    write_metrics_text,
)
from repro.obs.metrics import (
    Histogram,
    NULL_METRICS,
    parse_flat_name,
)


class TestCounters:
    def test_inc_defaults_and_values(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits")
        reg.inc("hits", 3)
        assert reg.counter_value("hits") == 5
        assert reg.counters() == {"hits": 5}

    def test_labels_partition_the_series(self):
        reg = MetricsRegistry()
        reg.inc("sims", backend="fast")
        reg.inc("sims", backend="fast")
        reg.inc("sims", backend="reference")
        assert reg.counter_value("sims", backend="fast") == 2
        assert reg.counter_value("sims", backend="reference") == 1
        assert reg.counter_value("sims") == 0  # unlabeled is its own series
        assert reg.counters() == {
            'sims{backend="fast"}': 2,
            'sims{backend="reference"}': 1,
        }

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("m", a="1", b="2")
        reg.inc("m", b="2", a="1")
        assert reg.counter_value("m", b="2", a="1") == 2

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nothing") == 0


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 4)
        reg.set_gauge("depth", 2)
        assert reg.gauges() == {"depth": 2}

    def test_histogram_buckets_and_summary(self):
        hist = Histogram()
        for v in (5e-7, 5e-4, 5e-4, 2.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.total == pytest.approx(5e-7 + 1e-3 + 2.0)
        assert hist.min == 5e-7
        assert hist.max == 2.0
        d = hist.to_dict()
        assert d["buckets"][repr(1e-6)] == 1
        assert d["buckets"][repr(1e-3)] == 2
        assert d["buckets"][repr(10.0)] == 1
        assert sum(d["buckets"].values()) == 4

    def test_registry_observe(self):
        reg = MetricsRegistry()
        reg.observe("latency", 0.05, stage="map")
        reg.observe("latency", 0.07, stage="map")
        hists = reg.histograms()
        assert hists['latency{stage="map"}']["count"] == 2

    def test_snapshot_is_jsonable(self):
        reg = MetricsRegistry()
        reg.inc("c", backend="fast")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 0.2)
        json.dumps(reg.snapshot())


class TestMergeAndDeltas:
    def test_bool_reflects_content(self):
        reg = MetricsRegistry()
        assert not reg
        reg.inc("x")
        assert reg


class TestNullRegistry:
    def test_null_is_inert(self):
        NULL_METRICS.inc("x", 5, a="b")
        NULL_METRICS.set_gauge("g", 1)
        NULL_METRICS.observe("h", 0.5)
        assert NULL_METRICS.counter_value("x") == 0
        assert NULL_METRICS.counters() == {}
        assert not NULL_METRICS
        assert not NULL_METRICS.enabled


class TestParseFlatName:
    def test_plain(self):
        assert parse_flat_name("hits") == ("hits", {})

    def test_labeled(self):
        name, labels = parse_flat_name('sims{backend="fast",mode="c"}')
        assert name == "sims"
        assert labels == {"backend": "fast", "mode": "c"}


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.inc("noc.simulations", 2, backend="fast")
        reg.set_gauge("queue.depth", 7)
        text = prometheus_text(reg)
        assert "# TYPE repro_noc_simulations_total counter" in text
        assert 'repro_noc_simulations_total{backend="fast"} 2' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        reg.observe("lat", 5e-7)
        reg.observe("lat", 5.0)
        text = prometheus_text(reg)
        lines = [ln for ln in text.splitlines() if ln.startswith("repro_lat_bucket")]
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines]
        assert counts == sorted(counts)  # cumulative, monotone
        assert counts[-1] == 2
        assert 'le="+Inf"' in lines[-1]
        assert "repro_lat_sum " in text
        assert "repro_lat_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_metrics_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x")
        path = tmp_path / "metrics.prom"
        n = write_metrics_text(reg, str(path))
        assert n == path.read_text().count("\n") > 0

    def test_inf_formatting(self):
        assert math.isinf(math.inf)  # sanity
        reg = MetricsRegistry()
        reg.observe("empty_series_guard", 1e-7)
        text = prometheus_text(reg)
        assert "+Inf" in text


class TestSpanTreeSummary:
    def test_groups_same_named_siblings(self):
        tracer = Tracer()
        with tracer.span("root"):
            for i in range(3):
                with tracer.span("iteration"):
                    pass
        text = span_tree_summary(tracer)
        assert "root" in text
        assert "3x" in text
        assert text.count("iteration") == 1  # grouped, not repeated

    def test_depth_cap(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        text = span_tree_summary(tracer, max_depth=2)
        assert "c" not in text.replace("(avg", "")

    def test_reports_dropped_spans(self):
        tracer = Tracer(max_spans=1)
        with tracer.span("kept"):
            pass
        with tracer.span("gone"):
            pass
        assert "1 spans dropped" in span_tree_summary(tracer)
