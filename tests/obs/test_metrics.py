"""MetricsRegistry semantics and the exporter formats."""

from repro.obs import (
    MetricsRegistry,
    Tracer,
    prometheus_text,
    span_tree_summary,
    write_metrics_text,
)
from repro.obs.metrics import NULL_METRICS, parse_flat_name


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


class TestMergeAndDeltas:
    def test_bool_reflects_content(self):
        reg = MetricsRegistry()
        assert not reg
        reg.inc("x")
        assert reg


class TestNullRegistry:
    def test_null_is_inert(self):
        NULL_METRICS.inc("x", 5, a="b")
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
    def test_counter_lines(self):
        reg = MetricsRegistry()
        reg.inc("noc.simulations", 2, backend="fast")
        reg.inc("noc.simulations", backend="reference")
        reg.inc("cache.hits", 0.5)
        assert prometheus_text(reg) == (
            "# TYPE repro_cache_hits_total counter\n"
            "repro_cache_hits_total 0.5\n"
            "# TYPE repro_noc_simulations_total counter\n"
            'repro_noc_simulations_total{backend="fast"} 2\n'
            'repro_noc_simulations_total{backend="reference"} 1\n'
        )

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_metrics_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x")
        path = tmp_path / "metrics.prom"
        n = write_metrics_text(reg, str(path))
        assert n == path.read_text().count("\n") > 0


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
