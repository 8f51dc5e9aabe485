"""Prometheus exposition rendering and the scrape endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (
    MetricsServer,
    metric_name,
    parse_exposition,
    render_instruments,
    render_sections,
)


class TestNaming:
    def test_dotted_names_sanitize_with_prefix(self):
        assert (
            metric_name("daemon.pages_received", "counter")
            == "vecycle_daemon_pages_received_total"
        )

    def test_gauges_do_not_get_total_suffix(self):
        assert (
            metric_name("daemon.sessions.active", "gauge")
            == "vecycle_daemon_sessions_active"
        )

    def test_headline_renames(self):
        assert (
            metric_name("daemon.recycled_bytes", "counter")
            == "vecycle_recycled_bytes_total"
        )
        assert (
            metric_name("daemon.transferred_bytes", "counter")
            == "vecycle_transferred_bytes_total"
        )
        assert (
            metric_name("orchestrator.downtime_seconds", "histogram")
            == "vecycle_migration_downtime_seconds"
        )


class TestRendering:
    def test_counter_and_gauge_lines_with_labels(self):
        registry = MetricsRegistry()
        registry.counter("daemon.heartbeats").add(3)
        registry.gauge("daemon.sessions.active").set(2)
        lines = render_instruments(registry.snapshot(), {"host": "a"})
        text = "\n".join(lines)
        assert 'vecycle_daemon_heartbeats_total{host="a"} 3' in text
        assert 'vecycle_daemon_sessions_active{host="a"} 2' in text
        assert "# TYPE vecycle_daemon_heartbeats_total counter" in text
        assert "# TYPE vecycle_daemon_sessions_active gauge" in text

    def test_histogram_buckets_are_cumulative_and_end_in_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", (10.0, 100.0))
        for value in (1, 50, 5000):
            hist.observe(value)
        text = "\n".join(render_instruments(registry.snapshot()))
        assert 'vecycle_h_bucket{le="10"} 1' in text
        assert 'vecycle_h_bucket{le="100"} 2' in text
        assert 'vecycle_h_bucket{le="+Inf"} 3' in text
        assert "vecycle_h_sum 5051" in text
        assert "vecycle_h_count 3" in text

    def test_sections_share_headers_across_labels(self):
        instruments = {"c": {"type": "counter", "value": 1.0}}
        text = render_sections(
            [({"host": "a"}, instruments), ({"host": "b"}, instruments)]
        )
        assert text.count("# TYPE vecycle_c_total counter") == 1
        assert 'vecycle_c_total{host="a"} 1' in text
        assert 'vecycle_c_total{host="b"} 1' in text

    def test_empty_sections_render_empty_page(self):
        assert render_sections([]) == ""

    def test_label_values_are_escaped(self):
        text = render_sections(
            [({"vm": 'we"ird\nname'}, {"c": {"type": "counter", "value": 1.0}})]
        )
        assert '\\"' in text and "\\n" in text


class TestParseExposition:
    def test_roundtrip_through_parse(self):
        registry = MetricsRegistry()
        registry.counter("daemon.recycled_bytes").add(4096)
        text = render_sections([({"host": "a"}, registry.snapshot())])
        parsed = parse_exposition(text)
        assert parsed["vecycle_recycled_bytes_total"][
            (("host", "a"),)
        ] == pytest.approx(4096.0)

    def test_parse_skips_comments_and_blanks(self):
        parsed = parse_exposition("# HELP x y\n\nvecycle_x_total 5\n")
        assert parsed["vecycle_x_total"][()] == 5.0


class TestMetricsServer:
    def test_serves_metrics_json_and_healthz(self):
        server = MetricsServer(
            render_text=lambda: "vecycle_up 1\n",
            render_json=lambda: {"hosts": ["a"]},
            port=0,
        ).start()
        try:
            assert server.port > 0
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(base + "/metrics", timeout=5) as r:
                assert r.status == 200
                assert "version=0.0.4" in r.headers["Content-Type"]
                assert r.read() == b"vecycle_up 1\n"
            with urllib.request.urlopen(
                base + "/metrics.json", timeout=5
            ) as r:
                assert json.loads(r.read()) == {"hosts": ["a"]}
            with urllib.request.urlopen(base + "/healthz", timeout=5) as r:
                assert r.read() == b"ok\n"
        finally:
            server.stop()

    def test_unknown_path_is_404(self):
        server = MetricsServer(render_text=lambda: "", port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5
                )
            assert excinfo.value.code == 404
            excinfo.value.close()  # the error holds the response's socket
        finally:
            server.stop()

    def test_content_is_rendered_per_request(self):
        state = {"n": 0}

        def render():
            state["n"] += 1
            return f"vecycle_scrapes_total {state['n']}\n"

        server = MetricsServer(render_text=render, port=0).start()
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                first = response.read()
            with urllib.request.urlopen(url, timeout=5) as response:
                second = response.read()
            assert first != second
        finally:
            server.stop()
