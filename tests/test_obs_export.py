"""Tests for the Prometheus exposition layer and the monitoring session.

The exposition renderer is held to the text-format rules by the
package's own strict parser — every golden test round-trips through
``parse_prometheus`` — and the end-to-end test drives a real
``IncrementalRepartitioner`` under a ``MonitoringSession`` over five
density snapshots and scrapes the session's registry from the
partition server's live ``/metrics`` endpoint the way a Prometheus
server would.
"""

import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.obs.export import (
    CONTENT_TYPE,
    MonitoringSession,
    escape_label_value,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.serve import PartitionServer, SegmentIndex, SnapshotStore
from repro.serve.snapshot import attach_repartitioner
from repro.traffic.profiles import hotspot_profile


@pytest.fixture(scope="module")
def setup():
    network = grid_network(8, 8, two_way=True)
    graph = build_road_graph(network)
    base = hotspot_profile(network, n_hotspots=2, noise=0.0, seed=0)
    return network, graph, base


class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_type(self):
        reg = MetricsRegistry()
        reg.inc("incremental.updates", 5)
        text = render_prometheus(reg)
        assert "# TYPE repro_incremental_updates_total counter" in text
        assert "repro_incremental_updates_total 5.0" in text

    def test_gauge_keeps_name(self):
        reg = MetricsRegistry()
        reg.set_gauge("graph.n_nodes", 144)
        text = render_prometheus(reg)
        assert "# TYPE repro_graph_n_nodes gauge" in text
        assert "repro_graph_n_nodes 144.0" in text

    def test_dots_sanitized_to_underscores(self):
        reg = MetricsRegistry()
        reg.inc("a.b-c.d e", 1)
        samples, __ = parse_prometheus(render_prometheus(reg))
        assert samples[0].name == "repro_a_b_c_d_e_total"

    def test_label_convention_parsed_out(self):
        reg = MetricsRegistry()
        reg.set_gauge("incremental.region_density[region=3]", 0.25)
        text = render_prometheus(reg)
        assert 'repro_incremental_region_density{region="3"} 0.25' in text

    def test_extra_labels_on_every_sample(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        reg.set_gauge("y", 2)
        samples, __ = parse_prometheus(
            render_prometheus(reg, extra_labels={"run_id": "r-1"})
        )
        assert all(s.labels.get("run_id") == "r-1" for s in samples)

    def test_label_escaping_round_trips(self):
        value = 'quo"te\\back\nnewline'
        escaped = escape_label_value(value)
        assert "\n" not in escaped
        reg = MetricsRegistry()
        reg.set_gauge(f"weird[note={value}]", 1.0)
        # the renderer escapes; the parser must recover the original
        samples, __ = parse_prometheus(render_prometheus(reg))
        assert samples[0].labels["note"] == value

    def test_namespace_configurable(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        text = render_prometheus(reg, namespace="urban")
        assert "urban_x_total" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_snapshot_dict_accepted(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        assert render_prometheus(reg.to_dict()) == render_prometheus(reg)


class TestHistogramExposition:
    def test_buckets_cumulative_and_inf_equals_count(self):
        reg = MetricsRegistry()
        for value in (0.001, 0.5, 0.5, 3.0, 100.0):
            reg.observe("latency_s", value)
        text = render_prometheus(reg)
        samples, types = parse_prometheus(text)  # parser enforces cumulativity
        assert types["repro_latency_s"] == "histogram"
        buckets = [s for s in samples if s.name == "repro_latency_s_bucket"]
        counts = [s.value for s in buckets if s.labels["le"] != "+Inf"]
        assert counts == sorted(counts)
        inf = next(s for s in buckets if s.labels["le"] == "+Inf")
        count = next(s for s in samples if s.name == "repro_latency_s_count")
        assert inf.value == count.value == 5
        total = next(s for s in samples if s.name == "repro_latency_s_sum")
        assert total.value == pytest.approx(104.001)

    def test_nonpositive_values_in_le_zero_bucket(self):
        reg = MetricsRegistry()
        reg.observe("delta", -2.0)
        reg.observe("delta", 4.0)
        samples, __ = parse_prometheus(render_prometheus(reg))
        zero = next(
            s
            for s in samples
            if s.name == "repro_delta_bucket" and s.labels["le"] == "0.0"
        )
        assert zero.value == 1

    def test_broken_cumulativity_rejected(self):
        bad = (
            "# TYPE x histogram\n"
            'x_bucket{le="1.0"} 5\n'
            'x_bucket{le="2.0"} 3\n'
            'x_bucket{le="+Inf"} 5\n'
            "x_sum 1\n"
            "x_count 5\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_prometheus(bad)

    def test_missing_inf_bucket_rejected(self):
        bad = "# TYPE x histogram\n" 'x_bucket{le="1.0"} 5\n' "x_count 5\nx_sum 2\n"
        with pytest.raises(ValueError, match="Inf"):
            parse_prometheus(bad)

    def test_labelled_histogram_family_renders_once(self):
        reg = MetricsRegistry()
        reg.observe("request_seconds[route=lookup]", 0.5)
        reg.observe("request_seconds[route=batch]", 0.25)
        text = render_prometheus(reg)
        assert text.count("# TYPE repro_request_seconds histogram") == 1
        samples, __ = parse_prometheus(text)  # parser rejects duplicates
        counts = [s for s in samples if s.name == "repro_request_seconds_count"]
        assert {s.labels["route"] for s in counts} == {"lookup", "batch"}


class TestParser:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_prometheus("lonely_metric 1.0\n")

    def test_counter_without_total_rejected(self):
        with pytest.raises(ValueError, match="_total"):
            parse_prometheus("# TYPE foo counter\nfoo 1\n")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("# TYPE x gauge\n0bad 1\n")

    def test_bad_escape_rejected(self):
        with pytest.raises(ValueError, match="escape"):
            parse_prometheus('# TYPE x gauge\nx{a="\\q"} 1\n')

    def test_special_values(self):
        text = "# TYPE x gauge\nx +Inf\n# TYPE y gauge\ny NaN\n"
        samples, __ = parse_prometheus(text)
        assert samples[0].value == math.inf
        assert math.isnan(samples[1].value)


def _served_store(setup):
    """A store with one published epoch over the 8x8 test grid."""
    network, graph, base = setup
    labels = np.arange(network.n_segments) % 4
    store = SnapshotStore()
    store.publish(SegmentIndex(labels, adjacency=graph.adjacency, features=base))
    return store


class TestServedRegistry:
    def test_scrapes_see_current_values(self, setup):
        reg = MetricsRegistry()
        reg.inc("n", 1)
        store = _served_store(setup)
        with PartitionServer(store, registry=reg).start_background() as handle:
            url = handle.url + "/metrics"
            first = urllib.request.urlopen(url, timeout=5)
            assert first.headers["Content-Type"] == CONTENT_TYPE
            first.read()
            reg.inc("n", 1)
            body = urllib.request.urlopen(url, timeout=5).read().decode()
        store.close()
        samples, __ = parse_prometheus(body)
        assert next(s for s in samples if s.name == "repro_n_total").value == 2

    def test_404_carries_a_json_body(self, setup):
        store = _served_store(setup)
        with PartitionServer(store).start_background() as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(handle.url + "/nope", timeout=5)
        store.close()
        err = excinfo.value
        assert err.code == 404
        body = json.loads(err.read())
        assert body["status"] == 404
        assert "/nope" in body["error"]
        assert err.headers["Content-Type"].startswith("application/json")


class TestMonitoringSession:
    def test_end_to_end_five_snapshots_served_and_parsed(self, setup):
        """Live /metrics over >=5 snapshots, served by the partition
        server from the session's registry."""
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.15, seed=0)
        rng = np.random.default_rng(0)
        session = MonitoringSession(inc)
        store = SnapshotStore()
        attach_repartitioner(store, inc)
        server = PartitionServer(
            store,
            registry=session.registry,
            run_id=session.obs.run_id,
            require_epoch=False,
        )
        with server.start_background() as handle:
            session.bootstrap(base)
            densities = base
            for __i in range(5):
                densities = densities * rng.uniform(0.6, 1.8, size=densities.shape)
                report = session.update(densities)
                assert report.duration_s > 0
            body = urllib.request.urlopen(
                handle.url + "/metrics", timeout=10
            ).read().decode()
        store.close()
        assert store.last_epoch == 6  # bootstrap + five updates
        samples, types = parse_prometheus(body)  # must obey the format rules
        names = {s.name for s in samples}
        # update latency histogram with 5 observations
        assert types["repro_incremental_update_latency_s"] == "histogram"
        count = next(
            s for s in samples if s.name == "repro_incremental_update_latency_s_count"
        )
        assert count.value == 5
        # churn counter and quality gauges present
        assert "repro_incremental_segments_relabelled_total" in names
        for quality in ("repro_quality_ans", "repro_quality_gdbi",
                        "repro_quality_max_conductance"):
            assert quality in names, names
        # per-region density gauges, labelled by region
        density = [s for s in samples if s.name == "repro_incremental_region_density"]
        assert len(density) >= 4
        assert all("region" in s.labels for s in density)
        # every sample carries the session's run id
        assert all(s.labels.get("run_id") for s in samples)

    def test_scrape_without_serving(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=3, staleness_threshold=0.2, seed=0)
        session = MonitoringSession(inc)
        session.bootstrap(base)
        session.update(base * 2.0)
        samples, __t = parse_prometheus(session.scrape())
        assert any(s.name == "repro_incremental_updates_total" for s in samples)

    def test_region_gauges_track_region_count(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.2, seed=0)
        session = MonitoringSession(inc, quality=False)
        session.bootstrap(base)
        snapshot = session.registry.to_dict()
        region_gauges = [
            name for name in snapshot["gauges"]
            if name.startswith("incremental.region_density")
        ]
        assert len(region_gauges) == int(inc.labels.max()) + 1

    def test_trace_spans_recorded_for_report(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=3, staleness_threshold=0.2, seed=0)
        session = MonitoringSession(inc, quality=False)
        session.bootstrap(base)
        session.update(base * 3.0)
        names = [span["name"] for span in session.obs.trace_tree()["spans"]]
        assert "monitor.bootstrap" in names
        assert "monitor.update" in names

    def test_write_report(self, setup, tmp_path):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=3, staleness_threshold=0.2, seed=0)
        session = MonitoringSession(inc, quality=False)
        session.bootstrap(base)
        session.update(base * 3.0)
        out = session.write_report(tmp_path / "report.html")
        doc = out.read_text(encoding="utf-8")
        assert doc.startswith("<!DOCTYPE html>")
        assert "monitor.update" in doc


class TestQuantilesFromLatencies:
    def test_multi_quantile_matches_single(self):
        from repro.obs.export import (
            quantile_from_latencies,
            quantiles_from_latencies,
        )

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        multi = quantiles_from_latencies(values, (0.0, 0.5, 0.9, 1.0))
        assert multi == [
            quantile_from_latencies(values, q) for q in (0.0, 0.5, 0.9, 1.0)
        ]
        assert multi == [1.0, 3.0, 5.0, 5.0]

    def test_empty_values_give_zeros(self):
        from repro.obs.export import quantiles_from_latencies

        assert quantiles_from_latencies([], (0.5, 0.99)) == [0.0, 0.0]

    def test_out_of_range_quantile_rejected(self):
        from repro.obs.export import quantiles_from_latencies

        with pytest.raises(ValueError):
            quantiles_from_latencies([1.0], (1.5,))
        with pytest.raises(ValueError):
            quantiles_from_latencies([1.0], (-0.1,))

    def test_unsorted_input_handled(self):
        from repro.obs.export import quantiles_from_latencies

        assert quantiles_from_latencies([9.0, 1.0], (0.5,)) == [1.0]
