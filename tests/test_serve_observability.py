"""In-process tests of the server's observability plane.

Boots :class:`PartitionServer` on a tiny spatial-shard labelling with
the full telemetry stack attached — SLO tracker, request tracer, live
recorder, access-log sampling — and exercises the new surfaces over
real HTTP: ``/slo``, ``/trace``, ``/dashboard``, the 503 +
``Retry-After`` degraded mode, and the per-status response counters.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.obs.live import LiveRecorder
from repro.obs.slo import SLOTracker, default_objectives
from repro.obs.trace import Tracer, make_traceparent
from repro.serve import PartitionServer, SegmentIndex, SnapshotStore
from repro.shard.spatial import segment_midpoints, spatial_shards


def _get(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def _wait_counter(registry, name: str, minimum: float = 1.0) -> float:
    """Poll a counter until it reaches ``minimum`` (accounting runs on
    the server loop after the response bytes are already written, so a
    fast client can observe the response first)."""
    import time

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        value = registry.counter(name)
        if value >= minimum:
            return value
        time.sleep(0.01)
    return registry.counter(name)


def _make_store():
    network = grid_network(6, 6, two_way=True)
    points = segment_midpoints(network)
    labels = spatial_shards(points, 4)
    graph = build_road_graph(network)
    index = SegmentIndex(labels, points=points, adjacency=graph.adjacency)
    store = SnapshotStore()
    store.publish(index, meta={"labeller": "spatial_shards"})
    return store, network.n_segments


@pytest.fixture()
def observed_server():
    """A server with SLO + tracer + live recorder attached."""
    store, n_segments = _make_store()
    slo = SLOTracker(default_objectives(0.010))
    tracer = Tracer()
    live = LiveRecorder()
    live.add_source("constant", lambda: 42.0)
    server = PartitionServer(
        store, slo=slo, tracer=tracer, live=live, access_log_sample=1.0
    )
    handle = server.start_background()
    yield handle, server, n_segments
    handle.stop()
    store.close()


class TestSLOEndpoint:
    def test_disabled_without_tracker(self):
        store, __ = _make_store()
        handle = PartitionServer(store).start_background()
        try:
            doc = json.loads(_get(handle.url + "/slo"))
            assert doc == {"enabled": False}
        finally:
            handle.stop()
            store.close()

    def test_within_budget_after_fast_traffic(self, observed_server):
        handle, __, __n = observed_server
        for sid in range(5):
            _get(handle.url + f"/lookup?segment={sid}")
        doc = json.loads(_get(handle.url + "/slo"))
        assert doc["enabled"] is True
        assert doc["burning"] is False
        names = {e["objective"]["name"] for e in doc["objectives"]}
        assert names == {"availability", "latency"}
        for entry in doc["objectives"]:
            assert entry["budget_remaining"] == 1.0

    def test_slo_gauges_on_metrics(self, observed_server):
        handle, __, __n = observed_server
        _get(handle.url + "/lookup?segment=0")
        from repro.obs.export import parse_prometheus

        samples, __t = parse_prometheus(_get(handle.url + "/metrics").decode())
        names = {s.name for s in samples}
        assert "repro_slo_burn_rate" in names
        assert "repro_slo_error_budget_remaining" in names
        assert "repro_slo_burning" in names


class TestMergeWindowCounts:
    def test_window_counts_add_up_to_requests_sent(self, observed_server):
        """Every request lands in exactly one merge window: over one
        keep-alive connection that crosses the 512-request window limit
        twice and carries a 404, the SLO tracker and the request spans
        both count each request once."""
        import socket

        handle, __, n_segments = observed_server
        n_lookups = 2 * 512 + 100
        lookups = [
            b"GET /lookup?segment=%d HTTP/1.1\r\nHost: x\r\n\r\n"
            % (i % n_segments)
            for i in range(n_lookups)
        ]
        not_found = b"GET /no-such-route HTTP/1.1\r\nHost: x\r\n\r\n"
        stream = lookups[:600] + [not_found] + lookups[600:]
        n_sent = len(stream)
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
            # pipeline 16 at a time and drain the answers before the
            # next burst, so the server sees many small groups that it
            # has to merge into windows
            n_404 = 0
            for start in range(0, n_sent, 16):
                burst = stream[start : start + 16]
                sock.sendall(b"".join(burst))
                received = b""
                while received.count(b"HTTP/1.1 ") < len(burst):
                    chunk = sock.recv(1 << 16)
                    assert chunk, "server closed the connection early"
                    received += chunk
                n_404 += received.count(b"HTTP/1.1 404")
            assert n_404 == 1

            # read while the connection is still open: its last window
            # is pending until a reader endpoint flushes it
            slo = json.loads(_get(handle.url + "/slo"))
            longest = {
                e["objective"]["name"]: e["windows"][-1] for e in slo["objectives"]
            }
            assert longest["availability"]["good"] == n_sent
            assert longest["availability"]["bad"] == 0
            assert longest["latency"]["good"] + longest["latency"]["bad"] == n_sent

            # the /slo read above is itself one more (single-request)
            # window on its own connection; leave it out
            spans = json.loads(_get(handle.url + "/trace"))["spans"]
            served = [s for s in spans if s["attrs"]["endpoint"] != "/slo"]
            assert sum(s["attrs"]["n_requests"] for s in served) == n_sent
            assert any(s["attrs"]["status"] == 404 for s in served)


class TestInjectedSlowness:
    def test_slow_path_burns_the_latency_budget(self):
        store, __ = _make_store()
        slo = SLOTracker(default_objectives(0.005))
        server = PartitionServer(store, slo=slo, inject_slow_s=0.02)
        handle = server.start_background()
        try:
            for sid in range(8):
                _get(handle.url + f"/lookup?segment={sid}")
            doc = json.loads(_get(handle.url + "/slo"))
            latency = next(
                e for e in doc["objectives"]
                if e["objective"]["name"] == "latency"
            )
            assert latency["burning"] is True
            assert latency["budget_remaining"] == 0.0
            availability = next(
                e for e in doc["objectives"]
                if e["objective"]["name"] == "availability"
            )
            assert availability["burning"] is False  # 200s are still good
            assert doc["burning"] is True
        finally:
            handle.stop()
            store.close()


class TestTraceEndpoint:
    def test_traceparent_propagates_into_span_attrs(self, observed_server):
        handle, __, __n = observed_server
        trace_id = "c0ffee" + "0" * 25 + "1"
        header = make_traceparent(trace_id=trace_id)
        req = urllib.request.Request(
            handle.url + "/lookup?segment=1",
            headers={"traceparent": header},
        )
        urllib.request.urlopen(req, timeout=10).read()
        doc = json.loads(_get(handle.url + "/trace"))
        assert doc["enabled"] is True
        spans = doc["spans"]
        assert spans, "expected at least one request-group span"
        mine = [s for s in spans if s["attrs"].get("trace_id") == trace_id]
        assert mine, f"trace id not found in {[s['attrs'] for s in spans[-5:]]}"
        attrs = mine[-1]["attrs"]
        assert attrs["endpoint"] == "/lookup"
        assert attrs["status"] == 200
        assert attrs["epoch"] == 1
        assert attrs["n_requests"] >= 1

    def test_malformed_traceparent_gets_a_fresh_id(self, observed_server):
        handle, __, __n = observed_server
        req = urllib.request.Request(
            handle.url + "/lookup?segment=1",
            headers={"traceparent": "garbage-header"},
        )
        urllib.request.urlopen(req, timeout=10).read()
        spans = json.loads(_get(handle.url + "/trace"))["spans"]
        attrs = spans[-1]["attrs"]
        assert len(attrs["trace_id"]) == 32
        assert attrs["trace_id"] != "garbage-header"

    def test_trace_disabled_without_tracer(self):
        store, __ = _make_store()
        handle = PartitionServer(store).start_background()
        try:
            doc = json.loads(_get(handle.url + "/trace"))
            assert doc["enabled"] is False
        finally:
            handle.stop()
            store.close()


class TestDashboard:
    def test_dashboard_renders_sparklines_and_slo_table(self, observed_server):
        handle, server, __n = observed_server
        for sid in range(3):
            _get(handle.url + f"/lookup?segment={sid}")
        server.live.sample_once()  # tick the pull sources
        html = _get(handle.url + "/dashboard").decode()
        assert html.startswith("<!DOCTYPE html>") or html.startswith("<html")
        assert "polyline" in html  # the sparkline for "constant"
        assert "constant" in html
        assert "availability" in html  # the SLO table
        assert "epoch" in html.lower()

    def test_dashboard_without_telemetry_still_serves(self):
        store, __ = _make_store()
        handle = PartitionServer(store).start_background()
        try:
            html = _get(handle.url + "/dashboard").decode()
            assert "epoch" in html.lower()
        finally:
            handle.stop()
            store.close()


class TestDegradedMode:
    def test_empty_store_returns_503_with_retry_after(self):
        store = SnapshotStore()  # nothing published
        server = PartitionServer(store, require_epoch=False)
        handle = server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(handle.url + "/lookup?segment=0")
            err = excinfo.value
            assert err.code == 503
            assert err.headers["Retry-After"] == "1"
            body = json.loads(err.read())
            assert "epoch" in body["error"]
            # the per-status counter saw it
            assert _wait_counter(server.registry, "serve.responses[status=503]") >= 1
        finally:
            handle.stop()
            store.close()

    def test_recovers_after_first_publish(self):
        store = SnapshotStore()
        server = PartitionServer(store, require_epoch=False)
        handle = server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError):
                _get(handle.url + "/lookup?segment=0")
            fresh, __ = _make_store()
            store.publish(fresh.current().index, meta={})
            payload = json.loads(_get(handle.url + "/lookup?segment=0"))
            assert payload["region"] >= 0
        finally:
            handle.stop()
            store.close()

    def test_require_epoch_default_still_fails_fast(self):
        store = SnapshotStore()
        server = PartitionServer(store)  # require_epoch=True
        with pytest.raises(Exception):
            server.start_background()
        store.close()


class TestStatusCounters:
    def test_per_status_counters_accumulate(self, observed_server):
        handle, server, __n = observed_server
        _get(handle.url + "/lookup?segment=0")
        with pytest.raises(urllib.error.HTTPError):
            _get(handle.url + "/lookup?segment=not-a-number")
        assert _wait_counter(server.registry, "serve.responses[status=200]") >= 1
        assert _wait_counter(server.registry, "serve.responses[status=400]") >= 1
