"""Self-tests for the benchmark: span arithmetic, the open-loop
generator's due-time latency, the output checks and BENCHMARK.json."""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time

import numpy as np
import pytest

import loadgen
import tracing
from checks import partition_problems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# self time
def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent=parent)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: union is 1..6
        _span("a.1", 1.5, 2.0, parent=1),
        _span("a.2", 2.5, 3.5, parent=1),
        _span("c", 8.0, 9.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.5, 3.0, 0.5, 1.0, 1.0])


def test_union_length_and_unattributed():
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)
    assert tracing.union_length([]) == 0.0
    spans = [_span("x", 1.0, 3.0), _span("y", 2.0, 5.0), _span("x.1", 1.0, 2.0, parent=0)]
    # window 0..6, roots cover 1..5
    assert tracing.unattributed(spans, [(0.0, 6.0)]) == pytest.approx(2.0)
    assert tracing.unattributed(spans, [(2.0, 4.0)]) == pytest.approx(0.0)


def test_recorder_nests_spans_per_thread():
    rec = tracing.Recorder()

    def leaf(x):
        time.sleep(0.001)
        return x

    leaf_t = rec.wrap("leaf", leaf)
    outer_t = rec.wrap("outer", lambda: leaf_t(1) + leaf_t(2))
    assert outer_t() == 3
    names = [s.name for s in rec.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    own = tracing.self_times(rec.spans)
    assert 0 <= own[0] < rec.spans[0].end - rec.spans[0].start


def test_hooks_restore_originals_and_report_missing(monkeypatch):
    import repro.core.spectral as spectral

    original = spectral.smallest_eigenvectors
    monkeypatch.setattr(
        tracing, "HOOKS", tracing.HOOKS + [("gone", "repro.core.spectral", "no_such_fn", None, None)]
    )
    rec = tracing.Recorder()
    with tracing.Hooks(rec) as hooks:
        assert spectral.smallest_eigenvectors is not original
    assert spectral.smallest_eigenvectors is original
    assert hooks.missing == ["gone"]


def test_layer_metrics_mark_missing_hooks():
    hooks = tracing.Hooks(tracing.Recorder())
    hooks.missing = ["core.boundary_refine"]
    values = tracing.layer_metrics(hooks.recorder, hooks)
    assert values["core.boundary_refine_s"] is None
    assert values["core.boundary_refine_moved"] is None
    assert values["core.alpha_cut_s"] == 0.0


# ----------------------------------------------------------------------
# open-loop generator
class StubServer:
    """Answers ``/lookup?segment=`` in order; stalls once when asked."""

    def __init__(self, stall_after_s: float = None, stall_s: float = 0.0):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.stall_after_s = stall_after_s
        self.stall_s = stall_s
        self.stalled = False
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, __ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        buf = b""
        first = None
        while True:
            try:
                data = conn.recv(65536)
            except OSError:
                return
            if not data:
                return
            if first is None:
                first = loadgen.clock()
            buf += data
            out = []
            while b"\r\n\r\n" in buf:
                head, buf = buf.split(b"\r\n\r\n", 1)
                segment = int(re.search(rb"segment=(\d+)", head).group(1))
                body = b'{"segment":%d,"region":%d,"epoch":1}' % (segment, segment % 3)
                out.append(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
            if (
                self.stall_after_s is not None
                and not self.stalled
                and loadgen.clock() - first >= self.stall_after_s
            ):
                self.stalled = True
                time.sleep(self.stall_s)
            conn.sendall(b"".join(out))

    def close(self):
        self.sock.close()


def _phase(server, **kw):
    socks = loadgen.connect(server.port, 1)
    try:
        return loadgen.run_phase(socks, n_segments=1000, limit_ms=10.0, **kw)
    finally:
        for sock in socks:
            sock.close()


def test_due_time_latency_charges_requests_queued_behind_a_stall():
    calm = StubServer()
    stalled = StubServer(stall_after_s=0.3, stall_s=0.25)
    try:
        base = _phase(calm, rate=400.0, seconds=1.0, seed=3, sample_every=1)
        hit = _phase(stalled, rate=400.0, seconds=1.0, seed=3)
    finally:
        calm.close()
        stalled.close()
    assert base["failed"] == hit["failed"] == 0
    assert base["answered"] == hit["answered"] == base["offered"]
    # ~0.25 s x 400/s = ~100 requests fall due during the stall; each
    # waits from its due time until the stall ends, so well over 1% of
    # the run sees >= 50 ms and the p99 reflects the stall
    assert hit["p99_ms_whole_phase"] >= 100.0
    assert hit["p99_ms_whole_phase"] > 3 * base["p99_ms_whole_phase"]
    assert hit["backlog_max"] >= 50
    assert not hit["passed"]
    # every sampled answer echoes the segment asked
    assert all(asked == got for asked, got, __, __ in base["samples"])


def test_windowed_p99_is_robust_to_one_hiccup_but_not_to_recurring_stalls():
    calm = [(t / 1000.0, 0.001) for t in range(2000)]  # 2 s of 1 ms answers
    one_hiccup = [(d, 0.5 if 0.1 <= d < 0.2 else x) for d, x in calm]
    every_window = [(d, 0.5 if (d % loadgen.WINDOW_S) < 0.05 else x) for d, x in calm]
    assert loadgen.windowed_p99(calm, 0.0, 0) == pytest.approx(1.0)
    assert loadgen.windowed_p99(one_hiccup, 0.0, 0) == pytest.approx(1.0)
    assert loadgen.windowed_p99(every_window, 0.0, 0) == pytest.approx(500.0)
    assert loadgen.windowed_p99(calm, 0.0, 1) == float("inf")


def test_arrivals_are_seeded_poisson():
    a = loadgen.arrivals(1000.0, 2.0, seed=7)
    assert a == loadgen.arrivals(1000.0, 2.0, seed=7)
    assert a != loadgen.arrivals(1000.0, 2.0, seed=8)
    assert 1800 < len(a) < 2200 and all(0 <= x < 2.0 for x in a)
    assert a == sorted(a)


def test_quantile_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.quantile(values, 0.5) == 50
    assert loadgen.quantile(values, 0.99) == 99
    assert loadgen.quantile([5.0], 0.99) == 5.0


def test_rate_search_brackets_then_bisects():
    def run_search(capacity, start=100.0, factor=2.0, steps=8):
        gen = loadgen.search_rates(start, factor, steps)
        rate = next(gen)
        tried = []
        try:
            while True:
                tried.append(rate)
                rate = gen.send(rate <= capacity)
        except StopIteration as stop:
            return stop.value, tried

    best, tried = run_search(700.0, steps=8)
    assert tried[:5] == [100.0, 200.0, 400.0, 800.0, 800.0]  # a failure is retried once
    assert 400.0 <= best <= 700.0 and best > 600.0
    best, tried = run_search(30.0, steps=9)
    assert tried[:5] == [100.0, 100.0, 50.0, 50.0, 25.0] and 25.0 <= best <= 30.0


def test_rate_search_ignores_a_single_spurious_failure():
    outcomes = {100.0: [True], 200.0: [False, True], 400.0: [False, False]}
    gen = loadgen.search_rates(100.0, 2.0, 5)
    rate = next(gen)
    tried = []
    try:
        while True:
            tried.append(rate)
            rate = gen.send(outcomes[rate].pop(0) if rate in outcomes else rate <= 300.0)
    except StopIteration as stop:
        best = stop.value
    assert tried == [100.0, 200.0, 200.0, 400.0, 400.0]
    assert best == 200.0


# ----------------------------------------------------------------------
# output checks
def test_partition_problems():
    import scipy.sparse as sp

    # path graph 0-1-2-3-4-5
    rows = np.arange(5)
    adj = sp.coo_matrix((np.ones(5), (rows, rows + 1)), shape=(6, 6))
    adj = adj + adj.T
    assert partition_problems(adj, [0, 0, 0, 1, 1, 1], 2) == []
    assert partition_problems(adj, [0, 0, 0, 1, 1, 1], 3) == ["expected 3 partitions, got 2"]
    assert "not spatially connected" in partition_problems(adj, [0, 1, 0, 1, 1, 1], 2)[0]
    assert "empty" in partition_problems(adj, [0, 0, 2, 2, 2, 2], None)[0]


# ----------------------------------------------------------------------
# BENCHMARK.json: keys, sizes, name and unit syntax, bounds
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", p) and os.path.isdir(os.path.join(ROOT, p))
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    # the traced run reports exactly the per-layer metrics declared here
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    import workloads

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_result_metrics_carry_a_number_for_every_metric():
    import run

    wanted = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}, {"name": "c", "unit": "ms"}]
    metrics, absent = run.result_metrics(wanted, {"a_s": 1.5, "c": float("nan")}, True)
    assert metrics == {
        "a_s": {"value": 1.5, "unit": "s"},
        "b": {"value": 0, "unit": "count"},
        "c": {"value": 0, "unit": "ms"},
    }
    assert absent == ["b", "c"]
    line = json.loads(json.dumps({"metrics": metrics}))
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
