"""Serving benchmark: sustained lookup throughput and tail latency.

Boots a :class:`repro.serve.server.PartitionServer` on the full-scale
M2 synthetic network (~52k segments — the acceptance target of ROADMAP
item 1) and drives it with the pipelined load generator, exactly as
``repro loadgen`` would:

* **single mode** — ``GET /lookup?segment=N`` keep-alive lookups; the
  acceptance floor is >= 10k lookups/s sustained with p99 < 10 ms on
  one core;
* **batch mode** — ``POST /lookup/batch`` with 64-id batches, showing
  the coalescing headroom (one vectorised label take per batch);
* **telemetry overhead** — single-lookup traffic against an untraced
  and a traced (SLO tracker + request spans) server, timed in
  interleaved pairs of short windows; the median traced/untraced
  lookups/s ratio must stay >= 0.95, and every pair is recorded.

The partition labels come from the kd-tree spatial sharder — the bench
measures the serving layer, not the partitioning algorithms, and
``spatial_shards`` gives a valid balanced labelling of 52k segments in
milliseconds.

Writes ``BENCH_serving.json`` at the repo root (plus the usual
``benchmarks/results`` copy + history append, which is what the CI
``serve-smoke`` job gates p99 regressions against). The throughput and
latency floors are always asserted — there is no multi-core
requirement; the target is explicitly single-machine, and the host
may well have one core (``n_cores`` is recorded).
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, save_results
from repro.datasets.registry import load_dataset
from repro.network.dual import build_road_graph
from repro.serve import PartitionServer, SegmentIndex, SnapshotStore, run_loadgen
from repro.shard.spatial import segment_midpoints, spatial_shards

ROOT_RESULTS = Path(__file__).parent.parent / "BENCH_serving.json"

DATASET = "M2"  # full-scale: ~52k directed segments
K = 16
DURATION_S = 3.0
CONNECTIONS = 4
DEPTH = 32
BATCH_SIZE = 64

LOOKUPS_PER_S_FLOOR = 10_000
P99_CEILING_S = 0.010

# traced-vs-untraced overhead: interleaved paired windows, median ratio.
# One pair's ratio spreads with sd ~0.08-0.1 on a shared 2-vCPU host
# whatever the window length (0.25-1 s), so many short pairs pin the
# median better than a few long ones.
OVERHEAD_PAIRS = 21
PAIR_WINDOW_S = 0.5


@pytest.fixture(scope="module")
def serving_stack():
    """(handle, store, n_segments) — a live server over M2 labels."""
    network, densities = load_dataset(DATASET, seed=3)
    points = segment_midpoints(network)
    labels = spatial_shards(points, K)
    graph = build_road_graph(network)
    index = SegmentIndex(
        labels, points=points, adjacency=graph.adjacency, features=densities
    )
    store = SnapshotStore()
    store.publish(index, meta={"dataset": DATASET, "labeller": "spatial_shards"})
    handle = PartitionServer(store).start_background()
    yield handle, store, network.n_segments
    handle.stop()
    store.close()


def test_bench_serving(serving_stack):
    handle, store, n_segments = serving_stack
    payload = {
        "dataset": DATASET,
        "n_segments": n_segments,
        "k": K,
        "n_cores": os.cpu_count() or 1,
        "connections": CONNECTIONS,
        "depth": DEPTH,
        "duration_s_target": DURATION_S,
    }

    # warm-up: first connections pay interpreter warm-up and page faults
    run_loadgen(
        "127.0.0.1", handle.port, n_segments=n_segments,
        mode="single", duration_s=0.5, connections=CONNECTIONS, depth=DEPTH,
    )

    rows = []
    for mode in ("single", "batch"):
        report = run_loadgen(
            "127.0.0.1",
            handle.port,
            n_segments=n_segments,
            mode=mode,
            duration_s=DURATION_S,
            connections=CONNECTIONS,
            depth=DEPTH,
            batch_size=BATCH_SIZE,
            seed=1,
        )
        assert report.n_errors == 0, f"{mode}: {report.n_errors} failed requests"
        payload[mode] = report.to_dict()
        rows.append(
            [
                mode,
                report.n_requests,
                round(report.qps),
                round(report.lookups_per_s),
                report.p50_s * 1e3,
                report.p99_s * 1e3,
            ]
        )

    print_table(
        f"serving throughput ({DATASET}, {n_segments} segments, "
        f"{CONNECTIONS}x{DEPTH} in flight)",
        ["mode", "requests", "qps", "lookups/s", "p50_ms", "p99_ms"],
        rows,
    )

    single = payload["single"]
    # the acceptance floors (single-lookup traffic, one machine)
    assert single["lookups_per_s"] >= LOOKUPS_PER_S_FLOOR, (
        f"sustained {single['lookups_per_s']:.0f} lookups/s "
        f"< floor {LOOKUPS_PER_S_FLOOR}"
    )
    assert single["latency_p99_s"] < P99_CEILING_S, (
        f"p99 {single['latency_p99_s'] * 1e3:.2f} ms "
        f">= ceiling {P99_CEILING_S * 1e3:.0f} ms"
    )
    # batching must amortise: strictly more lookups/s than single mode
    assert payload["batch"]["lookups_per_s"] > single["lookups_per_s"]

    # every batch answered from exactly one epoch (server-side metric
    # sanity: the store only ever published one epoch here)
    assert store.last_epoch == 1

    # --- telemetry overhead: the same single-lookup traffic against a
    # server with the full request-telemetry plane attached (SLO
    # tracker + request tracing). The merge-window design must keep
    # the fast path within 5% of the untraced throughput. Both servers
    # stay up and are timed in interleaved pairs of short windows (the
    # first server alternates between pairs), and the gate reads the
    # median pair ratio: two long back-to-back windows let one burst
    # of machine load decide the verdict.
    from repro.obs.slo import SLOTracker, default_objectives
    from repro.obs.trace import Tracer

    traced_server = PartitionServer(
        store, slo=SLOTracker(default_objectives(P99_CEILING_S)), tracer=Tracer()
    )
    traced_handle = traced_server.start_background()

    def lookups_per_s(port: int) -> float:
        report = run_loadgen(
            "127.0.0.1",
            port,
            n_segments=n_segments,
            mode="single",
            duration_s=PAIR_WINDOW_S,
            connections=CONNECTIONS,
            depth=DEPTH,
            seed=1,
        )
        assert report.n_errors == 0
        return report.lookups_per_s

    pairs = []
    try:
        run_loadgen(  # warm-up, same as the untraced server got
            "127.0.0.1", traced_handle.port, n_segments=n_segments,
            mode="single", duration_s=0.5, connections=CONNECTIONS, depth=DEPTH,
        )
        ports = {"untraced": handle.port, "traced": traced_handle.port}
        for i in range(OVERHEAD_PAIRS):
            order = ("traced", "untraced") if i % 2 else ("untraced", "traced")
            rate = {side: lookups_per_s(ports[side]) for side in order}
            pairs.append(
                {
                    "first": order[0],
                    "untraced_lookups_per_s": rate["untraced"],
                    "traced_lookups_per_s": rate["traced"],
                    "ratio": rate["traced"] / max(rate["untraced"], 1e-9),
                }
            )
        assert traced_server.slo.burning() is False  # fast path within SLO
    finally:
        traced_handle.stop()
    median_ratio = statistics.median(pair["ratio"] for pair in pairs)
    payload["traced_pairs"] = pairs
    payload["traced_ratio_median"] = median_ratio
    payload["traced_overhead_frac"] = 1.0 - median_ratio
    print_table(
        f"request-telemetry overhead (single mode, {OVERHEAD_PAIRS} pairs "
        f"of {PAIR_WINDOW_S:g} s windows)",
        ["first", "untraced lookups/s", "traced lookups/s", "ratio"],
        [
            [pair["first"], round(pair["untraced_lookups_per_s"]),
             round(pair["traced_lookups_per_s"]), pair["ratio"]]
            for pair in pairs
        ],
    )
    assert median_ratio >= 0.95, (
        f"telemetry overhead {1.0 - median_ratio:.1%} (median of "
        f"{OVERHEAD_PAIRS} paired windows) exceeds the 5% budget"
    )

    results_path = save_results("bench_serving", payload)
    with open(ROOT_RESULTS, "w", encoding="utf-8") as fh:
        json.dump(
            json.loads(Path(results_path).read_text(encoding="utf-8")), fh, indent=2
        )
