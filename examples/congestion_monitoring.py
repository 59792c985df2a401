"""Congestion monitoring: the full operations workflow, live-instrumented.

A traffic management centre's loop, end to end:

1. bootstrap a global partitioning of the city;
2. as congestion evolves, refresh only the regions that changed
   (incremental/distributed repartitioning — paper Section 6.4) under
   a ``MonitoringSession``, which publishes per-region density gauges,
   update-latency histograms, churn counters and partition-quality
   gauges (ANS / GDBI / conductance) into a Prometheus-scrapable
   registry — here served at the partition server's ``/metrics``
   (which also answers region lookups for every published epoch) and
   scraped once over HTTP, exactly as a Prometheus server would;
3. per snapshot, print the region reports (level of service per
   region) and the boundary sharpness (where perimeter control would
   meter traffic);
4. export the final state as SVG + GeoJSON for the control-room map,
   plus the session's flight-recorder HTML report (trace timeline,
   metric tables, provenance).

Run:  python examples/congestion_monitoring.py [output-dir]
"""

from __future__ import annotations

import sys
import urllib.request
from pathlib import Path

from repro.analysis.boundary import boundary_sharpness
from repro.analysis.stats import partition_report
from repro.datasets.small import small_network_series
from repro.network.dual import build_road_graph
from repro.network.geojson import network_to_geojson, save_geojson
from repro.obs import MonitoringSession, parse_prometheus
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.serve import PartitionServer, SnapshotStore, attach_repartitioner
from repro.viz.svg import render_partitions, save_svg

K = 5
SNAPSHOTS = (30, 60, 90, 110)
SEED = 7


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    network, series = small_network_series(seed=SEED)
    graph = build_road_graph(network)

    inc = IncrementalRepartitioner(
        graph, k=K, staleness_threshold=0.2, seed=SEED
    )
    session = MonitoringSession(inc)
    store = SnapshotStore()
    attach_repartitioner(store, inc)  # every step publishes an epoch
    server = PartitionServer(
        store,
        registry=session.registry,
        run_id=session.obs.run_id,
        require_epoch=False,
    )
    with server.start_background() as handle:
        session.bootstrap(series[SNAPSHOTS[0]])
        metrics_url = handle.url + "/metrics"
        print(f"bootstrapped {K} regions at t={SNAPSHOTS[0]}")
        print(f"metrics endpoint: {metrics_url}\n")

        labels = inc.labels
        for t in SNAPSHOTS[1:]:
            densities = series[t]
            report = session.update(densities)
            labels = report.labels
            print(f"t={t}: refreshed regions {report.refreshed or 'none'}, "
                  f"kept {len(report.kept)}, "
                  f"{report.n_relabelled} segments relabelled "
                  f"in {report.duration_s * 1e3:.1f} ms")
            for region in partition_report(network, labels, densities):
                print(f"   {region}")
            sharp = boundary_sharpness(densities, labels, graph.adjacency)
            worst = max(sharp.items(), key=lambda kv: kv[1])
            print(f"   sharpest boundary: regions {worst[0]} "
                  f"(density step {worst[1]:.4f} veh/m)\n")

        # scrape the endpoint the way Prometheus would, and validate
        # the exposition with the package's own strict parser
        body = urllib.request.urlopen(metrics_url, timeout=10).read().decode()
        samples, families = parse_prometheus(body)
        latency = next(
            s for s in samples
            if s.name == "repro_incremental_update_latency_s_count"
        )
        print(f"scraped {len(samples)} samples in {len(families)} families "
              f"({int(latency.value)} updates observed)")

        report_path = session.write_report(
            out_dir / "monitoring_report.html",
            title="congestion monitoring flight recorder",
        )
    store.close()

    svg_path = out_dir / "monitoring_final.svg"
    save_svg(render_partitions(network, labels, title="final regions"), svg_path)
    geojson_path = out_dir / "monitoring_final.geojson"
    save_geojson(
        network_to_geojson(network, labels=labels, densities=series[SNAPSHOTS[-1]]),
        geojson_path,
    )
    print(f"exported {svg_path}, {geojson_path} and {report_path}")


if __name__ == "__main__":
    main()
