"""Command-line interface: ``repro-partition`` / ``python -m repro``.

Subcommands
-----------
``partition``
    Partition a dataset (built-in name or a JSON network file) with a
    chosen scheme and print the per-partition summary plus metrics.
``datasets``
    List the built-in datasets with their sizes.
``simulate``
    Run the microsimulator on a built-in network and write the density
    series to CSV.
``compare``
    Run every scheme at one k on the same dataset and print a metric
    comparison table.
``sweep``
    Run one scheme over a k-range and write the metric curves as CSV.
``export``
    Partition a dataset and write the result as SVG and/or GeoJSON.
``analyze``
    Partition a dataset and print the management view: per-region
    level-of-service reports, boundary sharpness, and critical
    segments.
``bench compare``
    Load the benchmark history (``benchmarks/results/history.jsonl``)
    and gate the newest run of each benchmark/machine group against
    its own trajectory; exits non-zero on regression (the CI
    ``bench-gate`` job runs exactly this).
``obs report``
    Merge a run's trace JSON, metrics dump and (optionally) its
    speedscope profile into a self-contained HTML flight-recorder
    report with an inline flame graph.
``obs profile``
    Run a partition under the sampling profiler and emit the full
    artifact set — trace, metrics, speedscope JSON, collapsed stacks
    and the flight-recorder report — into one directory.
``obs diff``
    Rank frame-level CPU deltas between two speedscope profiles
    (before/after a change).
``obs slo``
    Query a running server's ``/slo`` endpoint and report the
    error-budget state; exits non-zero while any objective is burning
    (the CI serve-smoke job uses this as its SLO gate).
``obs analyze``
    Analyze a trace JSON (nested or Chrome format): critical path,
    per-stage self times, parallel slack with the Amdahl ceiling,
    ranked optimization targets and harvested solver-convergence
    traces. ``--json`` emits the strict analysis document the CI
    obs-smoke job validates.
``obs scaling``
    Fit per-stage power laws ``t ≈ a·n^b`` over the benchmark history
    and forecast each stage's cost at a target network size (default
    100k segments, the paper's M3); flags superlinear stages. Exits 2
    when the history has no stage measured at two sizes.
``serve``
    Partition a dataset (or load a saved ``PartitioningResult``) and
    serve segment→region lookups over HTTP with snapshot epochs; with
    ``--updates`` the incremental repartitioner publishes new epochs
    while serving. ``--slo-latency-ms`` attaches availability/latency
    objectives (``/slo`` + burn-rate gauges), ``--record-live``
    samples the server gauges into the ring-buffer time-series store
    behind ``/dashboard``, and ``--access-log-sample`` emits sampled
    structured access logs.
``loadgen``
    Drive a running partition server with pipelined lookups and report
    sustained QPS and latency quantiles (plus the server's post-run
    error-budget state when it serves ``/slo``).

``partition`` also accepts ``--profile-out`` / ``--profile-hz`` /
``--profile-memory`` to profile any normal run in place.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional

import numpy as np

from repro.datasets.registry import dataset_names, load_dataset
from repro.network.dual import build_road_graph
from repro.network.io import load_network_json, save_density_series
from repro.obs.context import ObsContext
from repro.obs.logs import LOG_LEVELS, configure_logging
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.pipeline.schemes import SCHEMES, run_scheme
from repro.traffic.simulator import MicroSimulator


def _diag(message: str) -> None:
    """Print a human diagnostic to stderr, keeping stdout pipeable."""
    print(message, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="Congestion-based spatial partitioning of urban road networks",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="verbosity of the structured log on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    part = sub.add_parser("partition", help="partition a road network")
    part.add_argument(
        "dataset",
        help=f"built-in dataset name ({', '.join(dataset_names())}) "
        "or path to a network JSON file",
    )
    part.add_argument("-k", type=int, default=6, help="number of partitions")
    part.add_argument(
        "--scheme", choices=SCHEMES, default="ASG", help="partitioning scheme"
    )
    part.add_argument("--seed", type=int, default=0, help="random seed")
    part.add_argument(
        "--stability",
        type=float,
        default=0.0,
        help="supernode stability threshold epsilon_eta in [0, 1]",
    )
    part.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    part.add_argument(
        "--labels-out", default=None, help="write per-segment labels to this CSV"
    )
    part.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace-event JSON of the run to this path "
        "(open in Perfetto / chrome://tracing)",
    )
    part.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics dump (counters, gauges, histograms "
        "plus the run manifest) to this JSON path",
    )
    part.add_argument(
        "--profile-out",
        default=None,
        help="sample the run with the CPU profiler and write a "
        "speedscope-JSON profile to this path (open at speedscope.app)",
    )
    part.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        help="profiler sampling frequency in Hz (default 97)",
    )
    part.add_argument(
        "--profile-memory",
        action="store_true",
        help="also track allocations with tracemalloc (per-span "
        "alloc_bytes deltas; adds noticeable overhead)",
    )

    data = sub.add_parser("datasets", help="list built-in datasets")
    data.add_argument(
        "names",
        nargs="*",
        help="subset of dataset names to report (default: all; the "
        "full M1-M3 presets take a while to generate)",
    )

    sim = sub.add_parser("simulate", help="run the microsimulator")
    sim.add_argument("dataset", help="built-in dataset name")
    sim.add_argument("--vehicles", type=int, default=1500)
    sim.add_argument("--steps", type=int, default=120)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="density series CSV path")

    comp = sub.add_parser("compare", help="compare all schemes at one k")
    comp.add_argument("dataset", help="built-in dataset name")
    comp.add_argument("-k", type=int, default=6)
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument(
        "--runs", type=int, default=3, help="runs per scheme (median reported)"
    )

    sweep = sub.add_parser("sweep", help="metric curves over a k-range")
    sweep.add_argument("dataset", help="built-in dataset name")
    sweep.add_argument("--scheme", choices=SCHEMES, default="ASG")
    sweep.add_argument("--k-min", type=int, default=2)
    sweep.add_argument("--k-max", type=int, default=12)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True, help="CSV output path")

    exp = sub.add_parser("export", help="partition and export SVG/GeoJSON")
    exp.add_argument("dataset", help="built-in dataset name")
    exp.add_argument("-k", type=int, default=6)
    exp.add_argument("--scheme", choices=SCHEMES, default="ASG")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--svg", default=None, help="SVG output path")
    exp.add_argument("--geojson", default=None, help="GeoJSON output path")

    ana = sub.add_parser("analyze", help="region reports and boundaries")
    ana.add_argument("dataset", help="built-in dataset name")
    ana.add_argument("-k", type=int, default=6)
    ana.add_argument("--scheme", choices=SCHEMES, default="ASG")
    ana.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="benchmark trajectory tools")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    cmp_ = bench_sub.add_parser(
        "compare", help="gate the newest benchmark runs against their history"
    )
    cmp_.add_argument(
        "--history",
        default=None,
        help="history JSONL path (default: benchmarks/results/history.jsonl)",
    )
    cmp_.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative regression band around the baseline (default 0.25)",
    )
    cmp_.add_argument(
        "--window",
        type=int,
        default=10,
        help="baseline uses at most this many prior runs (default 10)",
    )
    cmp_.add_argument(
        "--min-history",
        type=int,
        default=3,
        help="below this many prior runs, gate against the best prior "
        "value instead of the median (default 3)",
    )
    cmp_.add_argument("--bench", default=None, help="restrict to one benchmark name")
    cmp_.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    obs = sub.add_parser("obs", help="observability artifact tools")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    rep = obs_sub.add_parser(
        "report", help="merge trace + metrics into an HTML flight recorder"
    )
    rep.add_argument("trace", help="trace JSON path, or '-' when there is none")
    rep.add_argument(
        "metrics", nargs="?", default=None,
        help="metrics dump JSON path (from --metrics-out / write_metrics)",
    )
    rep.add_argument("-o", "--out", required=True, help="HTML output path")
    rep.add_argument("--title", default=None, help="report heading")
    rep.add_argument(
        "--profile",
        default=None,
        help="speedscope profile JSON (from --profile-out / obs profile); "
        "adds the CPU flame-graph pane",
    )
    rep.add_argument(
        "--live",
        default=None,
        help="live-telemetry JSON (from serve --live-out); adds the "
        "time-series sparkline pane",
    )

    prof = obs_sub.add_parser(
        "profile",
        help="run a partition under the sampling profiler and emit "
        "trace/metrics/profile/report artifacts",
    )
    prof.add_argument(
        "dataset",
        help=f"built-in dataset name ({', '.join(dataset_names())}) "
        "or path to a network JSON file",
    )
    prof.add_argument("-k", type=int, default=6, help="number of partitions")
    prof.add_argument(
        "--scheme", choices=SCHEMES, default="ASG", help="partitioning scheme"
    )
    prof.add_argument("--seed", type=int, default=0, help="random seed")
    prof.add_argument(
        "--hz", type=float, default=97.0,
        help="profiler sampling frequency in Hz (default 97)",
    )
    prof.add_argument(
        "--memory",
        action="store_true",
        help="also track allocations with tracemalloc",
    )
    prof.add_argument(
        "--out-dir",
        required=True,
        help="directory for the artifact set (trace.json, metrics.json, "
        "profile.speedscope.json, profile.collapsed.txt, report.html)",
    )

    pdiff = obs_sub.add_parser(
        "diff", help="rank frame-level CPU deltas between two profiles"
    )
    pdiff.add_argument("base", help="baseline speedscope profile JSON")
    pdiff.add_argument("new", help="new speedscope profile JSON")
    pdiff.add_argument(
        "--top", type=int, default=20, help="rows to print (default 20)"
    )

    ana = obs_sub.add_parser(
        "analyze",
        help="critical path, per-stage self times, parallel slack and "
        "optimization targets from a trace JSON",
    )
    ana.add_argument(
        "trace",
        help="trace JSON path (nested --trace-out format or Chrome "
        "trace-event format)",
    )
    ana.add_argument(
        "--top", type=int, default=10,
        help="number of ranked optimization targets (default 10)",
    )
    ana.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable analysis document",
    )

    scl = obs_sub.add_parser(
        "scaling",
        help="fit per-stage power laws over the benchmark history and "
        "forecast city-scale cost",
    )
    scl.add_argument(
        "--history", default=None,
        help="history JSONL path (default benchmarks/results/history.jsonl)",
    )
    scl.add_argument(
        "--bench", default=None,
        help="restrict the fit to one benchmark name",
    )
    scl.add_argument(
        "--forecast-n", type=int, default=None,
        help="network size (segments) to forecast each stage at "
        "(default 100000, the paper's M3 scale)",
    )
    scl.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable scaling report",
    )

    slo_q = obs_sub.add_parser(
        "slo", help="query a running server's /slo error-budget state"
    )
    slo_q.add_argument("--host", default="127.0.0.1", help="server address")
    slo_q.add_argument("--port", type=int, required=True, help="server port")
    slo_q.add_argument(
        "--json", action="store_true", help="emit the raw /slo JSON"
    )

    srv = sub.add_parser(
        "serve", help="serve partition lookups over HTTP (snapshot epochs)"
    )
    srv.add_argument(
        "dataset",
        help=f"built-in dataset name ({', '.join(dataset_names())}) "
        "or path to a network JSON file",
    )
    srv.add_argument("-k", type=int, default=6, help="number of partitions")
    srv.add_argument(
        "--scheme", choices=SCHEMES, default="ASG", help="partitioning scheme"
    )
    srv.add_argument("--seed", type=int, default=0, help="random seed")
    srv.add_argument(
        "--result",
        default=None,
        help="serve a saved PartitioningResult JSON (from save_result) "
        "instead of partitioning at startup; k/scheme/seed are ignored",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=0, help="bind port (0 = pick a free port)"
    )
    srv.add_argument(
        "--updates",
        type=int,
        default=0,
        help="publish this many incremental-repartitioner epochs while "
        "serving, from drifting synthetic densities (0 = static epoch)",
    )
    srv.add_argument(
        "--update-interval",
        type=float,
        default=2.0,
        help="seconds between incremental updates (with --updates)",
    )
    srv.add_argument(
        "--slo-latency-ms",
        type=float,
        default=None,
        help="attach availability + latency SLOs with this per-request "
        "latency threshold; enables /slo, slo.* gauges and request "
        "tracing (/trace)",
    )
    srv.add_argument(
        "--record-live",
        action="store_true",
        help="sample server gauges into the bounded time-series store "
        "(enables the /dashboard sparklines and --live-out)",
    )
    srv.add_argument(
        "--live-hz",
        type=float,
        default=2.0,
        help="live-recorder sampling frequency in Hz (default 2)",
    )
    srv.add_argument(
        "--live-out",
        default=None,
        help="write the live time-series store as JSON on shutdown "
        "(feed it to `obs report --live`); implies --record-live",
    )
    srv.add_argument(
        "--access-log-sample",
        type=float,
        default=0.0,
        help="probability in [0, 1] of logging each request group on "
        "the structured stderr log (level info; default 0 = off)",
    )
    srv.add_argument(
        "--inject-slow-ms",
        type=float,
        default=0.0,
        help="artificially delay every request group by this many "
        "milliseconds (SLO burn-rate demos and tests only)",
    )

    lg = sub.add_parser(
        "loadgen", help="drive a running partition server and report QPS/latency"
    )
    lg.add_argument("--host", default="127.0.0.1", help="server address")
    lg.add_argument("--port", type=int, required=True, help="server port")
    lg.add_argument(
        "--segments",
        type=int,
        default=None,
        help="segment id space to draw lookups from (default: ask the "
        "server's /epoch endpoint)",
    )
    lg.add_argument(
        "--mode",
        choices=("single", "batch", "point"),
        default="single",
        help="request shape: single GET lookups, POST batches, or "
        "point (x,y) lookups",
    )
    lg.add_argument(
        "--duration", type=float, default=2.0, help="run length in seconds"
    )
    lg.add_argument(
        "--connections", type=int, default=4, help="concurrent connections"
    )
    lg.add_argument(
        "--depth", type=int, default=32, help="pipelined requests per connection"
    )
    lg.add_argument(
        "--batch-size", type=int, default=64, help="ids per request in batch mode"
    )
    lg.add_argument("--seed", type=int, default=0, help="lookup id seed")
    lg.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    lg.add_argument(
        "--out", default=None, help="also write the report JSON to this path"
    )
    return parser


def _cmd_partition(args: argparse.Namespace) -> int:
    if args.dataset in dataset_names():
        network, densities = load_dataset(args.dataset, seed=args.seed)
    else:
        network = load_network_json(args.dataset)
        densities = network.densities()

    obs = None
    if args.trace_out or args.metrics_out or args.profile_out:
        profile = None
        if args.profile_out:
            from repro.obs.profile import ProfileConfig

            profile = ProfileConfig(
                hz=args.profile_hz, memory=args.profile_memory
            )
        obs = ObsContext(
            dataset=args.dataset, scheme=args.scheme, profile=profile
        )

    framework = SpatialPartitioningFramework(
        k=args.k,
        scheme=args.scheme,
        epsilon_eta=args.stability,
        seed=args.seed,
        obs=obs,
    )
    result = framework.partition(network, densities)
    metrics = result.evaluate(framework.last_road_graph)
    validation = result.validate(framework.last_road_graph)

    if args.labels_out:
        np.savetxt(args.labels_out, result.labels, fmt="%d")
        _diag(f"wrote labels to {args.labels_out}")
    if obs is not None and args.trace_out:
        obs.write_trace(args.trace_out)
        _diag(f"wrote trace to {args.trace_out}")
    if obs is not None and args.metrics_out:
        obs.write_metrics(
            args.metrics_out,
            config=framework.config_dict(),
            seed=args.seed,
        )
        _diag(f"wrote metrics to {args.metrics_out}")
    if obs is not None and args.profile_out:
        obs.write_profile(args.profile_out)
        _diag(f"wrote profile to {args.profile_out}")

    if args.json:
        payload = {
            "dataset": args.dataset,
            "scheme": args.scheme,
            "k": result.k,
            "metrics": metrics,
            "sizes": result.partition_sizes().tolist(),
            "timings": result.timings,
            "connected": validation.is_valid,
            "run_id": obs.run_id if obs is not None else None,
            "manifest": result.manifest,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"dataset     : {args.dataset}")
    print(f"scheme      : {args.scheme}")
    print(f"segments    : {network.n_segments}")
    print(f"partitions  : {result.k}")
    if result.n_supernodes is not None:
        print(f"supernodes  : {result.n_supernodes}")
    print(f"sizes       : {result.partition_sizes().tolist()}")
    print(f"connected   : {'yes' if validation.is_valid else 'NO'}")
    for name in ("inter", "intra", "gdbi", "ans"):
        print(f"{name:<12}: {metrics[name]:.4f}")
    for module, seconds in result.timings.items():
        print(f"{module:<12}: {seconds:.3f}s")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    names = args.names or dataset_names()
    unknown = [n for n in names if n not in dataset_names()]
    if unknown:
        _diag(f"unknown datasets: {', '.join(unknown)}")
        return 1
    for name in names:
        network, __ = load_dataset(name)
        print(
            f"{name:<10} segments={network.n_segments:<7} "
            f"intersections={network.n_intersections:<7} "
            f"area={network.area_km2():.1f} km^2"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    network, __ = load_dataset(args.dataset, seed=args.seed)
    simulator = MicroSimulator(network, seed=args.seed)
    result = simulator.run(n_vehicles=args.vehicles, n_steps=args.steps)
    save_density_series(result.densities, args.out)
    _diag(
        f"wrote {result.n_steps} x {network.n_segments} densities to {args.out} "
        f"({result.completed_trips} trips completed)"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    network, densities = load_dataset(args.dataset, seed=args.seed)
    graph = build_road_graph(network).with_features(densities)

    print(f"{'scheme':<6} {'inter':>8} {'intra':>8} {'gdbi':>9} {'ans':>8}")
    for scheme in SCHEMES:
        metrics = []
        for seed in range(args.runs):
            result = run_scheme(scheme, graph, args.k, seed=seed)
            metrics.append(result.evaluate(graph))
        med = {
            name: float(np.median([m[name] for m in metrics]))
            for name in ("inter", "intra", "gdbi", "ans")
        }
        print(
            f"{scheme:<6} {med['inter']:>8.4f} {med['intra']:>8.4f} "
            f"{med['gdbi']:>9.4f} {med['ans']:>8.4f}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_min < 1 or args.k_max < args.k_min:
        _diag("invalid k range")
        return 1
    network, densities = load_dataset(args.dataset, seed=args.seed)
    graph = build_road_graph(network).with_features(densities)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "inter", "intra", "gdbi", "ans"])
        for k in range(args.k_min, args.k_max + 1):
            result = run_scheme(args.scheme, graph, k, seed=args.seed)
            metrics = result.evaluate(graph)
            writer.writerow(
                [k] + [f"{metrics[m]:.6f}" for m in ("inter", "intra", "gdbi", "ans")]
            )
    _diag(f"wrote {args.k_max - args.k_min + 1} rows to {args.out}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if not args.svg and not args.geojson:
        _diag("nothing to do: pass --svg and/or --geojson")
        return 1
    network, densities = load_dataset(args.dataset, seed=args.seed)
    framework = SpatialPartitioningFramework(
        k=args.k, scheme=args.scheme, seed=args.seed
    )
    result = framework.partition(network, densities)

    if args.svg:
        from repro.viz.svg import render_partitions, save_svg

        svg = render_partitions(
            network, result.labels, title=f"{args.dataset} k={result.k}"
        )
        save_svg(svg, args.svg)
        _diag(f"wrote {args.svg}")
    if args.geojson:
        from repro.network.geojson import network_to_geojson, save_geojson

        doc = network_to_geojson(
            network, labels=result.labels, densities=densities
        )
        save_geojson(doc, args.geojson)
        _diag(f"wrote {args.geojson}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.boundary import boundary_sharpness
    from repro.analysis.stats import partition_report
    from repro.graph.critical import critical_segments

    network, densities = load_dataset(args.dataset, seed=args.seed)
    graph = build_road_graph(network).with_features(densities)
    result = run_scheme(args.scheme, graph, args.k, seed=args.seed)

    print(f"{args.dataset}: {result.k} regions via {args.scheme}\n")
    print("regions:")
    for report in partition_report(network, result.labels, densities):
        print(f"  {report}")

    print("\nboundaries (mean density step, sharpest first):")
    sharp = boundary_sharpness(densities, result.labels, graph.adjacency)
    for (a, b), step in sorted(sharp.items(), key=lambda kv: -kv[1]):
        print(f"  regions {a} <-> {b}: {step:.4f} veh/m")

    critical = critical_segments(graph.adjacency, result.labels)
    print(f"\ncritical segments (closure splits a region): "
          f"{critical.size} of {network.n_segments}")
    if critical.size:
        preview = ", ".join(str(s) for s in critical[:12])
        suffix = ", ..." if critical.size > 12 else ""
        print(f"  ids: {preview}{suffix}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Gate the newest benchmark runs against their history.

    Exit codes: 0 clean, 1 regression(s), 2 nothing to compare.
    """
    from repro.obs.bench import DEFAULT_HISTORY, compare_latest, load_history

    history_path = args.history if args.history else DEFAULT_HISTORY
    records, corrupt = load_history(history_path)
    if not records:
        _diag(f"no usable history at {history_path}")
        return 2
    try:
        summary = compare_latest(
            records,
            tolerance=args.tolerance,
            window=args.window,
            min_history=args.min_history,
            bench=args.bench,
        )
    except ValueError as exc:
        _diag(str(exc))
        return 2
    summary.corrupt_lines = corrupt

    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, default=str))
    else:
        for comparison in summary.comparisons:
            print(comparison.describe())
        if summary.skipped_benches:
            _diag(
                "skipped (only one run on this machine): "
                + ", ".join(sorted(set(summary.skipped_benches)))
            )
        if corrupt:
            _diag(f"ignored {corrupt} corrupt history line(s)")
        print(
            f"{len(summary.comparisons)} value(s) compared, "
            f"{len(summary.regressions)} regression(s)"
        )
    if not summary.comparisons:
        _diag("history too short: nothing was comparable yet")
        return 2
    return 0 if summary.ok else 1


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_report

    trace_path = None if args.trace == "-" else args.trace
    try:
        out = write_report(
            trace_path,
            args.metrics,
            args.out,
            title=args.title,
            profile_path=args.profile,
            live_path=args.live,
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _diag(f"report failed: {exc}")
        return 1
    _diag(f"wrote flight-recorder report to {out}")
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    """Profile one partition run and emit the full artifact set."""
    from pathlib import Path

    from repro.obs.profile import ProfileConfig
    from repro.obs.report import write_report

    if args.dataset in dataset_names():
        network, densities = load_dataset(args.dataset, seed=args.seed)
    else:
        network = load_network_json(args.dataset)
        densities = network.densities()

    obs = ObsContext(
        dataset=args.dataset,
        scheme=args.scheme,
        profile=ProfileConfig(hz=args.hz, memory=args.memory),
    )
    framework = SpatialPartitioningFramework(
        k=args.k,
        scheme=args.scheme,
        seed=args.seed,
        obs=obs,
    )
    framework.partition(network, densities)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = obs.write_trace(out_dir / "trace.json")
    metrics_path = obs.write_metrics(
        out_dir / "metrics.json",
        config=framework.config_dict(),
        seed=args.seed,
    )
    profile_path = obs.write_profile(out_dir / "profile.speedscope.json")
    collapsed_path = obs.write_collapsed(out_dir / "profile.collapsed.txt")
    report_path = write_report(
        trace_path,
        metrics_path,
        out_dir / "report.html",
        profile_path=profile_path,
    )
    n_samples = obs.profiler.n_samples if obs.profiler is not None else 0
    for path in (
        trace_path, metrics_path, profile_path, collapsed_path, report_path
    ):
        _diag(f"wrote {path}")
    print(
        f"profiled {args.dataset} {args.scheme} k={args.k}: "
        f"{n_samples} samples -> {out_dir}"
    )
    return 0


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    """Analyze a trace file into critical path + optimization targets."""
    from repro.exceptions import DataError
    from repro.obs.analyze import analyze_trace

    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _diag(f"cannot read trace {args.trace}: {exc}")
        return 1
    try:
        report = analyze_trace(trace, top=args.top)
    except DataError as exc:
        _diag(f"analysis failed: {exc}")
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render(top=args.top))
    return 0


def _cmd_obs_scaling(args: argparse.Namespace) -> int:
    """Fit per-stage power laws over the history; exit 2 when unfittable."""
    from repro.exceptions import DataError
    from repro.obs.bench import DEFAULT_HISTORY
    from repro.obs.scaling import (
        DEFAULT_FORECAST_N,
        fit_scaling_from_history,
        render_scaling,
    )

    path = args.history if args.history else DEFAULT_HISTORY
    forecast_n = args.forecast_n if args.forecast_n else DEFAULT_FORECAST_N
    try:
        report = fit_scaling_from_history(
            path, bench=args.bench, forecast_n=forecast_n
        )
    except DataError as exc:
        _diag(f"scaling fit failed: {exc}")
        return 1
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_scaling(report))
    if not report["stages"]:
        _diag(
            "no stage measured at >= 2 network sizes in the history; "
            "run the table3 benchmark to record a multi-size sweep"
        )
        return 2
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """Print frame-level CPU deltas between two speedscope profiles."""
    from repro.obs.profile import diff_profiles, render_diff, validate_speedscope

    docs = []
    for path in (args.base, args.new):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            validate_speedscope(doc)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            _diag(f"cannot read profile {path}: {exc}")
            return 1
        docs.append(doc)
    rows = diff_profiles(docs[0], docs[1])
    print(render_diff(rows, top=args.top))
    return 0


def _fetch_slo(host: str, port: int, timeout: float = 10.0) -> Optional[dict]:
    """GET ``/slo`` from a running server; None when unreachable."""
    import urllib.request

    url = f"http://{host}:{port}/slo"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read())
    except (OSError, ValueError, json.JSONDecodeError):
        return None


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    """Report a running server's error-budget state.

    Exit codes: 0 within budget, 1 burning, 2 unreachable or the
    server has no SLOs attached.
    """
    state = _fetch_slo(args.host, args.port)
    if state is None:
        _diag(f"cannot reach http://{args.host}:{args.port}/slo")
        return 2
    if args.json:
        print(json.dumps(state, indent=2))
        if not state.get("enabled"):
            return 2
        return 1 if state.get("burning") else 0
    if not state.get("enabled"):
        print("slo: server has no objectives attached (serve --slo-latency-ms)")
        return 2
    print(f"burning     : {'YES' if state.get('burning') else 'no'}")
    for objective in state.get("objectives", []):
        spec = objective.get("objective", {})
        name = spec.get("name", "?")
        print(
            f"{name:<12}: budget_remaining={objective.get('budget_remaining', 1.0):.1%} "
            f"{'BURNING' if objective.get('burning') else 'ok'}"
        )
        for window in objective.get("windows", []):
            total = window.get("good", 0) + window.get("bad", 0)
            print(
                f"  {window.get('window_s', 0):>6.0f}s: "
                f"burn={window.get('burn_rate', 0.0):.2f} "
                f"error_rate={window.get('error_rate', 0.0):.4f} "
                f"n={total}"
            )
    return 1 if state.get("burning") else 0


def drift_densities(
    current: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One step of ``serve --updates``' synthetic congestion drift.

    Every current region is scaled by one factor drawn from
    ``U(0.6, 1.5)``, so its mean density moves by that factor; an
    independent factor per segment would average out over a region and
    seldom cross the repartitioner's staleness threshold.
    """
    factor = rng.uniform(0.6, 1.5, size=int(labels.max()) + 1)
    return np.maximum(current * factor[labels], 1e-6)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Partition (or load) a network and serve lookups until SIGTERM.

    Prints one JSON status line to stdout once the socket is bound —
    ``{"status": "serving", "url": ..., "port": ..., ...}`` — so
    wrappers (the e2e test, ``make serve-demo``) can discover the
    ephemeral port; everything else goes to stderr.
    """
    from repro.pipeline.incremental import IncrementalRepartitioner
    from repro.serve import PartitionServer, SegmentIndex, SnapshotStore
    from repro.serve.snapshot import attach_repartitioner
    from repro.shard.spatial import segment_midpoints

    if args.dataset in dataset_names():
        network, densities = load_dataset(args.dataset, seed=args.seed)
    else:
        network = load_network_json(args.dataset)
        densities = network.densities()
    graph = build_road_graph(network).with_features(densities)
    points = segment_midpoints(network)

    store = SnapshotStore()
    if args.result:
        from repro.pipeline.persistence import load_result

        result = load_result(args.result)
        if result.labels.size != network.n_segments:
            _diag(
                f"result has {result.labels.size} labels but the network "
                f"has {network.n_segments} segments"
            )
            return 1
        store.publish(
            SegmentIndex(
                result.labels,
                points=points,
                adjacency=graph.adjacency,
                features=densities,
            ),
            meta={"source": str(args.result), "scheme": result.scheme},
        )
        repartitioner = None
    else:
        _diag(
            f"partitioning {args.dataset} with {args.scheme} k={args.k} ..."
        )
        repartitioner = IncrementalRepartitioner(
            graph, k=args.k, scheme=args.scheme, seed=args.seed
        )
        attach_repartitioner(store, repartitioner, points=points)
        repartitioner.bootstrap(densities)  # publishes epoch 1 via the hook

    # --- live-telemetry plane (all opt-in; default serving is untraced) --
    slo = None
    if args.slo_latency_ms is not None:
        from repro.obs.slo import SLOTracker, default_objectives

        if args.slo_latency_ms <= 0:
            _diag("--slo-latency-ms must be positive")
            return 1
        slo = SLOTracker(default_objectives(args.slo_latency_ms / 1000.0))

    record_live = args.record_live or args.live_out is not None
    live = None
    genealogy = None
    if record_live:
        from repro.obs.live import EpochGenealogyRecorder, LiveRecorder

        live = LiveRecorder(hz=args.live_hz)
        if repartitioner is not None:
            genealogy = EpochGenealogyRecorder(live)
            genealogy.attach(repartitioner)

    observability_on = (
        slo is not None or record_live or args.access_log_sample > 0
    )
    tracer = None
    if observability_on:
        from repro.obs.trace import Tracer

        tracer = Tracer()

    server = PartitionServer(
        store,
        host=args.host,
        port=args.port,
        slo=slo,
        tracer=tracer,
        access_log_sample=args.access_log_sample,
        live=live,
        genealogy=genealogy,
        inject_slow_s=args.inject_slow_ms / 1000.0,
    )
    if live is not None:
        # The serve gauges are refreshed lazily (on /metrics hits), so
        # the first pull source primes them; the rest read the fresh
        # values within the same tick (sources sample in insertion
        # order).
        def _primed_qps() -> float:
            server._refresh_gauges(store.current())
            return server.registry.gauge("serve.qps")

        live.add_source("serve.qps", _primed_qps)
        live.watch_registry(
            server.registry,
            (
                "serve.latency_p50_s",
                "serve.latency_p99_s",
                "serve.epoch",
                "serve.epoch_age_s",
                "serve.connections",
            ),
        )

    updater = None
    stop_updates = None
    if args.updates > 0:
        if repartitioner is None:
            _diag("--updates needs a live repartitioner; drop --result")
            return 1
        import threading

        stop_updates = threading.Event()

        def drift_loop() -> None:
            rng = np.random.default_rng(args.seed)
            current = np.asarray(densities, dtype=float).copy()
            for __ in range(args.updates):
                if stop_updates.wait(args.update_interval):
                    return
                current = drift_densities(current, repartitioner.labels, rng)
                try:
                    repartitioner.update(current)
                except Exception as exc:  # keep serving on update failure
                    _diag(f"incremental update failed: {exc}")

        updater = threading.Thread(
            target=drift_loop, name="repro-serve-updater", daemon=True
        )

    async def _serve() -> None:
        import signal

        await server.start()
        snap = store.current()
        print(
            json.dumps(
                {
                    "status": "serving",
                    "url": server.url,
                    "host": args.host,
                    "port": server.port,
                    "dataset": args.dataset,
                    "n_segments": snap.index.n_segments,
                    "k": snap.index.k,
                    "epoch": snap.epoch,
                }
            ),
            flush=True,
        )
        if updater is not None:
            updater.start()
        if live is not None:
            live.start()
        loop = __import__("asyncio").get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        await server.serve_until_shutdown()

    import asyncio

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        if stop_updates is not None:
            stop_updates.set()
        if live is not None:
            live.stop()
            if args.live_out:
                live.write(args.live_out)
                _diag(f"wrote live telemetry to {args.live_out}")
        store.close()
    _diag("server stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running server; print a throughput/latency report."""
    from repro.serve.loadgen import run_loadgen

    n_segments = args.segments
    if n_segments is None:
        import urllib.request

        url = f"http://{args.host}:{args.port}/epoch"
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                n_segments = int(json.loads(resp.read())["n_segments"])
        except OSError as exc:
            _diag(f"cannot reach {url}: {exc}")
            return 1
    report = run_loadgen(
        host=args.host,
        port=args.port,
        n_segments=n_segments,
        mode=args.mode,
        duration_s=args.duration,
        connections=args.connections,
        depth=args.depth,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    payload = report.to_dict()
    # post-run error-budget state from the server, when it serves /slo
    slo_state = _fetch_slo(args.host, args.port)
    if slo_state is not None and slo_state.get("enabled"):
        payload["slo"] = slo_state
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        _diag(f"wrote report to {args.out}")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"mode        : {report.mode}")
        print(f"requests    : {report.n_requests} ({report.n_errors} errors)")
        print(f"duration    : {report.duration_s:.2f}s")
        print(f"qps         : {report.qps:,.0f}")
        print(f"lookups/s   : {report.lookups_per_s:,.0f}")
        print(f"p50 latency : {report.p50_s * 1e3:.3f} ms")
        print(f"p90 latency : {report.p90_s * 1e3:.3f} ms")
        print(f"p99 latency : {report.p99_s * 1e3:.3f} ms")
        if "slo" in payload:
            burning = payload["slo"].get("burning")
            budgets = ", ".join(
                f"{e['objective']['name']}={e['budget_remaining']:.1%}"
                for e in payload["slo"].get("objectives", [])
            )
            print(
                f"slo         : {'BURNING' if burning else 'within budget'}"
                + (f" ({budgets})" if budgets else "")
            )
    return 0 if report.n_errors == 0 else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "report": _cmd_obs_report,
        "profile": _cmd_obs_profile,
        "diff": _cmd_obs_diff,
        "slo": _cmd_obs_slo,
        "analyze": _cmd_obs_analyze,
        "scaling": _cmd_obs_scaling,
    }
    return handlers[args.obs_command](args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    configure_logging(level=args.log_level)
    handlers = {
        "partition": _cmd_partition,
        "datasets": _cmd_datasets,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "export": _cmd_export,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench_compare,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
