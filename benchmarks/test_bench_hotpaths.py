"""Hot-path benchmark: vectorized perf layer vs reference implementations.

Times old-vs-new on a synthetic ~50k-segment Manhattan grid (the scale
of the paper's M1/M2 networks):

* module 1 — dual transform + road-graph assembly (reference
  pure-Python set/clique loops vs the sparse incidence product);
* the full Algorithm-1 kappa scan (reference per-kappa re-sorting
  k-means + per-cluster-loop MCG vs the shared-sort prefix-sum fast
  path);
* the MCG scoring function alone;
* the n-D k-means assignment (broadcast tensor vs chunked
  ``||x||^2 - 2 x.c + ||c||^2``);
* alpha-Cut partition scoring (per-call weight passes vs the cached
  summary);
* boundary refinement (global BFS of the source partition on every
  candidate move vs the local connectivity test), on M1-small's ASG
  labels — the reference would take minutes on the 52k grid.

Writes ``BENCH_hotpaths.json`` at the repo root (plus the usual
``benchmarks/results`` copy) so the perf trajectory is tracked from
this PR onward. The module-1 and kappa-scan speedups are asserted
(>= 5x and >= 2x) — they are the paper's scalability story — and the
boundary-refinement speedup (>= 5x) catches a return to the per-move
global scan.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import print_table, save_results
from repro.obs.manifest import run_manifest
from repro.clustering.kmeans import (
    assign_to_centers,
    kmeans_1d,
    kmeans_1d_reference,
    pairwise_sq_dists_reference,
)
from repro.clustering.optimality import (
    moderated_clustering_gain,
    moderated_clustering_gain_reference,
    scan_kappa,
)
from repro.core.alpha_cut import _partition_weights, _prepare, partition_weight_summary
from repro.core.boundary_refine import boundary_refine, boundary_refine_reference
from repro.datasets import load_dataset
from repro.graph.adjacency import Graph
from repro.network.dual import build_road_graph, segment_adjacency_reference
from repro.network.generators import grid_network
from repro.pipeline.framework import SpatialPartitioningFramework

ROOT_RESULTS = Path(__file__).parent.parent / "BENCH_hotpaths.json"

GRID_SIDE = 115  # 115 x 115 two-way grid -> 52 440 directed segments


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


@pytest.fixture(scope="module")
def synthetic_city():
    network = grid_network(GRID_SIDE, GRID_SIDE, two_way=True)
    rng = np.random.default_rng(0)
    densities = rng.gamma(2.0, 0.02, size=network.n_segments)
    network.set_densities(densities)
    return network, densities


def test_bench_hotpaths(synthetic_city):
    network, densities = synthetic_city
    payload = {"n_segments": network.n_segments}

    # --- module 1: dual transform ------------------------------------
    def build_reference():
        edges = segment_adjacency_reference(network)
        return Graph(network.n_segments, edges=edges, features=network.densities())

    ref_s, ref_graph = _timed(build_reference)
    new_s, new_graph = _timed(build_road_graph, network)
    assert (ref_graph.adjacency != new_graph.adjacency).nnz == 0
    dual_speedup = ref_s / new_s
    payload["dual_transform"] = {
        "reference_s": ref_s,
        "vectorized_s": new_s,
        "speedup": dual_speedup,
        "n_dual_edges": new_graph.n_edges,
    }

    # --- full kappa scan ---------------------------------------------
    def scan_reference():
        mcg = []
        for kappa in range(2, 31):
            result = kmeans_1d_reference(densities, kappa)
            mcg.append(moderated_clustering_gain_reference(densities, result.labels))
        return mcg

    ref_scan_s, ref_mcg = _timed(scan_reference)
    new_scan_s, scan = _timed(scan_kappa, densities, 30)
    assert scan.mcg == pytest.approx(ref_mcg, rel=1e-6)
    scan_speedup = ref_scan_s / new_scan_s
    payload["kappa_scan"] = {
        "reference_s": ref_scan_s,
        "fast_s": new_scan_s,
        "speedup": scan_speedup,
        "best_kappa": scan.best_kappa,
    }

    # --- MCG scoring alone -------------------------------------------
    labels = kmeans_1d(densities, 30).labels
    reps = 20
    ref_mcg_s, __ = _timed(
        lambda: [moderated_clustering_gain_reference(densities, labels) for _ in range(reps)]
    )
    new_mcg_s, __ = _timed(
        lambda: [moderated_clustering_gain(densities, labels) for _ in range(reps)]
    )
    payload["mcg"] = {
        "reference_s": ref_mcg_s / reps,
        "vectorized_s": new_mcg_s / reps,
        "speedup": ref_mcg_s / new_mcg_s,
    }

    # --- n-D assignment ----------------------------------------------
    rng = np.random.default_rng(1)
    points = rng.normal(size=(network.n_segments, 8))
    centers = rng.normal(size=(16, 8))
    ref_nd_s, ref_d2 = _timed(pairwise_sq_dists_reference, points, centers)
    new_nd_s, (nd_labels, __) = _timed(assign_to_centers, points, centers)
    assert np.array_equal(nd_labels, ref_d2.argmin(axis=1))
    payload["kmeans_nd_assignment"] = {
        "reference_broadcast_s": ref_nd_s,
        "chunked_s": new_nd_s,
        "speedup": ref_nd_s / new_nd_s,
    }

    # --- alpha-Cut partition scoring ---------------------------------
    part_labels = kmeans_1d(densities, 8).labels
    adjacency = new_graph.adjacency
    k = int(part_labels.max()) + 1

    def score_uncached():
        for __ in range(k):
            adj, lab, __n, kk = _prepare(adjacency, part_labels)
            _partition_weights(adj, lab, kk)

    def score_cached():
        for __ in range(k):
            partition_weight_summary(adjacency, part_labels)

    ref_cut_s, __ = _timed(score_uncached)
    new_cut_s, __ = _timed(score_cached)
    payload["alpha_cut_summary"] = {
        "reference_per_call_s": ref_cut_s,
        "cached_s": new_cut_s,
        "speedup": ref_cut_s / new_cut_s,
        "k": k,
    }

    # --- boundary refinement -----------------------------------------
    refine_network, refine_densities = load_dataset("M1-small")
    framework = SpatialPartitioningFramework(k=8, seed=0)
    start_labels = framework.partition(refine_network, refine_densities).labels
    refine_graph = framework.last_road_graph
    refine_args = (refine_graph.adjacency, refine_graph.features, start_labels)
    ref_refine_s, ref_refined = _timed(boundary_refine_reference, *refine_args)
    new_refine_s, new_refined = _timed(boundary_refine, *refine_args)
    assert np.array_equal(new_refined, ref_refined)
    refine_speedup = ref_refine_s / new_refine_s
    payload["boundary_refine"] = {
        "dataset": "M1-small",
        "n_segments": refine_graph.n_nodes,
        "reference_s": ref_refine_s,
        "local_s": new_refine_s,
        "speedup": refine_speedup,
        "moved": int(np.count_nonzero(new_refined != start_labels)),
    }

    rows = [
        ["module1 dual transform", ref_s, new_s, dual_speedup],
        ["kappa scan (2..30)", ref_scan_s, new_scan_s, scan_speedup],
        ["MCG (per call)", ref_mcg_s / reps, new_mcg_s / reps, ref_mcg_s / new_mcg_s],
        ["n-D assignment", ref_nd_s, new_nd_s, ref_nd_s / new_nd_s],
        ["alpha-cut scoring (k calls)", ref_cut_s, new_cut_s, ref_cut_s / new_cut_s],
        ["boundary refine (M1-small)", ref_refine_s, new_refine_s, refine_speedup],
    ]
    print_table(
        f"Hot paths on {network.n_segments}-segment grid",
        ["path", "reference_s", "optimized_s", "speedup"],
        rows,
    )

    save_results("bench_hotpaths", payload)
    payload["provenance"] = run_manifest(extra={"bench": "bench_hotpaths"})
    with open(ROOT_RESULTS, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    # the acceptance floors of the perf layer
    assert dual_speedup >= 5.0, f"module-1 speedup {dual_speedup:.1f}x < 5x"
    assert scan_speedup >= 2.0, f"kappa-scan speedup {scan_speedup:.1f}x < 2x"
    assert refine_speedup >= 5.0, (
        f"boundary-refine speedup {refine_speedup:.1f}x < 5x"
    )
