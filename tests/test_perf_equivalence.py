"""Equivalence of the vectorized hot paths with their references.

The perf layer (sparse-incidence dual transform, prefix-sum 1-D
k-means, vectorized MCG, chunked n-D assignment, local connectivity
test in boundary refinement) must not change any result. These
property-style tests pin the fast implementations to the retained
reference implementations across random networks and datasets,
including the structural edge cases called out in the paper: star
junctions (dual cliques), two-way streets (segment pairs sharing both
endpoints), and empty-cluster re-seeding.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ji_geroliminis import JiGeroliminisPartitioner
from repro.clustering.kmeans import (
    assign_to_centers,
    kmeans,
    kmeans_1d,
    kmeans_1d_reference,
    pairwise_sq_dists_reference,
)
from repro.clustering.optimality import (
    moderated_clustering_gain,
    moderated_clustering_gain_reference,
)
from repro.core.boundary_refine import boundary_refine, boundary_refine_reference
from repro.datasets import load_dataset
from repro.graph.adjacency import Graph
from repro.metrics.validation import check_connectivity
from repro.network.dual import (
    build_road_graph,
    segment_adjacency,
    segment_adjacency_reference,
)
from repro.network.generators import (
    grid_network,
    ring_radial_network,
    urban_network,
)
from repro.network.geometry import Point
from repro.network.model import Intersection, RoadNetwork, RoadSegment
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.traffic.profiles import hotspot_profile


def star_network(n_arms: int) -> RoadNetwork:
    """A single junction with ``n_arms`` two-way streets — a dual clique."""
    center = Intersection(0, Point(0.0, 0.0))
    tips = [
        Intersection(i + 1, Point(100.0 * np.cos(a), 100.0 * np.sin(a)))
        for i, a in enumerate(np.linspace(0, 2 * np.pi, n_arms, endpoint=False))
    ]
    segments = []
    sid = 0
    for i in range(n_arms):
        segments.append(RoadSegment(sid, 0, i + 1, length=100.0))
        sid += 1
        segments.append(RoadSegment(sid, i + 1, 0, length=100.0))
        sid += 1
    return RoadNetwork([center] + tips, segments)


class TestSegmentAdjacencyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_urban_networks(self, seed):
        net = urban_network(8 + seed, 10 + seed, seed=seed)
        assert segment_adjacency(net) == segment_adjacency_reference(net)

    @pytest.mark.parametrize("two_way", [True, False])
    def test_grids(self, two_way):
        net = grid_network(5, 7, two_way=two_way)
        assert segment_adjacency(net) == segment_adjacency_reference(net)

    def test_ring_radial(self):
        net = ring_radial_network(3, 9)
        assert segment_adjacency(net) == segment_adjacency_reference(net)

    @pytest.mark.parametrize("n_arms", [2, 3, 8])
    def test_star_junction_clique(self, n_arms):
        """Star junctions must produce the full dual clique."""
        net = star_network(n_arms)
        pairs = segment_adjacency(net)
        assert pairs == segment_adjacency_reference(net)
        # all 2*n_arms segments meet at the hub: a complete clique
        m = net.n_segments
        assert len(pairs) == m * (m - 1) // 2

    def test_two_way_street_pair_adjacent_once(self):
        """Opposite directions share both endpoints but appear once."""
        net = grid_network(2, 2, two_way=True)
        pairs = segment_adjacency(net)
        assert pairs == segment_adjacency_reference(net)
        assert len(pairs) == len(set(pairs))

    def test_pairs_sorted_with_python_ints(self):
        pairs = segment_adjacency(grid_network(3, 3, two_way=True))
        assert pairs == sorted(pairs)
        assert all(isinstance(u, int) and isinstance(v, int) for u, v in pairs)
        assert all(u < v for u, v in pairs)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_build_road_graph_matches_edge_list_construction(self, seed):
        net = urban_network(9, 9, seed=seed)
        reference = Graph(
            net.n_segments,
            edges=segment_adjacency_reference(net),
            features=net.densities(),
        )
        fast = build_road_graph(net)
        assert (reference.adjacency != fast.adjacency).nnz == 0
        assert np.array_equal(reference.features, fast.features)


class TestMCGEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_on_random_clusterings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 300))
        kappa = int(rng.integers(1, min(12, n)))
        data = rng.gamma(2.0, 0.02, size=n)
        labels = rng.integers(0, kappa, size=n)
        assert moderated_clustering_gain(
            data, labels
        ) == moderated_clustering_gain_reference(data, labels)

    def test_bit_identical_with_empty_clusters(self):
        data = np.array([0.1, 0.2, 0.3, 5.0, 5.1])
        labels = np.array([0, 0, 0, 3, 3])  # clusters 1 and 2 empty
        assert moderated_clustering_gain(
            data, labels
        ) == moderated_clustering_gain_reference(data, labels)

    def test_bit_identical_on_multidimensional_data(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(80, 3))
        labels = rng.integers(0, 5, size=80)
        assert moderated_clustering_gain(
            data, labels
        ) == moderated_clustering_gain_reference(data, labels)

    def test_degenerate_single_cluster(self):
        """A cluster mean equal to the global mean contributes zero."""
        data = np.ones(10)
        labels = np.zeros(10, dtype=int)
        assert moderated_clustering_gain(data, labels) == 0.0
        assert moderated_clustering_gain_reference(data, labels) == 0.0


class TestKMeans1dEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_labels_match_reference_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 400))
        data = rng.gamma(2.0, 0.02, size=n)
        for kappa in (1, 2, min(7, n), max(min(29, n - 1), 1)):
            fast = kmeans_1d(data, kappa)
            ref = kmeans_1d_reference(data, kappa)
            assert np.array_equal(fast.labels, ref.labels)
            assert fast.centers == pytest.approx(ref.centers, rel=1e-9, abs=1e-12)
            assert fast.inertia == pytest.approx(ref.inertia, rel=1e-9, abs=1e-12)
            assert fast.n_iter == ref.n_iter

    def test_presorted_fast_path_is_bit_identical(self):
        rng = np.random.default_rng(4)
        data = rng.gamma(2.0, 0.02, size=500)
        sorted_vals = np.sort(data, kind="stable")
        for kappa in (2, 5, 17):
            plain = kmeans_1d(data, kappa)
            shared = kmeans_1d(data, kappa, presorted=sorted_vals)
            assert np.array_equal(plain.labels, shared.labels)
            assert np.array_equal(plain.centers, shared.centers)
            assert plain.inertia == shared.inertia
            assert plain.n_iter == shared.n_iter

    def test_presorted_shape_mismatch_rejected(self):
        from repro.exceptions import ClusteringError

        with pytest.raises(ClusteringError):
            kmeans_1d([1.0, 2.0, 3.0], 2, presorted=np.array([1.0, 2.0]))

    def test_empty_cluster_reseeding(self):
        """kappa above the distinct-value count forces re-seeding."""
        data = np.r_[np.zeros(10), 1e6]
        fast = kmeans_1d(data, 3)
        ref = kmeans_1d_reference(data, 3)
        assert np.array_equal(fast.labels, ref.labels)
        assert fast.centers == pytest.approx(ref.centers)

    def test_constant_values(self):
        data = np.full(8, 3.3)
        fast = kmeans_1d(data, 2)
        ref = kmeans_1d_reference(data, 2)
        assert np.array_equal(fast.labels, ref.labels)
        assert fast.centers == pytest.approx(ref.centers)

    def test_duplicated_values(self):
        data = np.r_[np.zeros(5), np.ones(5)]
        for kappa in (2, 4):
            fast = kmeans_1d(data, kappa)
            ref = kmeans_1d_reference(data, kappa)
            assert np.array_equal(fast.labels, ref.labels)

    def test_labels_in_input_order(self):
        """Labels align with the caller's (unsorted) value order."""
        data = np.array([5.0, 0.1, 4.9, 0.2])
        result = kmeans_1d(data, 2)
        assert result.labels[0] == result.labels[2]
        assert result.labels[1] == result.labels[3]
        assert result.labels[0] != result.labels[1]


class TestNDAssignmentEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_labels_match_broadcast_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 500))
        d = int(rng.integers(1, 6))
        kappa = int(rng.integers(1, 9))
        data = rng.normal(size=(n, d))
        centers = rng.normal(size=(kappa, d))
        ref_d2 = pairwise_sq_dists_reference(data, centers)
        labels, min_d2 = assign_to_centers(data, centers)
        assert np.array_equal(labels, ref_d2.argmin(axis=1))
        assert min_d2 == pytest.approx(ref_d2[np.arange(n), labels])

    def test_chunking_does_not_change_assignment(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(257, 4))
        centers = rng.normal(size=(6, 4))
        full, d2_full = assign_to_centers(data, centers, chunk_cells=1 << 30)
        tiny, d2_tiny = assign_to_centers(data, centers, chunk_cells=8)
        assert np.array_equal(full, tiny)
        # BLAS may pick different kernels per chunk shape; values agree
        # to rounding while the discrete assignment is identical
        assert d2_tiny == pytest.approx(d2_full, rel=1e-12, abs=1e-12)

    def test_full_kmeans_with_empty_cluster_reseeding(self):
        """Duplicated points force empty clusters through the new path."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=(3, 2))
        data = np.repeat(base, 5, axis=0)
        result = kmeans(data, kappa=5, seed=0)
        assert result.labels.shape == (15,)
        assert set(result.labels) <= set(range(5))
        assert result.inertia >= 0.0

    def test_kmeans_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(60, 3))
        a = kmeans(data, kappa=4, seed=42)
        b = kmeans(data, kappa=4, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)


# ----------------------------------------------------------------------
# boundary refinement: local connectivity test vs global BFS per move
def _refine_both(adjacency, features, labels, **kwargs):
    """Run fast and reference refinement; return both labellings and
    both runs' ``boundary_refine.*`` counters."""
    out = []
    for fn in (boundary_refine, boundary_refine_reference):
        registry = MetricsRegistry()
        with use_registry(registry):
            refined = fn(adjacency, features, labels, **kwargs)
        counters = {
            name: registry.counter(f"boundary_refine.{name}")
            for name in ("moves", "sweeps")
        }
        out.append((refined, counters))
    return out


def _assert_refine_identical(adjacency, features, labels, **kwargs):
    (fast, fast_counts), (ref, ref_counts) = _refine_both(
        adjacency, features, labels, **kwargs
    )
    assert np.array_equal(fast, ref)
    assert fast_counts == ref_counts
    return fast, fast_counts


def _lattice(rows: int, cols: int) -> Graph:
    """A rows x cols 4-neighbour lattice; node r * cols + c."""
    node = np.arange(rows * cols).reshape(rows, cols)
    edges = list(zip(node[:, :-1].ravel().tolist(), node[:, 1:].ravel().tolist()))
    edges += list(zip(node[:-1].ravel().tolist(), node[1:].ravel().tolist()))
    return Graph(rows * cols, edges=edges)


def _grown_labels(graph: Graph, k: int, rng) -> np.ndarray:
    """A random labelling with k connected parts: grow k regions from
    random seeds, each step claiming a random frontier node for one of
    its already-labelled neighbours."""
    adj = graph.adjacency
    labels = np.full(graph.n_nodes, -1)
    labels[rng.choice(graph.n_nodes, size=k, replace=False)] = np.arange(k)
    while (labels < 0).any():
        frontier = [
            u
            for u in np.flatnonzero(labels < 0)
            if (labels[adj.indices[adj.indptr[u] : adj.indptr[u + 1]]] >= 0).any()
        ]
        u = frontier[rng.integers(len(frontier))]
        owners = labels[adj.indices[adj.indptr[u] : adj.indptr[u + 1]]]
        owners = owners[owners >= 0]
        labels[u] = owners[rng.integers(owners.size)]
    return labels


def _asg_start(dataset: str, densities=None):
    network, default = load_dataset(dataset)
    framework = SpatialPartitioningFramework(k=8, seed=0)
    result = framework.partition(network, default if densities is None else densities)
    graph = framework.last_road_graph
    return graph.adjacency, graph.features, result.labels


class TestBoundaryRefineEquivalence:
    @pytest.mark.parametrize("dataset", ["D1", "M1-small"])
    def test_datasets(self, dataset):
        adjacency, features, labels = _asg_start(dataset)
        __, counts = _assert_refine_identical(adjacency, features, labels)
        assert counts["moves"] > 0

    def test_m2_small_hotspot_snapshot(self):
        network, __ = load_dataset("M2-small")
        densities = hotspot_profile(network, n_hotspots=5, seed=0)
        adjacency, features, labels = _asg_start("M2-small", densities)
        refined, counts = _assert_refine_identical(adjacency, features, labels)
        assert counts["moves"] > 0
        assert check_connectivity(adjacency, refined) == []

    @given(
        rows=st.integers(2, 9),
        cols=st.integers(2, 9),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_grids_connected_labellings(self, rows, cols, k, seed, levels):
        graph = _lattice(rows, cols)
        rng = np.random.default_rng(seed)
        k = min(k, graph.n_nodes)
        labels = _grown_labels(graph, k, rng)
        # few distinct density levels: ties between candidate partitions
        features = rng.integers(0, levels, size=graph.n_nodes) / levels
        refined, __ = _assert_refine_identical(graph.adjacency, features, labels)
        assert check_connectivity(graph.adjacency, refined) == []

    @pytest.mark.parametrize("max_sweeps", [0, 1, 10])
    @pytest.mark.parametrize("min_improvement", [0.0, 0.05])
    def test_sweeps_and_min_improvement(self, max_sweeps, min_improvement):
        graph = _lattice(8, 8)
        rng = np.random.default_rng(11)
        labels = _grown_labels(graph, 5, rng)
        features = rng.random(graph.n_nodes)
        __, counts = _assert_refine_identical(
            graph.adjacency,
            features,
            labels,
            max_sweeps=max_sweeps,
            min_improvement=min_improvement,
        )
        assert counts["sweeps"] <= max_sweeps

    def test_partition_of_size_one(self):
        graph = _lattice(4, 4)
        labels = np.ones(16, dtype=int)
        labels[5] = 0  # an interior singleton
        features = np.linspace(0.0, 1.0, 16)
        refined, __ = _assert_refine_identical(graph.adjacency, features, labels)
        assert set(refined.tolist()) == {0, 1}


class TestBoundaryRefineDisconnectedInput:
    """A partition handed in disconnected takes the global test."""

    def test_chain(self):
        chain = Graph(8, edges=[(i, i + 1) for i in range(7)])
        labels = np.array([0, 0, 1, 1, 1, 0, 0, 0])
        features = np.array([0.0, 0.1, 0.9, 0.05, 1.0, 0.0, 0.95, 0.1])
        _assert_refine_identical(chain.adjacency, features, labels)

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_with_merged_parts(self, seed):
        # grown connected parts, then two of them share one label the
        # way the JG merge step joins a stranded part to the closest mean
        graph = _lattice(7, 7)
        rng = np.random.default_rng(seed)
        labels = _grown_labels(graph, 6, rng)
        adj = graph.adjacency
        touching = {
            (labels[u], labels[v]) for u, v in zip(*adj.nonzero())
        }
        a, b = next(
            (a, b) for a in range(6) for b in range(a + 1, 6) if (a, b) not in touching
        )
        labels[labels == b] = a
        labels[labels == 5] = b  # keep the ids dense
        features = rng.random(graph.n_nodes)
        assert check_connectivity(adj, labels) != []
        refined, counts = _assert_refine_identical(adj, features, labels)
        assert counts["moves"] > 0

    @pytest.mark.parametrize("n_parts", [2, 3, 4])
    def test_random_labellings(self, n_parts):
        graph = _lattice(6, 7)
        rng = np.random.default_rng(n_parts)
        labels = rng.integers(0, n_parts, size=graph.n_nodes)
        labels[:n_parts] = np.arange(n_parts)  # every id in use
        features = rng.random(graph.n_nodes)
        assert check_connectivity(graph.adjacency, labels) != []
        _assert_refine_identical(graph.adjacency, features, labels)

    def test_grid_part_reconnected_by_a_gained_node(self):
        # part 0 is two pieces of the middle row; node 10 between them
        # matches part 0's mean, and part 1 stays connected through
        # node 7 once node 10 leaves it
        graph = _lattice(3, 7)
        labels = np.ones(21, dtype=int)
        labels[[8, 9, 11, 12, 13]] = 0
        features = np.full(21, 1.0)
        features[[8, 9, 10, 11, 12, 13]] = 0.0
        assert check_connectivity(graph.adjacency, labels) == [0]
        refined, __ = _assert_refine_identical(graph.adjacency, features, labels)
        assert refined[10] == 0
        assert check_connectivity(graph.adjacency, refined) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_jg_over_partition_after_merge(self, seed, monkeypatch):
        # a 5x5 city plus a detached 6-segment street: merging strands
        # the street's partition, so the merged labelling is disconnected
        base = build_road_graph(grid_network(5, 5, spacing=100.0, two_way=True))
        upper = base.adjacency.tocoo()
        edges = [(int(a), int(b)) for a, b in zip(upper.row, upper.col) if a < b]
        n0 = base.n_nodes
        edges += [(n0 + i, n0 + i + 1) for i in range(5)]
        city = hotspot_profile(grid_network(5, 5, spacing=100.0), n_hotspots=2, seed=seed)
        features = np.concatenate([city, np.full(6, 0.05)])
        graph = Graph(n0 + 6, edges=edges, features=features)
        module = importlib.import_module("repro.core.boundary_refine")
        merged = []

        def capture(adjacency, feats, labels, **kwargs):
            merged.append(np.array(labels))
            return boundary_refine(adjacency, feats, labels, **kwargs)

        monkeypatch.setattr(module, "boundary_refine", capture)
        JiGeroliminisPartitioner(3, seed=seed).partition(graph)
        assert check_connectivity(graph.adjacency, merged[0]) != []
        _assert_refine_identical(graph.adjacency, features, merged[0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jg_partitioner_matches_reference_path(self, seed, monkeypatch):
        graph = build_road_graph(grid_network(6, 6, spacing=100.0, two_way=True))
        network = grid_network(6, 6, spacing=100.0, two_way=True)
        graph = graph.with_features(hotspot_profile(network, n_hotspots=2, seed=seed))
        fast = JiGeroliminisPartitioner(4, seed=seed).partition(graph)
        module = importlib.import_module("repro.core.boundary_refine")
        monkeypatch.setattr(module, "boundary_refine", boundary_refine_reference)
        reference = JiGeroliminisPartitioner(4, seed=seed).partition(graph)
        assert np.array_equal(fast, reference)
