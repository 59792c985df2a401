"""Tests for the spectral relaxation (Algorithm 3, lines 1-11)."""

import numpy as np
import pytest

from repro.core.spectral import (
    row_normalize,
    smallest_eigenvectors,
    spectral_embedding,
    spectral_partition,
)
from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.graph.laplacian import alpha_cut_matrix


class TestSmallestEigenvectors:
    def test_values_ascending(self, two_cliques):
        values, __ = smallest_eigenvectors(two_cliques.adjacency, 4)
        assert (np.diff(values) >= -1e-10).all()

    def test_matches_full_decomposition(self, two_cliques):
        values, vectors = smallest_eigenvectors(two_cliques.adjacency, 3)
        m = alpha_cut_matrix(two_cliques.adjacency)
        full = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(values, full[:3], atol=1e-10)

    def test_vectors_satisfy_eigen_equation(self, two_cliques):
        values, vectors = smallest_eigenvectors(two_cliques.adjacency, 2)
        m = alpha_cut_matrix(two_cliques.adjacency)
        for i in range(2):
            np.testing.assert_allclose(
                m @ vectors[:, i], values[i] * vectors[:, i], atol=1e-8
            )

    def test_invalid_k(self, two_cliques):
        with pytest.raises(PartitioningError):
            smallest_eigenvectors(two_cliques.adjacency, 0)
        with pytest.raises(PartitioningError):
            smallest_eigenvectors(two_cliques.adjacency, 99)

    @pytest.mark.parametrize("method", ["lanczos", "magic"])
    def test_invalid_method_rejected(self, two_cliques, method):
        with pytest.raises(PartitioningError):
            smallest_eigenvectors(two_cliques.adjacency, 2, method=method)

    def test_sparse_path_agrees_with_dense(self):
        """Force the ARPACK path with a graph above the dense cutoff
        by monkeypatching the cutoff."""
        import repro.core.spectral as spec

        rng = np.random.default_rng(0)
        n = 60
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(i, (i + 7) % n) for i in range(n)]
        g = Graph(n, edges=edges)
        dense_vals, __ = smallest_eigenvectors(g.adjacency, 3)
        old = spec.DENSE_CUTOFF
        spec.DENSE_CUTOFF = 10
        try:
            sparse_vals, __ = smallest_eigenvectors(g.adjacency, 3)
        finally:
            spec.DENSE_CUTOFF = old
        np.testing.assert_allclose(np.sort(sparse_vals), dense_vals, atol=1e-6)


class TestRowNormalize:
    def test_unit_rows(self, rng):
        z = row_normalize(rng.normal(size=(10, 3)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0)

    def test_zero_rows_preserved(self):
        z = row_normalize(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(z[0], [0.0, 0.0])
        np.testing.assert_allclose(z[1], [0.6, 0.8])


class TestSpectralPartition:
    def test_separates_cliques(self, two_cliques):
        labels = spectral_partition(two_cliques.adjacency, 2, seed=0)
        assert labels.max() == 1
        assert len(set(labels[:4].tolist())) == 1
        assert len(set(labels[4:].tolist())) == 1

    def test_k_one(self, two_cliques):
        labels = spectral_partition(two_cliques.adjacency, 1, seed=0)
        assert labels.max() == 0

    def test_k_equals_n(self, two_cliques):
        labels = spectral_partition(two_cliques.adjacency, 8, seed=0)
        assert sorted(labels.tolist()) == list(range(8))

    def test_component_extraction_splits_disconnected_clusters(self):
        """Two disconnected edges clustered together must split."""
        g = Graph(4, edges=[(0, 1), (2, 3)])
        labels = spectral_partition(g.adjacency, 2, seed=0)
        # with component extraction every partition is connected
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_labels_dense(self, two_cliques):
        labels = spectral_partition(two_cliques.adjacency, 3, seed=0)
        assert set(labels.tolist()) == set(range(labels.max() + 1))

    def test_partitions_connected(self, small_grid_graph):
        from repro.graph.components import is_connected

        labels = spectral_partition(small_grid_graph.adjacency, 4, seed=1)
        for i in range(labels.max() + 1):
            members = np.flatnonzero(labels == i)
            assert is_connected(small_grid_graph.adjacency, members)

    def test_invalid_k(self, two_cliques):
        with pytest.raises(PartitioningError):
            spectral_partition(two_cliques.adjacency, 0)

    def test_embedding_shape(self, two_cliques):
        z = spectral_embedding(two_cliques.adjacency, 3)
        assert z.shape == (8, 3)
