"""Bench — eigensolver backends for the alpha-Cut matrix.

The paper identifies eigendecomposition as the framework's dominant
cost and plugs in a high-performance solver [3]. We compare our two
backends on the supergraph of a large-network analogue: dense LAPACK
(`numpy.linalg.eigh`) and ARPACK (`scipy.sparse.linalg.eigsh` on the
matrix-free operator) — checking they agree on the k smallest
eigenvalues and reporting wall-clock times.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import LARGE_NAMES, print_table, save_results
from repro.core.spectral import smallest_eigenvectors
from repro.supergraph.builder import build_supergraph

K = 8


def test_eigensolver_backends(benchmark, large_graphs):
    graph = large_graphs[LARGE_NAMES[0]]
    supergraph = build_supergraph(graph, seed=0)
    adjacency = supergraph.adjacency

    def run():
        out = {}
        for method in ("dense", "arpack"):
            start = time.perf_counter()
            values, __ = smallest_eigenvectors(adjacency, K, method=method)
            out[method] = {
                "seconds": time.perf_counter() - start,
                "values": np.sort(values),
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            method,
            supergraph.n_supernodes,
            round(rec["seconds"], 4),
            round(float(rec["values"][0]), 6),
            round(float(rec["values"][-1]), 6),
        ]
        for method, rec in results.items()
    ]
    print_table(
        f"Eigensolver backends on the {LARGE_NAMES[0]} supergraph (k={K})",
        ["method", "n", "seconds", "lambda_min", "lambda_k"],
        rows,
    )
    save_results(
        "bench_eigensolvers",
        {m: {"seconds": r["seconds"], "values": r["values"]} for m, r in results.items()},
    )

    # both backends agree on the smallest eigenvalues
    reference = results["dense"]["values"]
    np.testing.assert_allclose(results["arpack"]["values"], reference, atol=1e-6)
