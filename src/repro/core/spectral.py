"""Spectral relaxation of the alpha-Cut (Algorithm 3, lines 1-11).

Pipeline: build M = d d^T / sum(d) - A, take the eigenvectors of its k
smallest eigenvalues, stack them as columns of Y (n x k), row-normalise
to Z, k-means the rows into k clusters, then split every cluster into
its connected components so the resulting partitions are spatially
connected (yielding k' >= k partitions).

Eigensolver strategy: dense ``numpy.linalg.eigh`` below
``DENSE_CUTOFF`` nodes (exact, fast at small n), otherwise ARPACK
``eigsh`` on the matrix-free :class:`repro.graph.laplacian.AlphaCutOperator`
(``sigma=None, which="SA"``), standing in for the paper's high
performance Matlab eigensolver.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from repro.exceptions import PartitioningError
from repro.clustering.kmeans import kmeans
from repro.graph.components import connected_components
from repro.graph.laplacian import AlphaCutOperator, alpha_cut_matrix
from repro.obs.metrics import incr
from repro.obs.trace import current_tracer
from repro.util.rng import RngLike, ensure_rng

DENSE_CUTOFF = 1500

#: Last eigensolver outcome recorded in this process (module-level:
#: module 3 always runs serially in the calling process). Read it with
#: :func:`last_eigensolver_outcome`.
_LAST_OUTCOME: Optional[Dict[str, Any]] = None
#: First outcome recorded since the last
#: :func:`consume_eigensolver_outcome` — a run's embedding solve, which
#: precedes the 2-way solves of its recursive bipartitioning.
_FIRST_OUTCOME: Optional[Dict[str, Any]] = None


def last_eigensolver_outcome() -> Optional[Dict[str, Any]]:
    """The outcome record of the most recent :func:`smallest_eigenvectors`.

    A JSON-serialisable dict: ``solver`` (the path that produced the
    returned eigenpairs), ``method`` (what the caller requested),
    ``n``/``k``, ``iterations`` (always None: no backend exposes a
    count), ``residual`` (max column norm of ``M v - lambda v`` at
    exit), ``converged`` and ``fallback_reason`` (None unless the
    ARPACK path fell back). Returns None before the first solve.
    """
    return None if _LAST_OUTCOME is None else dict(_LAST_OUTCOME)


def consume_eigensolver_outcome() -> Optional[Dict[str, Any]]:
    """Return the first outcome recorded since the previous call, and
    clear both records (one consumer per run).

    A partitioning run solves its k-way embedding first and any 2-way
    bipartitions after it, so the returned record is the embedding's.
    """
    global _LAST_OUTCOME, _FIRST_OUTCOME
    outcome = _FIRST_OUTCOME
    _LAST_OUTCOME = _FIRST_OUTCOME = None
    return outcome


def _exit_residual(adj: sp.csr_matrix, values: np.ndarray, vectors: np.ndarray) -> float:
    """``max_i ||M v_i - lambda_i v_i||`` — the solver-independent
    quality measure of the returned eigenpairs (k matvecs, cheap next
    to any of the solves)."""
    operator = AlphaCutOperator(adj)
    residual = operator.matmat(np.asarray(vectors)) - np.asarray(vectors) * np.asarray(values)
    norms = np.linalg.norm(residual, axis=0)
    return float(norms.max()) if norms.size else 0.0


def _record_outcome(
    adj: sp.csr_matrix,
    values: np.ndarray,
    vectors: np.ndarray,
    *,
    solver: str,
    method: str,
    k: int,
    converged: bool,
    fallback_reason: Optional[str],
    span=None,
) -> None:
    global _LAST_OUTCOME, _FIRST_OUTCOME
    outcome: Dict[str, Any] = {
        "solver": solver,
        "method": method,
        "n": int(adj.shape[0]),
        "k": int(k),
        # no backend exposes an iteration count; the key stays for
        # readers of persisted outcome records
        "iterations": None,
        "residual": _exit_residual(adj, values, vectors),
        "converged": bool(converged),
        "fallback_reason": fallback_reason,
    }
    _LAST_OUTCOME = outcome
    if _FIRST_OUTCOME is None:
        _FIRST_OUTCOME = outcome
    if span is not None:
        span.attrs.update(
            solver=solver,
            residual=outcome["residual"],
            converged=outcome["converged"],
        )
        if fallback_reason:
            span.attrs["fallback_reason"] = fallback_reason


def smallest_eigenvectors(
    adjacency, k: int, method: str = "auto"
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the k smallest eigenvalues of the alpha-Cut matrix M.

    Parameters
    ----------
    adjacency:
        Weighted symmetric adjacency matrix.
    k:
        Number of smallest eigenpairs.
    method:
        ``"auto"`` (dense below :data:`DENSE_CUTOFF` nodes, ARPACK
        above), ``"dense"`` or ``"arpack"``.

    Returns
    -------
    (eigenvalues, eigenvectors):
        ``eigenvalues`` ascending, shape (k,); ``eigenvectors`` with
        matching columns, shape (n, k).

    Notes
    -----
    Every call records an outcome record — solver used, residual at
    exit, fallback reason — retrievable via
    :func:`last_eigensolver_outcome` and attached to the ``eigensolve``
    span when a tracer is active. The framework lifts it into the run
    manifest and :class:`repro.pipeline.results.PartitioningResult`.
    """
    if method not in ("auto", "dense", "arpack"):
        raise PartitioningError(f"method must be auto/dense/arpack, got {method!r}")
    adj = sp.csr_matrix(adjacency, dtype=float)
    n = adj.shape[0]
    if not 1 <= k <= n:
        raise PartitioningError(f"need 1 <= k <= n, got k={k}, n={n}")

    tracer = current_tracer()
    active = (
        tracer.span("eigensolve", n=n, k=k, method=method)
        if tracer is not None
        else nullcontext()
    )
    with active as span:  # nullcontext yields None; tracer.span a Span
        if method == "dense" or (
            method == "auto" and (n <= DENSE_CUTOFF or k >= n - 1)
        ):
            incr("eigensolver.dense_calls")
            m = alpha_cut_matrix(adj)
            values, vectors = np.linalg.eigh(m)
            values, vectors = values[:k], vectors[:, :k]
            _record_outcome(
                adj,
                values,
                vectors,
                solver="dense",
                method=method,
                k=k,
                converged=True,
                fallback_reason=None,
                span=span,
            )
            return values, vectors

        operator = AlphaCutOperator(adj)
        incr("eigensolver.arpack_calls")
        solver = "arpack"
        converged = True
        fallback_reason = None
        try:
            values, vectors = eigsh(operator, k=k, which="SA")
        except ArpackNoConvergence as exc:
            # fall back to whatever converged, topped up by the dense path
            incr("eigensolver.arpack_no_convergence")
            converged = False
            if exc.eigenvalues is not None and len(exc.eigenvalues) >= k:
                solver = "arpack_partial"
                fallback_reason = "arpack_no_convergence_partial_pairs"
                values, vectors = exc.eigenvalues[:k], exc.eigenvectors[:, :k]
            else:
                solver = "dense"
                fallback_reason = "arpack_no_convergence_dense_fallback"
                m = alpha_cut_matrix(adj)
                values, vectors = np.linalg.eigh(m)
                values, vectors = values[:k], vectors[:, :k]
                _record_outcome(
                    adj,
                    values,
                    vectors,
                    solver=solver,
                    method=method,
                    k=k,
                    converged=converged,
                    fallback_reason=fallback_reason,
                    span=span,
                )
                return values, vectors
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
        _record_outcome(
            adj,
            values,
            vectors,
            solver=solver,
            method=method,
            k=k,
            converged=converged,
            fallback_reason=fallback_reason,
            span=span,
        )
        return values, vectors


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalise each row to unit L2 norm (Equation 8).

    Zero rows are left as zeros so isolated/degenerate nodes fall into
    whichever cluster owns the origin instead of producing NaNs.
    """
    y = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return y / safe


def spectral_embedding(adjacency, k: int) -> np.ndarray:
    """The row-normalised spectral embedding Z (Algorithm 3, lines 4-8)."""
    __, vectors = smallest_eigenvectors(adjacency, k)
    return row_normalize(vectors)


def spectral_partition(
    adjacency,
    k: int,
    extract_components: bool = True,
    n_init: int = 3,
    seed: RngLike = None,
) -> np.ndarray:
    """Cluster the spectral embedding into partitions (lines 9-11).

    Parameters
    ----------
    adjacency:
        Weighted symmetric adjacency of the (super)graph.
    k:
        Number of clusters for k-means in eigenspace.
    extract_components:
        Split each eigen-cluster into its connected components so every
        returned partition is connected (may yield k' >= k labels).
    n_init:
        k-means restarts (k-means on eigen-rows has randomised
        seeding; the paper reports medians over repeated executions).
    seed:
        Reproducibility seed.

    Returns
    -------
    numpy.ndarray: partition label per node, dense 0..k'-1.
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    n = adj.shape[0]
    if not 1 <= k <= n:
        raise PartitioningError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == 1:
        return np.zeros(n, dtype=int)
    if k == n:
        return np.arange(n, dtype=int)

    rng = ensure_rng(seed)
    z = spectral_embedding(adj, k)
    result = kmeans(z, k, n_init=n_init, seed=rng)
    labels = result.labels

    if not extract_components:
        return _densify(labels)

    # split clusters into connected components (line 11)
    refined = connected_components(adj, labels=labels)
    return _densify(refined)


def _densify(labels: np.ndarray) -> np.ndarray:
    """Relabel to dense 0..k-1 preserving first-appearance order."""
    __, dense = np.unique(labels, return_inverse=True)
    return dense.astype(int)
