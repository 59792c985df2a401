"""Boundary refinement: local post-processing of any partitioning.

Ji & Geroliminis follow their normalized-cut stage with a boundary
adjustment step, and the paper credits it with improving their
partitions beyond plain NG. The same idea applies to *any* labelling,
so it is exposed here as a standalone refinement: sweep the boundary
segments and move each to an adjacent partition when that brings its
density strictly closer to the destination's mean, unless the move
would disconnect or empty the partition it leaves. Used by the
``test_ablation_boundary.py`` bench to quantify what the adjustment
buys each scheme.

Connectivity test. Moving ``u`` out of a *connected* partition P
leaves ``P \\ {u}`` connected iff u's neighbours inside P can still
reach each other without passing through u: every other node of P
reaches u, so it reaches one of those neighbours first. The check is
therefore a search restricted to ``P \\ {u}`` that stops as soon as
those neighbours are known to be mutually reachable, or one of them
is known to be cut off; with zero or one such neighbour the move is
always safe. It runs one breadth-first search per neighbour in
lockstep, so a move costs the region explored — for an accepted move
the few rings around u the searches cover before they meet, for a
rejected one u's degree times the smallest piece u would cut off —
instead of the O(n) scan and search of the whole partition.

The rule needs P to be connected before the move. Which partitions
are connected is computed once on entry; a partition handed in
disconnected (a user labelling, or the JG merge step) falls back to
the global test — is the rest of P one component — until a move makes
it connected. Connected partitions stay connected: they only gain
adjacent nodes and only lose nodes the local test allowed.

:func:`boundary_refine_reference` keeps the original global test on
every move and serves as the test oracle; both visit nodes in the same
order and accept the same moves, so their labels are identical.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitioningError
from repro.graph.components import connected_components, is_connected
from repro.obs.convergence import (
    ConvergenceTrace,
    attach_convergence,
    convergence_wanted,
)
from repro.obs.metrics import incr
from repro.obs.trace import current_tracer


def _validated(adjacency, features, labels, max_sweeps, min_improvement):
    adj = sp.csr_matrix(adjacency)
    feats = np.asarray(features, dtype=float)
    lab = np.asarray(labels, dtype=int).copy()
    n = adj.shape[0]
    if feats.shape != (n,):
        raise PartitioningError(
            f"features must have shape ({n},), got {feats.shape}"
        )
    if lab.shape != (n,):
        raise PartitioningError(f"labels must have shape ({n},), got {lab.shape}")
    if max_sweeps < 0:
        raise PartitioningError(f"max_sweeps must be >= 0, got {max_sweeps}")
    if min_improvement < 0:
        raise PartitioningError(
            f"min_improvement must be >= 0, got {min_improvement}"
        )
    return adj, feats, lab, n


def _connected_parts(adj: sp.csr_matrix, lab: np.ndarray, k: int) -> list:
    """Per partition id: is the partition one connected piece?"""
    comp = connected_components(adj, labels=lab)
    comp_part = np.zeros(int(comp.max()) + 1, dtype=int)
    comp_part[comp] = lab
    return (np.bincount(comp_part, minlength=k) <= 1).tolist()


def _stays_connected(u, same, nbrs, part_of, part) -> bool:
    """Do ``same`` (u's neighbours in ``part``) still reach each other
    inside ``part`` once u is removed?

    One breadth-first search per neighbour, advanced a node at a time
    in turn. A search that reaches a node another one owns absorbs
    that search; when one search is left, the neighbours are mutually
    reachable. A search that runs dry first has explored a whole piece
    of ``part`` that u cuts off. The work is bounded by ``len(same)``
    times the smaller of that piece and the region explored before
    the searches meet.
    """
    owner = {u: -1}  # node -> search that reached it first; u is closed
    absorbed = {}  # absorbed search -> the search that absorbed it
    queues = {}  # live search -> its FIFO queue
    heads = {}  # live search -> index of its next node to expand
    for i, start in enumerate(same):
        if start not in owner:
            owner[start] = i
            queues[i] = [start]
            heads[i] = 0
    if len(queues) < 2:
        return True
    while True:
        for i in list(queues):
            queue = queues.get(i)
            if queue is None:
                continue  # absorbed earlier in this round
            head = heads[i]
            if head == len(queue):
                return False
            heads[i] = head + 1
            for y in nbrs[queue[head]]:
                if part_of[y] != part:
                    continue
                other = owner.get(y)
                if other is None:
                    owner[y] = i
                    queue.append(y)
                elif other >= 0:
                    while other in absorbed:
                        other = absorbed[other]
                    if other != i:
                        absorbed[other] = i
                        queue.extend(queues.pop(other)[heads.pop(other) :])
                        if len(queues) == 1:
                            return True


def boundary_refine(
    adjacency,
    features,
    labels,
    max_sweeps: int = 10,
    min_improvement: float = 0.0,
) -> np.ndarray:
    """Move boundary nodes to better-matching adjacent partitions.

    Parameters
    ----------
    adjacency:
        Road-graph adjacency (symmetric sparse/dense).
    features:
        Per-node densities.
    labels:
        Starting partition labels (dense ids).
    max_sweeps:
        Maximum full passes over the nodes; stops early when a sweep
        moves nothing.
    min_improvement:
        A move requires the density gap to the destination mean to be
        smaller than the gap to the current mean by more than this
        amount (0 = any strict improvement).

    Returns
    -------
    numpy.ndarray: refined labels; partition count and connectivity
    are preserved. When a tracer is active the call runs under a
    ``boundary_refine`` span carrying ``n``, ``k``, ``sweeps`` and
    ``moves``, with the convergence trace attached to it.
    """
    adj, feats, lab, n = _validated(
        adjacency, features, labels, max_sweeps, min_improvement
    )
    k = int(lab.max()) + 1
    tracer = current_tracer()
    active = (
        tracer.span("boundary_refine", n=n, k=k)
        if tracer is not None
        else nullcontext()
    )
    with active as span:  # nullcontext yields None; tracer.span a Span
        sweeps, total_moves = _refine(
            adj, feats, lab, n, k, max_sweeps, min_improvement
        )
        if span is not None:
            span.attrs.update(sweeps=sweeps, moves=total_moves)
    return lab


def _refine(adj, feats, lab, n, k, max_sweeps, min_improvement):
    """The sweeps of :func:`boundary_refine`; relabels ``lab`` in place
    and returns ``(sweeps, total_moves)``."""
    sizes = np.bincount(lab, minlength=k).astype(float).tolist()
    sums = np.bincount(lab, weights=feats, minlength=k).tolist()
    indptr, indices = adj.indptr, adj.indices
    nbrs = [indices[indptr[u] : indptr[u + 1]].tolist() for u in range(n)]
    part_of = lab.tolist()
    density = feats.tolist()
    connected = _connected_parts(adj, lab, k)

    conv = (
        ConvergenceTrace(
            "boundary_refine",
            meta={"n": n, "k": k, "max_sweeps": max_sweeps},
        )
        if convergence_wanted()
        else None
    )

    total_moves = 0
    sweeps = 0
    moved = 0
    for __ in range(max_sweeps):
        sweeps += 1
        moved = 0
        for u in range(n):
            current = part_of[u]
            if sizes[current] <= 1:
                continue  # never empty a partition
            neighbour_parts = {
                part_of[v] for v in nbrs[u] if part_of[v] != current
            }
            if not neighbour_parts:
                continue

            x = density[u]
            gap_cur = abs(x - sums[current] / sizes[current])
            best_part, best_gap = current, gap_cur
            for p in neighbour_parts:
                gap = abs(x - sums[p] / sizes[p])
                if gap < best_gap - min_improvement:
                    best_part, best_gap = p, gap
            if best_part == current:
                continue

            if connected[current]:
                same = [v for v in nbrs[u] if part_of[v] == current and v != u]
                if not _stays_connected(u, same, nbrs, part_of, current):
                    continue  # the move would disconnect the source
            else:
                remaining = np.flatnonzero(lab == current)
                remaining = remaining[remaining != u]
                if not is_connected(adj, remaining):
                    continue  # the move would leave the source disconnected
                connected[current] = True

            part_of[u] = best_part
            lab[u] = best_part
            sizes[current] -= 1
            sums[current] -= x
            sizes[best_part] += 1
            sums[best_part] += x
            if not connected[best_part]:
                connected[best_part] = is_connected(
                    adj, np.flatnonzero(lab == best_part)
                )
            moved += 1
        total_moves += moved
        if conv is not None:
            conv.record(moves=moved)
        if moved == 0:
            break
    incr("boundary_refine.calls")
    incr("boundary_refine.sweeps", sweeps)
    incr("boundary_refine.moves", total_moves)
    if conv is not None:
        conv.finish(converged=moved == 0 or max_sweeps == 0, total_moves=total_moves)
        attach_convergence(conv)
    return sweeps, total_moves


def boundary_refine_reference(
    adjacency,
    features,
    labels,
    max_sweeps: int = 10,
    min_improvement: float = 0.0,
) -> np.ndarray:
    """Reference :func:`boundary_refine`: a global connectivity test
    (scan the source partition, BFS its induced subgraph) on every
    candidate move, O(n) each. Kept only as the test oracle."""
    adj, feats, lab, n = _validated(
        adjacency, features, labels, max_sweeps, min_improvement
    )

    k = int(lab.max()) + 1
    sizes = np.bincount(lab, minlength=k).astype(float)
    sums = np.bincount(lab, weights=feats, minlength=k)
    indptr, indices = adj.indptr, adj.indices

    conv = (
        ConvergenceTrace(
            "boundary_refine",
            meta={"n": n, "k": k, "max_sweeps": max_sweeps},
        )
        if convergence_wanted()
        else None
    )

    total_moves = 0
    sweeps = 0
    moved = 0
    for __ in range(max_sweeps):
        sweeps += 1
        moved = 0
        for u in range(n):
            current = int(lab[u])
            if sizes[current] <= 1:
                continue  # never empty a partition
            neighbour_parts = {
                int(lab[v])
                for v in indices[indptr[u] : indptr[u + 1]]
                if lab[v] != current
            }
            if not neighbour_parts:
                continue

            mean_cur = sums[current] / sizes[current]
            gap_cur = abs(feats[u] - mean_cur)
            best_part, best_gap = current, gap_cur
            for p in neighbour_parts:
                mean_p = sums[p] / sizes[p]
                gap = abs(feats[u] - mean_p)
                if gap < best_gap - min_improvement:
                    best_part, best_gap = p, gap
            if best_part == current:
                continue

            remaining = np.flatnonzero(lab == current)
            remaining = remaining[remaining != u]
            if remaining.size and not is_connected(adj, remaining):
                continue  # the move would disconnect the source

            lab[u] = best_part
            sizes[current] -= 1
            sums[current] -= feats[u]
            sizes[best_part] += 1
            sums[best_part] += feats[u]
            moved += 1
        total_moves += moved
        if conv is not None:
            conv.record(moves=moved)
        if moved == 0:
            break
    incr("boundary_refine.calls")
    incr("boundary_refine.sweeps", sweeps)
    incr("boundary_refine.moves", total_moves)
    if conv is not None:
        conv.finish(converged=moved == 0 or max_sweeps == 0, total_moves=total_moves)
        attach_convergence(conv)
    return lab
