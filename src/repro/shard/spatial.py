"""Segment midpoints and a balanced kd-split of the segment set.

:func:`segment_midpoints` places each road-graph node (a segment of the
dual transform) at its segment's midpoint. :func:`spatial_shards` cuts
such points into balanced, spatially compact cells with a recursive
median kd-split: each recursion splits the widest spatial extent at the
point median, so cell sizes differ by at most one and every cell is an
axis-aligned box.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.network.model import RoadNetwork


def segment_midpoints(network: RoadNetwork) -> np.ndarray:
    """Midpoint coordinates of every segment, shape ``(m, 2)``.

    The dual transform maps segment ``i`` to road-graph node ``i``, so
    these midpoints are the road-graph node coordinates.
    """
    ix = np.fromiter(
        (inter.location.x for inter in network.intersections),
        dtype=float,
        count=network.n_intersections,
    )
    iy = np.fromiter(
        (inter.location.y for inter in network.intersections),
        dtype=float,
        count=network.n_intersections,
    )
    src = np.fromiter(
        (seg.source for seg in network.segments),
        dtype=np.int64,
        count=network.n_segments,
    )
    tgt = np.fromiter(
        (seg.target for seg in network.segments),
        dtype=np.int64,
        count=network.n_segments,
    )
    return np.column_stack(
        (0.5 * (ix[src] + ix[tgt]), 0.5 * (iy[src] + iy[tgt]))
    )


def spatial_shards(points, n_shards: int) -> np.ndarray:
    """Balanced recursive kd-split: shard label per point.

    Each recursion splits the current cell along its widest axis at
    the point median (stable argsort, so ties break by index and the
    result is deterministic), sending ``floor(k/2)`` of the ``k``
    shards to the lower half. Shard sizes differ by at most one.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates (``d`` >= 1).
    n_shards:
        Number of shards; must satisfy ``1 <= n_shards <= n``.

    Returns
    -------
    ``(n,)`` int array of shard labels in ``0..n_shards-1``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    if pts.ndim != 2:
        raise GraphError(f"points must be (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    if not 1 <= n_shards <= max(n, 1):
        raise GraphError(
            f"need 1 <= n_shards <= n_points, got n_shards={n_shards}, n={n}"
        )
    labels = np.zeros(n, dtype=np.int64)
    if n_shards == 1:
        return labels

    # iterative worklist instead of recursion: (indices, first, last)
    stack = [(np.arange(n), 0, n_shards)]
    while stack:
        idx, lo, hi = stack.pop()
        count = hi - lo
        if count == 1:
            labels[idx] = lo
            continue
        left = count // 2
        spans = pts[idx].max(axis=0) - pts[idx].min(axis=0)
        axis = int(np.argmax(spans))
        order = np.argsort(pts[idx, axis], kind="stable")
        # proportional cut keeps sizes balanced for any shard count;
        # idx.size >= count guarantees both halves stay non-empty
        cut = (idx.size * left) // count
        stack.append((idx[order[:cut]], lo, lo + left))
        stack.append((idx[order[cut:]], lo + left, hi))
    return labels
