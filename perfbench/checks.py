"""Output checks, written against scipy directly rather than the
program's own helpers so that a bug there cannot hide a bug here."""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def partition_problems(adjacency, labels, k: Optional[int]) -> List[str]:
    """What is wrong with ``labels`` as a partition of the graph.

    Labels must be dense ids ``0..m-1`` with no empty part, every part
    spatially connected, and ``m == k`` when ``k`` is given. An empty
    list means the partition is valid.
    """
    adj = sp.csr_matrix(adjacency)
    lab = np.asarray(labels)
    n = adj.shape[0]
    if lab.shape != (n,):
        return [f"expected {n} labels, got shape {lab.shape}"]
    if lab.min() < 0:
        return ["negative label"]
    m = int(lab.max()) + 1
    problems = []
    if k is not None and m != k:
        problems.append(f"expected {k} partitions, got {m}")
    sizes = np.bincount(lab, minlength=m)
    if (sizes == 0).any():
        problems.append(f"{int((sizes == 0).sum())} empty partition(s)")
    coo = adj.tocoo()
    inside = lab[coo.row] == lab[coo.col]
    within = sp.csr_matrix(
        (np.ones(int(inside.sum())), (coo.row[inside], coo.col[inside])), shape=(n, n)
    )
    n_comp, comp = connected_components(within, directed=False)
    # each non-empty part connected <=> one component per part
    if n_comp != int((sizes > 0).sum()):
        split = [
            int(p)
            for p in np.unique(lab)
            if np.unique(comp[lab == p]).size > 1
        ]
        problems.append(f"partition(s) {split[:5]} not spatially connected")
    return problems
