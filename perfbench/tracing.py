"""Outside-in tracing: spans recorded around calls into each layer.

The traced run replaces public functions and classes *at the module
where they are looked up* (their import sites) with thin wrappers that
record a span per call, then puts the originals back. Nothing under
``src/`` knows about it. A hook whose target has been renamed or
removed is reported as missing rather than raised, so the untraced
end-to-end measurement never depends on these names.

Self time is computed here, from the spans alone: a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Recorder.spans, -1 for a root
    unit: int = -1  # snapshot / update the span belongs to
    attrs: Dict[str, Any] = field(default_factory=dict)


class Recorder:
    """Collects spans in memory; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self.unit = -1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``after(span, result, args, kwargs)`` may copy counts from the
        return value onto ``span.attrs``.
        """
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, clock(), parent=stack[-1] if stack else -1, unit=self.unit)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(span, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def ancestors(self, index: int) -> List[str]:
        names = []
        parent = self.spans[index].parent
        while parent >= 0:
            names.append(self.spans[parent].name)
            parent = self.spans[parent].parent
        return names


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - union_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def unattributed(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> float:
    """Time inside ``windows`` that no root span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    total = 0.0
    for w_start, w_end in windows:
        inside = [
            (max(a, w_start), min(b, w_end)) for a, b in roots if b > w_start and a < w_end
        ]
        total += (w_end - w_start) - union_length(inside)
    return total


# ----------------------------------------------------------------------
# hooks: (span name, module, attribute, method or None, after)
def _kmeans_after(span, result, args, kwargs):
    span.attrs["n_iter"] = int(result.n_iter)


def _eig_after(span, result, args, kwargs):
    from repro.core.spectral import last_eigensolver_outcome

    outcome = last_eigensolver_outcome() or {}
    span.attrs.update(
        solver=outcome.get("solver"),
        n=outcome.get("n"),
        iterations=outcome.get("iterations"),
    )


def _builder_after(span, result, args, kwargs):
    builder = args[0]
    report = getattr(builder, "report", None)
    span.attrs.update(
        shortlisted=len(report.shortlisted) if report is not None else None,
        chosen_kappa=report.chosen_kappa if report is not None else None,
        n_supernodes=result.n_supernodes,
        n_superlinks=result.adjacency.nnz // 2,
    )


def _alpha_after(span, result, args, kwargs):
    span.attrs["k_prime"] = int(result.k_prime)


def _update_after(span, result, args, kwargs):
    span.attrs.update(
        refreshed=len(result.refreshed), relabelled=int(result.n_relabelled)
    )


def _refine_after(span, result, args, kwargs):
    import numpy as np

    start = kwargs.get("labels", args[2] if len(args) > 2 else None)
    span.attrs["moved"] = int(np.count_nonzero(np.asarray(start) != result))


HOOKS: List[Tuple[str, str, str, Optional[str], Optional[Callable]]] = [
    ("network.build_road_graph", "repro.pipeline.framework", "build_road_graph", None, None),
    ("network.build_road_graph", "repro", "build_road_graph", None, None),
    ("clustering.kappa_scan", "repro.supergraph.builder", "shortlist_kappa", None, None),
    ("clustering.kmeans1d", "repro.clustering.optimality", "kmeans_1d", None, _kmeans_after),
    ("clustering.kmeans1d", "repro.supergraph.builder", "kmeans_1d", None, _kmeans_after),
    ("clustering.kmeans_nd", "repro.core.spectral", "kmeans", None, _kmeans_after),
    ("graph.constrained_components", "repro.supergraph.builder", "count_constrained_components", None, None),
    ("graph.components", "repro.core.spectral", "connected_components", None, None),
    ("supergraph.build", "repro.pipeline.schemes", "SupergraphBuilder", "build", _builder_after),
    ("supergraph.create_supernodes", "repro.supergraph.builder", "create_supernodes", None, None),
    ("supergraph.superlink_weights", "repro.supergraph.builder", "superlink_weights", None, None),
    ("core.alpha_cut", "repro.pipeline.schemes", "AlphaCutPartitioner", "partition", _alpha_after),
    ("core.eigensolve", "repro.core.spectral", "smallest_eigenvectors", None, _eig_after),
    ("core.partition_connectivity", "repro.core.partitioner", "partition_connectivity_matrix", None, None),
    ("core.recursive_bipartition", "repro.core.partitioner", "recursive_bipartition", None, None),
    ("core.repair_connectivity", "repro.core.partitioner", "repair_connectivity", None, None),
    ("core.boundary_refine", "repro.core.boundary_refine", "boundary_refine", None, _refine_after),
    ("pipeline.bootstrap", "repro.pipeline.incremental", "IncrementalRepartitioner", "bootstrap", None),
    ("pipeline.update", "repro.pipeline.incremental", "IncrementalRepartitioner", "update", _update_after),
    ("pipeline.run_scheme", "repro.pipeline.incremental", "run_scheme", None, None),
    ("serve.index_build", "repro.serve.snapshot", "SegmentIndex", "__init__", None),
    ("serve.publish", "repro.serve.snapshot", "SnapshotStore", "publish", None),
]


class Hooks:
    """Install the wrappers for one traced run; restore them after."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.missing: List[str] = []
        #: kmeans_1d's iteration cap, read from its signature
        self.kmeans1d_max_iter: Optional[int] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Hooks":
        for name, module_name, attr, method, after in HOOKS:
            try:
                module = importlib.import_module(module_name)
                target = getattr(module, attr)
                if method is not None:
                    base = getattr(target, method)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if method is None:
                replacement = self.recorder.wrap(name, target, after)
            else:
                replacement = type(
                    target.__name__,
                    (target,),
                    {method: self.recorder.wrap(name, base, after)},
                )
            self._saved.append((module, attr, target))
            setattr(module, attr, replacement)
            if name == "clustering.kmeans1d" and self.kmeans1d_max_iter is None:
                default = inspect.signature(target).parameters.get("max_iter")
                self.kmeans1d_max_iter = None if default is None else default.default
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        first = {}
        for module, attr, original in self._saved:
            first.setdefault((module.__name__, attr), (module, original))
        for (__, attr), (module, original) in first.items():
            if getattr(module, attr) is not original:
                raise RuntimeError(f"hook on {module.__name__}.{attr} not restored")
        self._saved.clear()


# ----------------------------------------------------------------------
# per-layer metrics
LAYER_METRICS: List[Tuple[str, str]] = [
    ("network.build_road_graph_s", "s"),
    ("clustering.kappa_scan_s", "s"),
    ("clustering.kmeans1d_fits", "count"),
    ("clustering.kmeans1d_iters", "count"),
    ("clustering.kmeans1d_capped", "count"),
    ("clustering.kmeans1d_converged_frac", "fraction"),
    ("clustering.kmeans_nd_s", "s"),
    ("clustering.kmeans_nd_iters", "count"),
    ("graph.constrained_components_s", "s"),
    ("graph.components_s", "s"),
    ("supergraph.build_s", "s"),
    ("supergraph.create_supernodes_s", "s"),
    ("supergraph.superlink_weights_s", "s"),
    ("supergraph.shortlisted", "count"),
    ("supergraph.chosen_kappa", "count"),
    ("supergraph.n_supernodes", "count"),
    ("supergraph.n_superlinks", "count"),
    ("core.alpha_cut_s", "s"),
    ("core.eigensolve_embed_s", "s"),
    ("core.eigensolve_bipartition_s", "s"),
    ("core.eigensolve_calls", "count"),
    ("core.eigensolve_dense_calls", "count"),
    ("core.eigensolve_n", "count"),
    ("core.eigensolve_iters", "count"),
    ("core.k_prime", "count"),
    ("core.partition_connectivity_s", "s"),
    ("core.recursive_bipartition_s", "s"),
    ("core.repair_connectivity_s", "s"),
    ("core.boundary_refine_s", "s"),
    ("core.boundary_refine_moved", "count"),
    ("pipeline.update_s", "s"),
    ("pipeline.regions_refreshed", "count"),
    ("pipeline.segments_relabelled", "count"),
    ("pipeline.local_partitions", "count"),
    ("pipeline.local_partition_s", "s"),
    ("serve.index_build_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.epochs_published", "count"),
    ("serve.max_lookup_rate", "1/s"),
    ("serve.lookup_p50_ms.low", "ms"),
    ("serve.lookup_p50_ms.high", "ms"),
    ("serve.lookup_p99_ms.low", "ms"),
    ("serve.lookup_p99_ms.high", "ms"),
    ("serve.epoch_visible_ms_p50", "ms"),
    ("serve.cpu_ms_per_klookup", "ms"),
    ("serve.generator_late_ms_p99", "ms"),
    ("serve.backlog_max", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
]

#: metric -> the hook spans it needs (reported missing without them)
_NEEDS = {
    "network.build_road_graph_s": ["network.build_road_graph"],
    "clustering.kappa_scan_s": ["clustering.kappa_scan"],
    "clustering.kmeans_nd_s": ["clustering.kmeans_nd"],
    "clustering.kmeans_nd_iters": ["clustering.kmeans_nd"],
    "graph.constrained_components_s": ["graph.constrained_components"],
    "graph.components_s": ["graph.components"],
    "supergraph.create_supernodes_s": ["supergraph.create_supernodes"],
    "supergraph.superlink_weights_s": ["supergraph.superlink_weights"],
    "core.alpha_cut_s": ["core.alpha_cut"],
    "core.k_prime": ["core.alpha_cut"],
    "core.partition_connectivity_s": ["core.partition_connectivity"],
    "core.recursive_bipartition_s": ["core.recursive_bipartition"],
    "core.repair_connectivity_s": ["core.repair_connectivity"],
    "core.boundary_refine_s": ["core.boundary_refine"],
    "core.boundary_refine_moved": ["core.boundary_refine"],
    "pipeline.local_partitions": ["pipeline.run_scheme", "pipeline.update"],
    "pipeline.local_partition_s": ["pipeline.run_scheme", "pipeline.update"],
    "serve.index_build_s": ["serve.index_build"],
    "serve.publish_s": ["serve.publish"],
    "serve.epochs_published": ["serve.publish"],
}
for _prefix, _hook in (
    ("clustering.kmeans1d_", "clustering.kmeans1d"),
    ("supergraph.", "supergraph.build"),
    ("core.eigensolve_", "core.eigensolve"),
    ("pipeline.", "pipeline.update"),
):
    for _name, __ in LAYER_METRICS:
        if _name.startswith(_prefix):
            _NEEDS.setdefault(_name, [_hook])


def layer_metrics(recorder: Recorder, hooks: Hooks) -> Dict[str, Optional[float]]:
    """Per-layer totals over every span the recorder holds.

    Times are self times summed over calls. Per-build properties
    (shortlist size, chosen kappa, supergraph size, k') are means over
    the calls that produced them. A metric whose hook is missing is
    None.
    """
    spans = recorder.spans
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name: str) -> float:
        return sum(own[i] for i in by_name.get(name, ()))

    def attr_values(name: str, key: str) -> List[float]:
        return [
            spans[i].attrs[key]
            for i in by_name.get(name, ())
            if spans[i].attrs.get(key) is not None
        ]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    eig = by_name.get("core.eigensolve", [])
    in_bipartition = [
        i for i in eig if "core.recursive_bipartition" in recorder.ancestors(i)
    ]
    local = [
        i
        for i in by_name.get("pipeline.run_scheme", [])
        if "pipeline.update" in recorder.ancestors(i)
    ]
    iters = attr_values("clustering.kmeans1d", "n_iter")
    cap = hooks.kmeans1d_max_iter
    capped = sum(1 for n in iters if cap is not None and n >= cap)

    out: Dict[str, Optional[float]] = {
        "network.build_road_graph_s": total("network.build_road_graph"),
        "clustering.kappa_scan_s": total("clustering.kappa_scan"),
        "clustering.kmeans1d_fits": len(iters),
        "clustering.kmeans1d_iters": sum(iters),
        "clustering.kmeans1d_capped": capped,
        "clustering.kmeans1d_converged_frac": (
            (len(iters) - capped) / len(iters) if iters else 0.0
        ),
        "clustering.kmeans_nd_s": total("clustering.kmeans_nd"),
        "clustering.kmeans_nd_iters": sum(attr_values("clustering.kmeans_nd", "n_iter")),
        "graph.constrained_components_s": total("graph.constrained_components"),
        "graph.components_s": total("graph.components"),
        "supergraph.build_s": total("supergraph.build"),
        "supergraph.create_supernodes_s": total("supergraph.create_supernodes"),
        "supergraph.superlink_weights_s": total("supergraph.superlink_weights"),
        "supergraph.shortlisted": mean(attr_values("supergraph.build", "shortlisted")),
        "supergraph.chosen_kappa": mean(attr_values("supergraph.build", "chosen_kappa")),
        "supergraph.n_supernodes": mean(attr_values("supergraph.build", "n_supernodes")),
        "supergraph.n_superlinks": mean(attr_values("supergraph.build", "n_superlinks")),
        "core.alpha_cut_s": total("core.alpha_cut"),
        "core.eigensolve_embed_s": sum(own[i] for i in eig if i not in in_bipartition),
        "core.eigensolve_bipartition_s": sum(own[i] for i in in_bipartition),
        "core.eigensolve_calls": len(eig),
        "core.eigensolve_dense_calls": sum(
            1 for i in eig if spans[i].attrs.get("solver") == "dense"
        ),
        "core.eigensolve_n": max(attr_values("core.eigensolve", "n"), default=0),
        "core.eigensolve_iters": sum(attr_values("core.eigensolve", "iterations")),
        "core.k_prime": mean(attr_values("core.alpha_cut", "k_prime")),
        "core.partition_connectivity_s": total("core.partition_connectivity"),
        "core.recursive_bipartition_s": total("core.recursive_bipartition"),
        "core.repair_connectivity_s": total("core.repair_connectivity"),
        "core.boundary_refine_s": total("core.boundary_refine"),
        "core.boundary_refine_moved": sum(attr_values("core.boundary_refine", "moved")),
        "pipeline.update_s": total("pipeline.update"),
        "pipeline.regions_refreshed": sum(attr_values("pipeline.update", "refreshed")),
        "pipeline.segments_relabelled": sum(attr_values("pipeline.update", "relabelled")),
        "pipeline.local_partitions": len(local),
        "pipeline.local_partition_s": sum(
            spans[i].end - spans[i].start for i in local
        ),
        "serve.index_build_s": total("serve.index_build"),
        "serve.publish_s": total("serve.publish"),
        "serve.epochs_published": len(by_name.get("serve.publish", [])),
    }
    gone = set(hooks.missing)
    for metric, hooks in _NEEDS.items():
        if metric in out and any(h in gone for h in hooks):
            out[metric] = None
    return out
