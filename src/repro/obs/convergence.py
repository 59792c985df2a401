"""Solver convergence telemetry: per-iteration series attached to spans.

The iterative kernels of the pipeline — the Lloyd iterations of both
k-means variants and the boundary-refinement sweeps — each converge
(or fail to) over a series of iterations. A counter
("kmeans1d.iterations") says how many; it cannot say *how*: whether
the centre shift stalled, the inertia plateaued early, or the last
sweep still moved half the boundary.

:class:`ConvergenceTrace` is the lightweight record of that *how*: a
solver name, one or more named per-iteration series (centre shifts,
inertia, moves ...), a converged flag and free-form metadata.
Instrumented solvers build one per run and hand it to
:func:`attach_convergence`, which files it on the innermost open span
of the ambient tracer — from where it rides the normal trace exports
(nested JSON and Chrome trace-event ``args``) into
``repro obs analyze`` and the flight-recorder's convergence panes.

Cost model (the obs-overhead bench gates this):

* **disabled** (no tracer, no metrics registry): the instrumented
  solver performs one :func:`convergence_enabled` check — two
  contextvar reads — and skips everything else;
* **enabled**: one small object per solver run plus one float append
  per iteration. Hot callers (the kappa scan runs thousands of 1-D
  k-means fits) are bounded by :data:`MAX_TRACES_PER_SPAN` *before
  any recording happens*: solvers gate trace construction on
  :func:`convergence_wanted`, which returns False once the innermost
  open span is saturated — so the span keeps its first few traces,
  counts the rest in a ``convergence_dropped`` attribute, and the
  thousands of skipped runs cost one capacity check each.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import metrics_enabled
from repro.obs.trace import Span, current_tracer

__all__ = [
    "CONVERGENCE_SCHEMA_VERSION",
    "MAX_TRACES_PER_SPAN",
    "ConvergenceTrace",
    "convergence_enabled",
    "convergence_wanted",
    "attach_convergence",
    "traces_from_attrs",
]

#: Bump when the serialized ConvergenceTrace layout changes incompatibly.
CONVERGENCE_SCHEMA_VERSION = 1

#: A span keeps at most this many attached traces; the rest only bump
#: its ``convergence_dropped`` counter. Guards the kappa scan, which
#: fits thousands of 1-D k-means under a single ``module2.scan`` span.
MAX_TRACES_PER_SPAN = 8


class ConvergenceTrace:
    """Per-iteration telemetry of one iterative-solver run.

    Attributes
    ----------
    solver:
        Solver identifier (``"kmeans_1d"``, ``"kmeans_nd"``,
        ``"boundary_refine"`` ...).
    series:
        Named per-iteration value lists (``{"residual": [...], ...}``);
        series may have different lengths when a solver records some
        quantities less often than others.
    converged:
        Whether the solver met its convergence criterion (None when
        the notion does not apply, e.g. a fixed-budget sweep).
    meta:
        Free-form scalar facts (problem size, tolerance, restart
        index ...).
    """

    __slots__ = ("solver", "series", "converged", "meta")

    def __init__(
        self,
        solver: str,
        series: Optional[Dict[str, List[float]]] = None,
        converged: Optional[bool] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.solver = str(solver)
        self.series: Dict[str, List[float]] = (
            {str(k): [float(x) for x in v] for k, v in series.items()}
            if series
            else {}
        )
        self.converged = converged
        self.meta: Dict[str, Any] = dict(meta) if meta else {}

    @property
    def n_iter(self) -> int:
        """Length of the longest recorded series."""
        return max((len(v) for v in self.series.values()), default=0)

    def record(self, **values: float) -> None:
        """Append one iteration's values, one keyword per series."""
        for name, value in values.items():
            self.series.setdefault(name, []).append(float(value))

    def finish(self, converged: Optional[bool] = None, **meta: Any) -> "ConvergenceTrace":
        """Set the converged flag / extra metadata at solver exit."""
        if converged is not None:
            self.converged = bool(converged)
        if meta:
            self.meta.update(meta)
        return self

    # ------------------------------------------------------------------
    # serialization (JSON round-trip)
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "schema_version": CONVERGENCE_SCHEMA_VERSION,
            "solver": self.solver,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "series": {k: list(v) for k, v in self.series.items()},
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ConvergenceTrace":
        """Rebuild a trace from its :meth:`to_dict` form."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"convergence payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != CONVERGENCE_SCHEMA_VERSION:
            raise ValueError(
                f"convergence payload has schema_version {version!r}, "
                f"expected {CONVERGENCE_SCHEMA_VERSION}"
            )
        series = payload.get("series") or {}
        if not isinstance(series, dict):
            raise ValueError("convergence series must be an object")
        converged = payload.get("converged")
        if converged is not None:
            converged = bool(converged)
        return cls(
            solver=payload.get("solver", "?"),
            series={str(k): [float(x) for x in v] for k, v in series.items()},
            converged=converged,
            meta=dict(payload.get("meta") or {}),
        )

    def __repr__(self) -> str:
        return (
            f"ConvergenceTrace({self.solver!r}, n_iter={self.n_iter}, "
            f"converged={self.converged})"
        )


def convergence_enabled() -> bool:
    """Whether any observability sink is active.

    Instrumented solvers call this once per run; when it returns False
    they build no trace and append nothing — the disabled cost is the
    two contextvar reads below.
    """
    return current_tracer() is not None or metrics_enabled()


def convergence_wanted() -> bool:
    """:func:`convergence_enabled`, plus: the attach target has room.

    Hot solvers (the kappa scan fits thousands of 1-D k-means under a
    single span) call this *before* building a trace. Once the
    innermost open span holds :data:`MAX_TRACES_PER_SPAN` traces this
    returns False — bumping the span's ``convergence_dropped`` counter
    exactly as a late :func:`attach_convergence` would — so a
    saturated span costs one capacity check per solver run instead of
    a full recording.
    """
    tracer = current_tracer()
    if tracer is None:
        return metrics_enabled()
    span = tracer.current
    if span is None:
        return True
    attached = span.attrs.get("convergence")
    if attached is not None and len(attached) >= MAX_TRACES_PER_SPAN:
        span.attrs["convergence_dropped"] = (
            int(span.attrs.get("convergence_dropped", 0)) + 1
        )
        return False
    return True


def attach_convergence(
    trace: ConvergenceTrace, span: Optional[Span] = None
) -> bool:
    """File ``trace`` on the innermost open span of the ambient tracer.

    The trace is stored (as its :meth:`ConvergenceTrace.to_dict` form)
    in the span's ``convergence`` attribute list, from where it rides
    both trace exports. A span keeps at most
    :data:`MAX_TRACES_PER_SPAN` traces; beyond that only its
    ``convergence_dropped`` counter grows. Returns True when the trace
    was stored, False when it was dropped or no span was open
    (metrics-only observability sessions have nowhere to attach).
    """
    if span is None:
        tracer = current_tracer()
        if tracer is None:
            return False
        span = tracer.current
        if span is None:
            return False
    attached = span.attrs.get("convergence")
    if attached is None:
        attached = span.attrs["convergence"] = []
    if len(attached) >= MAX_TRACES_PER_SPAN:
        span.attrs["convergence_dropped"] = (
            int(span.attrs.get("convergence_dropped", 0)) + 1
        )
        return False
    attached.append(trace.to_dict())
    return True


def traces_from_attrs(attrs: Optional[Dict[str, Any]]) -> List[ConvergenceTrace]:
    """Parse the ``convergence`` attribute of a span (dict form).

    Tolerant: entries that fail schema validation are skipped — a
    truncated or foreign trace file must not take the analyzer down.
    """
    out: List[ConvergenceTrace] = []
    if not attrs:
        return out
    entries = attrs.get("convergence")
    if not isinstance(entries, (list, tuple)):
        return out
    for entry in entries:
        try:
            out.append(ConvergenceTrace.from_dict(entry))
        except (ValueError, TypeError):
            continue
    return out
