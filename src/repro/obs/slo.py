"""Service-level objectives with multi-window error-budget burn rates.

The serving layer (PR 8) asserts hard floors offline — ``>= 10k
lookups/s, p99 < 10 ms`` in ``BENCH_serving.json`` — but a live
``PartitionServer`` needs the *online* form of the same contract: a
declarative objective ("99.9% of lookups answered", "99% faster than
10 ms") evaluated continuously against recent traffic, with the
standard SRE error-budget framing:

    burn_rate = observed_error_rate / (1 - objective)

A burn rate of 1.0 means the service is consuming its error budget
exactly as fast as the objective allows; sustained burn above the
threshold over *every* configured window (the classic multi-window
guard against flapping on short bursts) marks the objective
``burning``.

:class:`SLOTracker` keeps per-second good/bad ring buckets sized to
the longest window, so :meth:`record` is O(1) per call; the server
makes one pair of calls per merged request window (see
:mod:`repro.serve.server`). :meth:`export_gauges`
publishes ``slo.*`` gauges into a :class:`MetricsRegistry` (scraped at
``/metrics``), and :meth:`to_dict` is the payload behind the server's
``/slo`` endpoint and ``repro obs slo``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DataError

__all__ = ["SLObjective", "SLOTracker", "default_objectives"]

_KINDS = ("availability", "latency")


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective.

    Attributes
    ----------
    name:
        Stable identifier; becomes the ``slo=...`` label on gauges.
    kind:
        ``"availability"`` (a request is good when it succeeded) or
        ``"latency"`` (good when it succeeded *and* finished within
        ``threshold_s``).
    objective:
        Target good fraction in (0, 1), e.g. 0.999.
    threshold_s:
        Latency threshold in seconds; required for ``kind="latency"``.
    windows_s:
        Evaluation windows in seconds, shortest first. The objective is
        ``burning`` only when every window with traffic exceeds
        ``burn_threshold`` — the multi-window rule.
    burn_threshold:
        Burn rate above which a window counts as burning (1.0 = budget
        consumed exactly at the sustainable rate).
    """

    name: str
    kind: str
    objective: float
    threshold_s: Optional[float] = None
    windows_s: Tuple[float, ...] = (60.0, 300.0)
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DataError(f"SLO kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise DataError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency":
            if self.threshold_s is None or self.threshold_s <= 0:
                raise DataError(
                    "latency objectives need a positive threshold_s, "
                    f"got {self.threshold_s}"
                )
        if not self.windows_s or any(w <= 0 for w in self.windows_s):
            raise DataError(f"windows_s must be positive, got {self.windows_s}")
        if self.burn_threshold <= 0:
            raise DataError(
                f"burn_threshold must be positive, got {self.burn_threshold}"
            )

    @property
    def budget(self) -> float:
        """The error budget: allowed bad fraction (``1 - objective``)."""
        return 1.0 - self.objective

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "windows_s": list(self.windows_s),
            "burn_threshold": self.burn_threshold,
        }
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        return out


class _Ring:
    """Per-second good/bad counts over the last N seconds, O(1) record."""

    __slots__ = ("size", "good", "bad", "stamp")

    def __init__(self, horizon_s: float) -> None:
        self.size = int(math.ceil(horizon_s)) + 1
        self.good = [0] * self.size
        self.bad = [0] * self.size
        self.stamp = [-1] * self.size

    def add(self, now: float, good: int, bad: int) -> None:
        sec = int(now)
        idx = sec % self.size
        if self.stamp[idx] != sec:
            self.stamp[idx] = sec
            self.good[idx] = 0
            self.bad[idx] = 0
        self.good[idx] += good
        self.bad[idx] += bad

    def window(self, now: float, window_s: float) -> Tuple[int, int]:
        """(good, bad) totals over the trailing ``window_s`` seconds."""
        sec = int(now)
        span = min(int(math.ceil(window_s)), self.size - 1)
        good = bad = 0
        for back in range(span + 1):
            idx = (sec - back) % self.size
            if self.stamp[idx] == sec - back:
                good += self.good[idx]
                bad += self.bad[idx]
        return good, bad


class SLOTracker:
    """Tracks request outcomes against a set of :class:`SLObjective`.

    Thread-safe; ``clock`` is injectable for deterministic tests
    (defaults to :func:`time.monotonic`).
    """

    def __init__(
        self,
        objectives: Sequence[SLObjective],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not objectives:
            raise DataError("SLOTracker needs at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate objective names: {names}")
        self.objectives: Tuple[SLObjective, ...] = tuple(objectives)
        self._clock = clock
        self._lock = threading.Lock()
        horizon = max(max(o.windows_s) for o in self.objectives)
        self._rings: Dict[str, _Ring] = {
            o.name: _Ring(horizon) for o in self.objectives
        }

    # ------------------------------------------------------------------
    def record(self, latency_s: float, ok: bool = True, n: int = 1) -> None:
        """Record ``n`` requests that shared one outcome and latency.

        The server calls this once per merged request window (all
        requests of a window share its mean per-request latency), so
        the cost is O(objectives) per *window*, not per request.
        """
        if n <= 0:
            return
        now = self._clock()
        with self._lock:
            for objective in self.objectives:
                good = ok
                if good and objective.kind == "latency":
                    good = latency_s <= objective.threshold_s
                ring = self._rings[objective.name]
                ring.add(now, n if good else 0, 0 if good else n)

    # ------------------------------------------------------------------
    def evaluate(self) -> List[Dict[str, Any]]:
        """Per-objective burn state across every configured window.

        An objective is ``burning`` when *all* of its windows have seen
        traffic and each one's burn rate exceeds ``burn_threshold``.
        ``budget_remaining`` is computed over the longest window:
        ``1 - bad_fraction / budget`` (clamped at 0; 1.0 when idle).
        """
        now = self._clock()
        results: List[Dict[str, Any]] = []
        with self._lock:
            for objective in self.objectives:
                ring = self._rings[objective.name]
                windows: List[Dict[str, Any]] = []
                burning = True
                for window_s in objective.windows_s:
                    good, bad = ring.window(now, window_s)
                    total = good + bad
                    error_rate = bad / total if total else 0.0
                    burn = error_rate / objective.budget if total else 0.0
                    windows.append(
                        {
                            "window_s": window_s,
                            "good": good,
                            "bad": bad,
                            "error_rate": error_rate,
                            "burn_rate": burn,
                        }
                    )
                    if total == 0 or burn <= objective.burn_threshold:
                        burning = False
                longest = windows[-1]
                total = longest["good"] + longest["bad"]
                if total:
                    remaining = 1.0 - longest["error_rate"] / objective.budget
                else:
                    remaining = 1.0
                results.append(
                    {
                        "objective": objective.to_dict(),
                        "windows": windows,
                        "burning": burning,
                        "budget_remaining": max(0.0, remaining),
                    }
                )
        return results

    def burning(self) -> bool:
        """True when any objective is currently burning."""
        return any(entry["burning"] for entry in self.evaluate())

    # ------------------------------------------------------------------
    def export_gauges(self, registry) -> None:
        """Publish the burn state as ``slo.*`` gauges into ``registry``.

        Families (all labelled with ``slo=<name>``):

        * ``slo.burn_rate[slo=...,window=...s]`` — per-window burn rate;
        * ``slo.error_budget_remaining[slo=...]`` — longest-window
          budget fraction left;
        * ``slo.burning[slo=...]`` — 1.0 when the multi-window rule
          fires, else 0.0.
        """
        for entry in self.evaluate():
            name = entry["objective"]["name"]
            for window in entry["windows"]:
                registry.set_gauge(
                    f"slo.burn_rate[slo={name},window={window['window_s']:g}s]",
                    window["burn_rate"],
                )
            registry.set_gauge(
                f"slo.error_budget_remaining[slo={name}]",
                entry["budget_remaining"],
            )
            registry.set_gauge(
                f"slo.burning[slo={name}]", 1.0 if entry["burning"] else 0.0
            )

    def to_dict(self) -> Dict[str, Any]:
        """The ``/slo`` endpoint payload."""
        evaluation = self.evaluate()
        return {
            "enabled": True,
            "burning": any(e["burning"] for e in evaluation),
            "objectives": evaluation,
        }


def default_objectives(
    latency_threshold_s: float,
    availability: float = 0.999,
    latency_objective: float = 0.99,
    windows_s: Tuple[float, ...] = (60.0, 300.0),
) -> List[SLObjective]:
    """The serving layer's standard pair of objectives.

    ``repro serve --slo-latency-ms N`` builds these: an availability
    objective (99.9% of requests answered successfully) and a latency
    objective (99% of successful requests within the threshold — the
    online analogue of the ``p99 < 10 ms`` bench floor).
    """
    return [
        SLObjective(
            name="availability",
            kind="availability",
            objective=availability,
            windows_s=windows_s,
        ),
        SLObjective(
            name="latency",
            kind="latency",
            objective=latency_objective,
            threshold_s=latency_threshold_s,
            windows_s=windows_s,
        ),
    ]
