"""Span-attributed deep profiling: CPU stack sampling + memory tracking.

Tracing (:mod:`repro.obs.trace`) answers *which stage* took the time;
this module answers *where inside the stage the cycles and bytes go* —
the paper's Table-3 scalability questions ("what dominates
``module2.scan`` on an 80k-segment network?", "what is peak memory of
an alpha-Cut eigensolve?") need exactly that resolution.

Two collectors, both owned by one :class:`Profiler`:

* **CPU sampling** — a background daemon thread wakes at a
  configurable rate (:attr:`ProfileConfig.hz`), reads every thread's
  Python stack via :func:`sys._current_frames`, and attributes each
  sample to the innermost :class:`~repro.obs.trace.Span` open on that
  thread (the tracer keeps a per-thread span-stack registry for this).
  Pipeline and worker threads are sampled alike. Samples aggregate by
  ``(thread, span path, code frames)`` so memory stays bounded no
  matter how long the run is.
* **Memory tracking** — :mod:`tracemalloc`-based per-span allocation
  deltas (every span closed while profiling carries an
  ``alloc_bytes`` attribute) plus process-wide peaks (traced peak and
  RSS) recorded as gauges on the ambient
  :class:`~repro.obs.metrics.MetricsRegistry`.

Exports:

* :meth:`Profiler.collapsed` — the FlameGraph collapsed-stack text
  format (``frame;frame;frame count``), with
  :func:`render_collapsed` / :func:`parse_collapsed` as the exact
  round-tripping serialiser pair;
* :meth:`Profiler.speedscope` — a speedscope-JSON document (one
  sampled profile per thread, shared frame table), held to the format
  by :func:`validate_speedscope`, the strict validator mirroring
  :func:`repro.obs.trace.validate_chrome_trace`;
* :func:`diff_profiles` — frame-level self/total deltas between two
  speedscope documents, ranked by absolute self-time change (the
  ``repro-partition obs diff`` CLI).

The disabled path costs nothing new: profiling only runs when a
:class:`ProfileConfig` is attached to an
:class:`~repro.obs.ObsContext`, and the only hook in traced code is a
single ``is None`` attribute check inside the tracer's span push/pop
(which itself only runs when tracing is active — one contextvar check
away from the fully-disabled pipeline).

Process-level gauges (:func:`sample_process_gauges`) are shared with
the monitoring layer: ``process.rss_bytes``, ``process.threads`` and
``process.gc_collections[gen=N]`` ride along on every
:class:`~repro.obs.export.MonitoringSession` scrape and ``/metrics``
response.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import tracemalloc
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "SPEEDSCOPE_SCHEMA_URL",
    "ProfileConfig",
    "Profiler",
    "current_profiler",
    "render_collapsed",
    "parse_collapsed",
    "speedscope_from_stacks",
    "stacks_from_speedscope",
    "validate_speedscope",
    "frame_weights",
    "diff_profiles",
    "render_diff",
    "process_rss_bytes",
    "process_max_rss_bytes",
    "sample_process_gauges",
]

#: Bump when the profile_dict layout changes incompatibly.
PROFILE_SCHEMA_VERSION = 1

#: The $schema URL speedscope documents must carry.
SPEEDSCOPE_SCHEMA_URL = "https://www.speedscope.app/file-format-schema.json"

PathLike = Union[str, Path]

#: Units the speedscope "sampled" profile type accepts.
_SPEEDSCOPE_UNITS = (
    "none", "nanoseconds", "microseconds", "milliseconds", "seconds", "bytes",
)


@dataclass
class ProfileConfig:
    """What the profiler should collect.

    Parameters
    ----------
    cpu:
        Run the sampling thread (default True).
    hz:
        Target sampling rate in samples/second. 97 by default — a
        prime, so the sampler cannot phase-lock with periodic work.
    memory:
        Enable :mod:`tracemalloc` span allocation deltas and peak
        tracking. Off by default: tracing every allocation costs real
        time (often 2x on allocation-heavy code), which is why it is a
        separate switch from the cheap CPU sampler.
    max_stack_depth:
        Frames kept per sample, innermost last.
    """

    cpu: bool = True
    hz: float = 97.0
    memory: bool = False
    max_stack_depth: int = 128

    def __post_init__(self) -> None:
        if not (0 < float(self.hz) <= 10_000):
            raise ValueError(f"hz must be in (0, 10000], got {self.hz}")
        if int(self.max_stack_depth) < 1:
            raise ValueError(
                f"max_stack_depth must be >= 1, got {self.max_stack_depth}"
            )
        if not (self.cpu or self.memory):
            raise ValueError("profile config enables neither cpu nor memory")


class Profiler:
    """Collects CPU samples and memory deltas for one observed run.

    Usually owned by an :class:`repro.obs.ObsContext` (pass
    ``profile=ProfileConfig(...)``), which enters/exits it around the
    run; standalone use is a context manager::

        profiler = Profiler(ProfileConfig(hz=200), tracer=tracer)
        with profiler:
            run_pipeline()
        doc = profiler.speedscope()

    Start/stop cycles accumulate (a :class:`MonitoringSession`
    activates its context once per update); sample state is only reset
    by creating a new profiler.
    """

    def __init__(
        self,
        config: Optional[ProfileConfig] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ProfileConfig()
        self.tracer = tracer
        self.registry = registry
        # (thread_name, span-path + code frames) -> [samples, seconds]
        self._samples: Dict[Tuple[str, Tuple[str, ...]], List[float]] = {}
        self._span_cpu: Dict[int, List[Any]] = {}  # id(span) -> [span, s, n]
        self._span_mem: Dict[int, int] = {}  # id(open span) -> alloc at open
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._active = 0  # nested-activation depth
        self._started_tracemalloc = False
        self._ambient_token = None
        self.sampling_s = 0.0  # wall seconds the sampler was running
        self.peak_alloc_bytes = 0

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> "Profiler":
        """Begin collecting; nested calls stack (see :meth:`stop`)."""
        self._active += 1
        if self._active > 1:
            return self
        self._ambient_token = _ACTIVE_PROFILER.set(self)
        if self.config.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            if self.tracer is not None:
                self.tracer.profiler = self
        if self.config.cpu:
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Finish the innermost :meth:`start`; finalises on the last one."""
        if self._active == 0:
            return
        self._active -= 1
        if self._active > 0:
            return
        if self._ambient_token is not None:
            try:
                _ACTIVE_PROFILER.reset(self._ambient_token)
            except ValueError:  # pragma: no cover - stop() from another context
                _ACTIVE_PROFILER.set(None)
            self._ambient_token = None
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.config.memory:
            self.peak_alloc_bytes = max(
                self.peak_alloc_bytes, tracemalloc.get_traced_memory()[1]
            )
            if self.tracer is not None:
                self.tracer.profiler = None
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False
        self._finalize()

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # tracer hooks (memory): called from Tracer._push/_pop on the
    # span's own thread, only while this profiler is attached
    def on_span_open(self, span: Span) -> None:
        current = tracemalloc.get_traced_memory()[0]
        with self._lock:
            self._span_mem[id(span)] = current

    def on_span_close(self, span: Span) -> None:
        current, peak = tracemalloc.get_traced_memory()
        with self._lock:
            opened_at = self._span_mem.pop(id(span), None)
            if peak > self.peak_alloc_bytes:
                self.peak_alloc_bytes = peak
        if opened_at is not None:
            # net allocation delta: negative when the span freed more
            # than it allocated (e.g. releasing a scratch matrix)
            span.attrs["alloc_bytes"] = int(current - opened_at)

    # ------------------------------------------------------------------
    # sampling
    def _sample_loop(self) -> None:
        interval = 1.0 / float(self.config.hz)
        own_ident = threading.get_ident()
        last = time.perf_counter()
        while not self._stop_event.wait(interval):
            now = time.perf_counter()
            weight = now - last
            last = now
            self.sampling_s += weight
            try:
                frames = sys._current_frames()
            except Exception:  # pragma: no cover - CPython always has it
                continue
            names = {t.ident: t.name for t in threading.enumerate()}
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                self._record_sample(
                    names.get(ident, f"thread-{ident}"), ident, frame, weight
                )

    def _record_sample(self, thread_name, ident, frame, weight) -> None:
        stack: List[str] = []
        depth = 0
        limit = int(self.config.max_stack_depth)
        while frame is not None and depth < limit:
            code = frame.f_code
            stack.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
            frame = frame.f_back
            depth += 1
        stack.reverse()  # root first, FlameGraph order

        span = None
        span_path: Tuple[str, ...] = ()
        if self.tracer is not None:
            spans = self.tracer.open_spans(ident)
            if spans:
                span = spans[-1]
                span_path = tuple(f"span:{s.name}" for s in spans)

        key = (str(thread_name), span_path + tuple(stack))
        with self._lock:
            cell = self._samples.get(key)
            if cell is None:
                self._samples[key] = [1, weight]
            else:
                cell[0] += 1
                cell[1] += weight
            if span is not None:
                span_cell = self._span_cpu.get(id(span))
                if span_cell is None:
                    self._span_cpu[id(span)] = [span, weight, 1]
                else:
                    span_cell[1] += weight
                    span_cell[2] += 1

    def _finalize(self) -> None:
        """Write CPU attributes onto spans and gauges onto the registry."""
        with self._lock:
            span_cpu = {k: list(v) for k, v in self._span_cpu.items()}
            n_samples = sum(int(c[0]) for c in self._samples.values())
        for span, seconds, count in span_cpu.values():
            span.attrs["cpu_self_s"] = round(seconds, 6)
            span.attrs["cpu_samples"] = int(count)
        if self.tracer is not None:
            self_s = {key: cell[1] for key, cell in span_cpu.items()}

            def total(span: Span) -> float:
                subtotal = self_s.get(id(span), 0.0) + sum(total(child) for child in span.children)
                if subtotal > 0:
                    span.attrs["cpu_total_s"] = round(subtotal, 6)
                return subtotal

            for root in self.tracer.roots:
                total(root)
        if self.registry is not None:
            self.registry.set_gauge("profile.samples", n_samples)
            self.registry.set_gauge("profile.sampling_s", self.sampling_s)
            if self.config.memory:
                self.registry.set_gauge(
                    "process.peak_alloc_bytes", float(self.peak_alloc_bytes)
                )
                rss = process_max_rss_bytes()
                if rss is not None:
                    self.registry.set_gauge("process.max_rss_bytes", float(rss))

    # ------------------------------------------------------------------
    # exports
    @property
    def n_samples(self) -> int:
        with self._lock:
            return sum(int(cell[0]) for cell in self._samples.values())

    def flame_stacks(self) -> List[Tuple[Tuple[str, ...], float]]:
        """``(frames, seconds)`` pairs, thread name as the root frame."""
        with self._lock:
            return [
                ((thread,) + frames, cell[1])
                for (thread, frames), cell in sorted(self._samples.items())
            ]

    def counts(self) -> Dict[Tuple[str, ...], int]:
        """Aggregated sample counts keyed by full (thread-rooted) stack."""
        with self._lock:
            return {
                (thread,) + frames: int(cell[0])
                for (thread, frames), cell in self._samples.items()
            }

    def collapsed(self) -> str:
        """FlameGraph collapsed-stack text (``frame;frame count`` lines)."""
        return render_collapsed(self.counts())

    def speedscope(self, name: str = "repro profile") -> Dict[str, Any]:
        """Speedscope-JSON document: one sampled profile per thread."""
        by_thread: Dict[str, Dict[Tuple[str, ...], float]] = {}
        with self._lock:
            for (thread, frames), cell in sorted(self._samples.items()):
                by_thread.setdefault(thread, {})[frames] = cell[1]
        if not by_thread:
            by_thread = {"MainThread": {}}

        frame_index: Dict[str, int] = {}
        frames_table: List[Dict[str, str]] = []

        def index_of(frame: str) -> int:
            if frame not in frame_index:
                frame_index[frame] = len(frames_table)
                frames_table.append({"name": frame})
            return frame_index[frame]

        profiles = []
        for thread in sorted(by_thread):
            stacks = by_thread[thread]
            samples = [[index_of(f) for f in frames] for frames in stacks]
            weights = [round(w, 9) for w in stacks.values()]
            profiles.append(
                {
                    "type": "sampled",
                    "name": thread,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": round(sum(weights), 9),
                    "samples": samples,
                    "weights": weights,
                }
            )
        active = max(
            range(len(profiles)),
            key=lambda i: profiles[i]["endValue"],
        )
        return {
            "$schema": SPEEDSCOPE_SCHEMA_URL,
            "name": name,
            "exporter": "repro.obs.profile",
            "activeProfileIndex": active,
            "shared": {"frames": frames_table},
            "profiles": profiles,
        }

    def profile_dict(self) -> Dict[str, Any]:
        """Plain-dict summary: config, totals and per-span CPU table."""
        with self._lock:
            span_rows = [
                {
                    "span": cell[0].name,
                    "cpu_self_s": round(cell[1], 6),
                    "samples": int(cell[2]),
                }
                for cell in self._span_cpu.values()
            ]
        span_rows.sort(key=lambda row: -row["cpu_self_s"])
        out = {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "hz": float(self.config.hz),
            "memory": bool(self.config.memory),
            "n_samples": self.n_samples,
            "sampling_s": round(self.sampling_s, 6),
            "peak_alloc_bytes": int(self.peak_alloc_bytes),
            "span_cpu": span_rows,
        }
        return out

    def write_speedscope(self, path: PathLike, name: str = "repro profile") -> Path:
        import json

        doc = self.speedscope(name=name)
        validate_speedscope(doc)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path

    def write_collapsed(self, path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.collapsed(), encoding="utf-8")
        return path


# ----------------------------------------------------------------------
# contextvar plumbing (mirrors repro.obs.trace / repro.obs.metrics)
_ACTIVE_PROFILER: ContextVar[Optional[Profiler]] = ContextVar(
    "repro_active_profiler", default=None
)


def current_profiler() -> Optional[Profiler]:
    """The profiler whose :meth:`Profiler.start` is active, or None."""
    return _ACTIVE_PROFILER.get()


# ----------------------------------------------------------------------
# collapsed-stack serialisation (exact round trip; property-tested)
def render_collapsed(counts: Dict[Tuple[str, ...], int]) -> str:
    """Serialise ``{frames: count}`` as FlameGraph collapsed-stack text.

    One line per unique stack: frames joined by ``;``, a space, the
    integer sample count. Frames must not contain ``;``, be empty, or
    contain any line-boundary character (everything
    ``str.splitlines`` splits on — ``\\n``, ``\\r``, ``\\x85``,
    ``\\u2028`` ... — not just newline); counts must be positive.
    Enforced here so the emitted text always survives
    :func:`parse_collapsed` unchanged.
    """
    lines = []
    for frames in sorted(counts):
        count = counts[frames]
        if not frames:
            raise ValueError("empty stack cannot be rendered")
        for frame in frames:
            if not frame or ";" in frame or frame.splitlines() != [frame]:
                raise ValueError(f"frame not representable in collapsed text: {frame!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ValueError(f"sample count must be a positive int, got {count!r}")
        lines.append(";".join(frames) + f" {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse collapsed-stack text back to ``{frames: count}``.

    Strict: every non-empty line must be ``frames... <count>``; counts
    for repeated stacks accumulate (FlameGraph semantics).
    """
    counts: Dict[Tuple[str, ...], int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_part, sep, count_part = line.rstrip().rpartition(" ")
        if not sep or not stack_part:
            raise ValueError(f"line {line_no}: not a collapsed-stack line: {line!r}")
        try:
            count = int(count_part)
        except ValueError:
            raise ValueError(
                f"line {line_no}: sample count is not an integer: {count_part!r}"
            ) from None
        if count < 1:
            raise ValueError(f"line {line_no}: sample count must be >= 1, got {count}")
        frames = tuple(stack_part.split(";"))
        if any(not frame for frame in frames):
            raise ValueError(f"line {line_no}: empty frame in stack {stack_part!r}")
        counts[frames] = counts.get(frames, 0) + count
    return counts


# ----------------------------------------------------------------------
# speedscope serialisation helpers + strict validator
def speedscope_from_stacks(
    stacks: Dict[Tuple[str, ...], float],
    name: str = "profile",
    unit: str = "seconds",
) -> Dict[str, Any]:
    """Single-profile speedscope document from ``{frames: weight}``."""
    frame_index: Dict[str, int] = {}
    frames_table: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for frames in sorted(stacks):
        row = []
        for frame in frames:
            if frame not in frame_index:
                frame_index[frame] = len(frames_table)
                frames_table.append({"name": frame})
            row.append(frame_index[frame])
        samples.append(row)
        weights.append(float(stacks[frames]))
    return {
        "$schema": SPEEDSCOPE_SCHEMA_URL,
        "name": name,
        "exporter": "repro.obs.profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames_table},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": unit,
                "startValue": 0,
                "endValue": float(sum(weights)),
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def stacks_from_speedscope(
    doc: Dict[str, Any],
) -> Dict[str, Dict[Tuple[str, ...], float]]:
    """``{profile name: {frames: weight}}`` recovered from a document.

    Weights of identical stacks within one profile accumulate, so this
    is the exact inverse of :func:`speedscope_from_stacks` /
    :meth:`Profiler.speedscope` (both emit pre-aggregated stacks).
    """
    validate_speedscope(doc)
    frames_table = [f["name"] for f in doc["shared"]["frames"]]
    out: Dict[str, Dict[Tuple[str, ...], float]] = {}
    for profile in doc["profiles"]:
        stacks = out.setdefault(str(profile["name"]), {})
        for sample, weight in zip(profile["samples"], profile["weights"]):
            frames = tuple(frames_table[i] for i in sample)
            stacks[frames] = stacks.get(frames, 0.0) + float(weight)
    return out


def validate_speedscope(doc: Any) -> bool:
    """Validate a speedscope-JSON document; raises ValueError when bad.

    Mirrors :func:`repro.obs.trace.validate_chrome_trace`: the subset
    of https://www.speedscope.app/file-format-schema.json this package
    emits (``sampled`` profiles) is checked structurally — frame table,
    index ranges, weight/sample parity, units, value ordering — so the
    CI smoke job asserts real loadability, not "looks like JSON".
    """
    if not isinstance(doc, dict):
        raise ValueError(f"speedscope document must be an object, got {type(doc).__name__}")
    if doc.get("$schema") != SPEEDSCOPE_SCHEMA_URL:
        raise ValueError(f"$schema must be {SPEEDSCOPE_SCHEMA_URL!r}")
    shared = doc.get("shared")
    if not isinstance(shared, dict) or not isinstance(shared.get("frames"), list):
        raise ValueError("document needs shared.frames (a list)")
    frames = shared["frames"]
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(frame.get("name"), str) \
                or not frame["name"]:
            raise ValueError(f"shared.frames[{i}] needs a non-empty string name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("document needs a non-empty profiles list")
    for p, profile in enumerate(profiles):
        if not isinstance(profile, dict):
            raise ValueError(f"profiles[{p}] is not an object")
        if profile.get("type") != "sampled":
            raise ValueError(
                f"profiles[{p}] has unsupported type {profile.get('type')!r}"
            )
        if not isinstance(profile.get("name"), str):
            raise ValueError(f"profiles[{p}] needs a string name")
        if profile.get("unit") not in _SPEEDSCOPE_UNITS:
            raise ValueError(f"profiles[{p}] has invalid unit {profile.get('unit')!r}")
        start, end = profile.get("startValue"), profile.get("endValue")
        if not isinstance(start, (int, float)) or not isinstance(end, (int, float)) \
                or isinstance(start, bool) or isinstance(end, bool) or start > end:
            raise ValueError(f"profiles[{p}] needs numeric startValue <= endValue")
        samples, weights = profile.get("samples"), profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError(f"profiles[{p}] needs samples and weights lists")
        if len(samples) != len(weights):
            raise ValueError(
                f"profiles[{p}]: {len(samples)} samples vs {len(weights)} weights"
            )
        for s, sample in enumerate(samples):
            if not isinstance(sample, list) or not sample:
                raise ValueError(f"profiles[{p}].samples[{s}] must be a non-empty list")
            for idx in sample:
                if not isinstance(idx, int) or isinstance(idx, bool) \
                        or not (0 <= idx < len(frames)):
                    raise ValueError(
                        f"profiles[{p}].samples[{s}] has a bad frame index {idx!r}"
                    )
        for w, weight in enumerate(weights):
            if not isinstance(weight, (int, float)) or isinstance(weight, bool) \
                    or weight < 0:
                raise ValueError(
                    f"profiles[{p}].weights[{w}] must be a non-negative number"
                )
    active = doc.get("activeProfileIndex")
    if active is not None and (
        not isinstance(active, int) or isinstance(active, bool)
        or not (0 <= active < len(profiles))
    ):
        raise ValueError(f"activeProfileIndex {active!r} out of range")
    return True


# ----------------------------------------------------------------------
# profile diffing
def frame_weights(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-frame ``{"self": s, "total": s}`` across a document's profiles.

    Self time goes to the leaf frame of each stack; total time counts
    each frame at most once per stack (recursion does not double-bill).
    """
    out: Dict[str, Dict[str, float]] = {}
    for stacks in stacks_from_speedscope(doc).values():
        for frames, weight in stacks.items():
            leaf = frames[-1]
            entry = out.setdefault(leaf, {"self": 0.0, "total": 0.0})
            entry["self"] += weight
            for frame in set(frames):
                out.setdefault(frame, {"self": 0.0, "total": 0.0})["total"] += weight
    return out


def diff_profiles(
    base: Dict[str, Any], new: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Frame-level deltas between two speedscope documents.

    Returns one row per frame seen in either document —
    ``{"frame", "self_base_s", "self_new_s", "delta_s", "total_base_s",
    "total_new_s"}`` — ranked by absolute self-time delta, largest
    first, so the top of the list is *where the regression lives*.
    """
    base_w = frame_weights(base)
    new_w = frame_weights(new)
    rows = []
    for frame in sorted(set(base_w) | set(new_w)):
        b = base_w.get(frame, {"self": 0.0, "total": 0.0})
        n = new_w.get(frame, {"self": 0.0, "total": 0.0})
        rows.append(
            {
                "frame": frame,
                "self_base_s": round(b["self"], 9),
                "self_new_s": round(n["self"], 9),
                "delta_s": round(n["self"] - b["self"], 9),
                "total_base_s": round(b["total"], 9),
                "total_new_s": round(n["total"], 9),
            }
        )
    rows.sort(key=lambda row: (-abs(row["delta_s"]), row["frame"]))
    return rows


def render_diff(rows: Sequence[Dict[str, Any]], top: int = 20) -> str:
    """Human-readable table of :func:`diff_profiles` rows."""
    header = f"{'delta_s':>12} {'self_base_s':>12} {'self_new_s':>12}  frame"
    lines = [header, "-" * len(header)]
    for row in list(rows)[: max(int(top), 0)]:
        lines.append(
            f"{row['delta_s']:>+12.4f} {row['self_base_s']:>12.4f} "
            f"{row['self_new_s']:>12.4f}  {row['frame']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# process-level gauges (shared with the monitoring layer)
def process_rss_bytes() -> Optional[int]:
    """Current resident-set size of this process, or None when unknown."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    return process_max_rss_bytes()  # macOS & friends: peak is the best we have


def process_max_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process (``ru_maxrss``), or None."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    # Linux reports kilobytes, macOS bytes
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def sample_process_gauges(registry: MetricsRegistry) -> None:
    """Record process-level gauges into ``registry``.

    Sets ``process.rss_bytes``, ``process.max_rss_bytes``,
    ``process.threads`` and per-generation
    ``process.gc_collections[gen=N]`` gauges (plus
    ``process.traced_alloc_bytes`` / ``process.peak_alloc_bytes`` while
    :mod:`tracemalloc` is tracing). Called by
    :meth:`repro.obs.export.MonitoringSession.scrape` and the
    ``/metrics`` endpoint before every render, so scrapers always see
    fresh values.
    """
    rss = process_rss_bytes()
    if rss is not None:
        registry.set_gauge("process.rss_bytes", float(rss))
    peak = process_max_rss_bytes()
    if peak is not None:
        registry.set_gauge("process.max_rss_bytes", float(peak))
    registry.set_gauge("process.threads", float(threading.active_count()))
    for gen, stats in enumerate(gc.get_stats()):
        registry.set_gauge(
            f"process.gc_collections[gen={gen}]", float(stats.get("collections", 0))
        )
    if tracemalloc.is_tracing():
        current, peak_traced = tracemalloc.get_traced_memory()
        registry.set_gauge("process.traced_alloc_bytes", float(current))
        registry.set_gauge("process.peak_alloc_bytes", float(peak_traced))
