"""The three workloads.

Every workload follows one cycle: a density snapshot arrives, the
program turns it into partition labels, and the labels are published as
a serving epoch. ``metro`` and ``district`` repartition whole cities
per snapshot and serve nothing; ``serve-drift`` answers open-loop
lookups over HTTP while an :class:`~repro.IncrementalRepartitioner`
publishes an epoch per update.
The program is driven through its public API in its default
configuration, with algorithm seed 0.

``--seed`` draws the request stream (arrival times and segments). The
density snapshots and the drift are one fixed sequence per workload,
drawn from :data:`SNAPSHOT_SEED`: between independent hotspot draws at
the same size, partition time moves by ~20% and GDBI by ~100%
(interquartile range over median, 10 draws of M2-small), wider than
any useful regression bound. Fixed snapshots make every run, and every
later commit, partition the same inputs.

``--seconds`` is the length of the whole run. Each workload subtracts a
nominal cost for process start, its set-ups and (``serve-drift``) the
settling updates, and sizes the measured work from what is left with
nominal costs, not the clock, so one ``--seconds`` always measures the
same units.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import SpatialPartitioningFramework, ans, gdbi, hotspot_profile, load_dataset
from repro.serve import PartitionServer
from repro.shard.spatial import segment_midpoints

import tracing
from checks import partition_problems

# modules whose attributes the traced run replaces; looked up through
# sys.modules because packages re-export functions of the same name
refine_mod = importlib.import_module("repro.core.boundary_refine")
incremental_mod = importlib.import_module("repro.pipeline.incremental")
snapshot_mod = importlib.import_module("repro.serve.snapshot")

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

K = 8
ALGO_SEED = 0
SNAPSHOT_SEED = 0
LIMIT_MS = 10.0  # the serving p99 ceiling
QUALITY_UNITS = 3  # ans / gdbi: mean over the first this-many label sets
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
# offered rates, from the serving figures the repository documents:
# ``low`` is the 10k single lookups/s acceptance floor, ``high`` a quarter
# of the ~200k/s measured single-lookup capacity (docs/serving.md); the
# search for the highest passing rate starts at half of it. At half, a
# slow spell of a 2-vCPU host failed 12% of the lookups offered.
CAPACITY_RATE = 200_000.0
LOW_RATE = 10_000.0
HIGH_RATE = 0.25 * CAPACITY_RATE
SEARCH = {"start": 0.5 * CAPACITY_RATE, "factor": 1.25}
SEARCH_STEPS = 8
UPDATE_INTERVAL_S = 0.5
SETTLE_UPDATES = 8
START_S = 2.0  # nominal interpreter start and imports
TRACE_UNITS = {"metro": 2, "district": 1, "serve-drift": 6}

clock = time.perf_counter
mono = time.monotonic  # shared with the generator process


class Run:
    """Outcome of one benchmark run: checks, samples, spans."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.values: Dict[str, Optional[float]] = {}
        self.recorder: Optional[tracing.Recorder] = None

    def check(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# inputs
def snapshot(network, index: int) -> np.ndarray:
    """Density snapshot ``index`` of the workload's fixed sequence."""
    rng = np.random.default_rng([SNAPSHOT_SEED, index])
    return hotspot_profile(network, n_hotspots=5, seed=rng)


class Drift:
    """Smoothly drifting densities: hotspots orbit and pulse over time.

    The steps are large enough that some regions' mean density moves
    by more than the repartitioner's staleness threshold between
    updates, so every update refreshes stale regions. None of them is
    repartitioned: a refreshed region under 3/16 of the city gets
    ``round(k * share) = 1`` part and skips modules 2-3, so
    ``pipeline.local_partitions`` reads 0 (see NOTES.md).
    """

    def __init__(self, points: np.ndarray, n_hotspots: int = 5) -> None:
        rng = np.random.default_rng([SNAPSHOT_SEED, 0xD21F7])
        lo, hi = points.min(axis=0), points.max(axis=0)
        self.diag = float(np.hypot(*(hi - lo)))
        self.points = points
        self.centres = lo + rng.random((n_hotspots, 2)) * (hi - lo)
        self.centres[0] = points.mean(axis=0)
        self.strengths = 0.12 * np.r_[1.0, rng.uniform(0.4, 0.8, n_hotspots - 1)]
        self.phase = rng.random(n_hotspots) * 2 * np.pi
        self.noise = rng.lognormal(0.0, 0.15, len(points))

    def __call__(self, t: int) -> np.ndarray:
        angle = 0.5 * t + self.phase
        centres = self.centres + 0.1 * self.diag * np.c_[np.cos(angle), np.sin(angle)]
        strengths = self.strengths * (1.0 + 0.8 * np.sin(angle))
        d2 = ((self.points[:, None, :] - centres[None]) ** 2).sum(axis=-1)
        radius = 0.12 * self.diag
        field = (strengths * np.exp(-d2 / (2 * radius**2))).sum(axis=1)
        return (0.005 + field) * self.noise


def warm_up() -> None:
    """Pay lazy imports and first-call costs before anything is timed.

    M1-small is large enough to reach the dense eigensolver, whose first
    call in a process is several times slower than the next.
    """
    network, densities = load_dataset("M1-small")
    SpatialPartitioningFramework(k=4, seed=ALGO_SEED).partition(network, densities)


# ----------------------------------------------------------------------
# serving
class EpochLog:
    """Labels and publish time of every epoch a store publishes."""

    def __init__(self, store) -> None:
        self.labels: Dict[int, np.ndarray] = {}
        self.published_at: Dict[int, float] = {}
        store.subscribe(self._on_publish)

    def _on_publish(self, snap) -> None:
        self.published_at[snap.epoch] = mono()
        # a compact copy: keeping every epoch's int64 vector grew this
        # process by 0.4 MB an update, which showed in peak_rss_mb
        labels = snap.index.labels
        self.labels[snap.epoch] = labels.astype(np.min_scalar_type(int(labels.max())))


def publish(store, labels, points, adjacency, densities) -> None:
    index = snapshot_mod.SegmentIndex(
        labels, points=points, adjacency=adjacency, features=densities
    )
    store.publish(index)


def serve_plan(serving_s: float, search: bool) -> Dict:
    """Phase durations and p99 window for ``serving_s`` of lookups.

    A window lasts one update interval, so that each holds one update,
    and a search step three. The search, if any, takes a fixed time; the
    two fixed rates share the rest.
    """
    step = 3 * UPDATE_INTERVAL_S
    steps = SEARCH_STEPS if search else 0
    fixed = max(1.0, (serving_s - steps * step) / 2)
    return {"fixed": fixed, "steps": steps, "step": step, "window": UPDATE_INTERVAL_S}


def _pin_process(cpus) -> None:
    """Restrict every thread of this process, BLAS pools included, to ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # the thread has exited


def serve_phase(
    run: Run,
    store,
    epochs: EpochLog,
    n_segments: int,
    plan: Dict,
    during: Callable[[threading.Event, threading.Event], float],
) -> Dict:
    """Boot a server on ``store`` and drive it from the generator process.

    ``during(stop, ready)`` runs in a thread of this (the server's)
    process; the generator starts once it sets ``ready``, and it runs
    until ``stop``, returning the CPU seconds it used after ``ready``.
    Returns the generator's report plus the server's CPU time, which is
    this process's CPU time over the generator's run minus that.
    """
    gc.collect()  # not a collection left over from the partition work
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        # the generator gets a CPU of its own, so that the scheduler
        # never stacks it on the server's, which moves latency by 2x
        _pin_process(cpus[:-1])
    handle = PartitionServer(store).start_background()
    spec = {
        "cpu": cpus[-1] if len(cpus) >= 2 else None,
        "warmup_s": 0.5,
        "port": handle.port,
        "connections": CONNECTIONS,
        "n_segments": n_segments,
        "seed": run.seed,
        "limit_ms": LIMIT_MS,
        "sample_every": 97,
        "drain_s": 0.5,
        "window_s": plan["window"],
        "phases": [
            {"name": "low", "rate": LOW_RATE, "seconds": plan["fixed"]},
            {"name": "high", "rate": HIGH_RATE, "seconds": plan["fixed"]},
        ],
        "search": (
            dict(SEARCH, steps=plan["steps"], seconds=plan["step"]) if plan["steps"] else None
        ),
    }
    stop, ready = threading.Event(), threading.Event()
    helper_cpu: List[float] = []
    thread = threading.Thread(
        target=lambda: helper_cpu.append(during(stop, ready)), name="bench-updater"
    )
    proc = None
    try:
        thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("background writer never became ready")
        cpu0 = time.process_time()
        started = mono()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "loadgen.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        out, err = proc.communicate(timeout=120)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        stop.set()
        thread.join()
        handle.stop()
        _pin_process(cpus)
    cpu = time.process_time() - cpu0
    if proc.returncode != 0:
        raise RuntimeError(f"load generator failed: {err.strip()[-500:]}")
    report = json.loads(out)
    report["server_cpu_s"] = cpu - helper_cpu[0]
    report["started_at"] = started

    # sampled answers must match the label vector of the epoch they report
    for phase in report["phases"]:
        if phase["name"] == "search":
            continue  # the search overloads on purpose
        run.attempted += phase["offered"]
        run.failed += phase["failed"]
        if phase["failed"] and len(run.problems) < 20:
            run.problems.append(f"{phase['failed']} failed lookups at {phase['name']} rate")
        for asked, got, region, epoch in phase["samples"]:
            labels = epochs.labels.get(epoch)
            wrong = []
            if labels is None:
                wrong.append(f"epoch {epoch} was never published")
            elif got != asked or labels[asked] != region:
                wrong.append(f"segment {asked}: answered {got}/{region}, epoch says {labels[asked]}")
            run.check("lookup", wrong)
    return report


def record_serving(run: Run, report: Dict, epochs: EpochLog) -> None:
    phases = {p["name"]: p for p in report["phases"]}
    for level in ("low", "high"):
        run.values[f"serve.lookup_p50_ms.{level}"] = phases[level]["p50_ms"]
        run.values[f"serve.lookup_p99_ms.{level}"] = phases[level]["p99_ms"]
    searched = any(p["name"] == "search" for p in report["phases"])
    run.values["serve.max_lookup_rate"] = (report["max_rate"] or 0.0) if searched else None
    answered = sum(p["answered"] for p in report["phases"])
    run.values["serve.cpu_ms_per_klookup"] = (
        report["server_cpu_s"] * 1000.0 / (answered / 1000.0) if answered else None
    )
    run.values["serve.generator_late_ms_p99"] = max(
        phases[level]["late_ms_p99"] for level in ("low", "high")
    )
    run.values["serve.backlog_max"] = max(
        p["backlog_max"] for p in report["phases"] if p["name"] != "search"
    )
    first_seen: Dict[int, float] = {}
    for phase in report["phases"]:
        for epoch, t in phase["first_seen"].items():
            epoch = int(epoch)
            first_seen[epoch] = min(t, first_seen.get(epoch, t))
    # epochs published while lookups were flowing; an answer can carry a
    # new epoch before the publish listener has read the clock
    visible = [
        max(0.0, first_seen[e] - t) * 1000.0
        for e, t in epochs.published_at.items()
        if e in first_seen and t >= report["started_at"]
    ]
    run.values["serve.epoch_visible_ms_p50"] = (
        statistics.median(visible) if visible else None
    )


# ----------------------------------------------------------------------
# metro / district: whole-city repartitioning per snapshot
#: ``setup_s`` and ``unit_s`` are nominal costs of one set-up and one
#: unit: they fix how many units a run makes for a given ``--seconds``,
#: so that every run, and every later commit, times the same snapshots.
#: ``setups`` set-ups give the median ``setup_s``. ``repeats`` times each
#: snapshot's partition that many times. One ``partition_s`` sample is a
#: repeat's mean over every snapshot: snapshots differ in cost by up to
#: 2x, and a median over the pooled partitions jumped between them.
CITY = {
    "metro": {"dataset": "M3", "refine": False, "setups": 3, "setup_s": 2.0,
              "unit_s": 4.2, "repeats": 1},
    "district": {"dataset": "M2-small", "refine": True, "setups": 5, "setup_s": 0.3,
                 "unit_s": 8.0, "repeats": 3},
}


def _city_setup(dataset: str):
    network, __ = load_dataset(dataset)
    points = segment_midpoints(network)
    adjacency = repro.build_road_graph(network).adjacency
    first = snapshot(network, 0)
    warm_up()
    return network, points, adjacency, first


def run_city(run: Run, trace: bool) -> None:
    spec = CITY[run.workload]
    for __ in range(1 if trace else spec["setups"]):
        t0 = clock()
        inputs = _city_setup(spec["dataset"])
        run.sample("setup_s", clock() - t0)
    run.values["setup_s"] = statistics.median(run.samples["setup_s"])
    network, points, adjacency, first = inputs

    def unit(i: int, store, repeats: int):
        """Snapshot ``i`` -> labels -> published epoch.

        Returns the final labels, the partition times, and the time from
        the snapshot to its published epoch (first partition, refinement,
        index build and publish).
        """
        densities = first if i == 0 else snapshot(network, i)
        times = []
        for r in range(repeats):
            framework = SpatialPartitioningFramework(k=K, seed=ALGO_SEED)
            t0 = clock()
            result = framework.partition(network, densities)
            times.append(clock() - t0)
            if r == 0:
                labels, graph = result.labels, framework.last_road_graph
            else:
                run.check("repeat partition", [] if np.array_equal(result.labels, labels) else [
                    f"snapshot {i}: labels changed between identical partition calls"
                ])
        run.check("partition", partition_problems(adjacency, labels, K))
        t1 = clock()
        if spec["refine"]:
            refined = refine_mod.boundary_refine(graph.adjacency, graph.features, labels)
        else:
            refined = labels
        publish(store, refined, points, adjacency, densities)
        t_update = times[0] + clock() - t1
        if spec["refine"]:
            run.check("boundary_refine", partition_problems(adjacency, refined, K))
        return refined, densities, times, t_update

    if trace:
        _trace_city(run, unit)
        return

    store = snapshot_mod.SnapshotStore()
    budget = run.seconds - START_S - spec["setups"] * spec["setup_s"]
    n_units = max(QUALITY_UNITS, int(budget // spec["unit_s"]))
    quality = []
    partition_s = np.zeros((n_units, spec["repeats"]))
    update_s = np.zeros(n_units)
    for i in range(n_units):
        final, densities, partition_s[i], update_s[i] = unit(i, store, spec["repeats"])
        if i < QUALITY_UNITS:
            quality.append((ans(densities, final, adjacency), gdbi(densities, final, adjacency)))
    for t in partition_s.mean(axis=0):
        run.sample("partition_s", float(t))
    # one pass over the snapshots, so one sample: like partition_s, a mean
    # over snapshots whose costs differ, not a median that jumps between them
    run.sample("update_s", float(update_s.mean()))
    run.values["partition_s_p50"] = statistics.median(run.samples["partition_s"])
    run.values["update_s_p50"] = statistics.median(run.samples["update_s"])
    run.values["ans"] = float(np.mean([q[0] for q in quality]))
    run.values["gdbi"] = float(np.mean([q[1] for q in quality]))
    store.close()


def _trace_city(run: Run, unit) -> None:
    n_units = TRACE_UNITS[run.workload]
    plain_store = snapshot_mod.SnapshotStore()
    untraced = []
    t_plain = 0.0
    for i in range(n_units):
        final, __, __, t_update = unit(i, plain_store, 1)
        untraced.append(final)
        t_plain += t_update
    plain_store.close()

    recorder = run.recorder = tracing.Recorder()
    windows = []
    with tracing.Hooks(recorder) as hooks:
        store = snapshot_mod.SnapshotStore()
        t_traced = 0.0
        for i in range(n_units):
            recorder.unit = i
            w0 = clock()
            final, __, __, t_update = unit(i, store, 1)
            windows.append((w0, clock()))
            t_traced += t_update
            run.check("traced labels", [] if np.array_equal(final, untraced[i]) else [
                f"snapshot {i}: traced labels differ from untraced"
            ])
        store.close()
    _finish_trace(run, hooks, t_traced, t_plain, windows)


def _finish_trace(run, hooks, t_traced, t_plain, windows) -> None:
    run.values.update(tracing.layer_metrics(run.recorder, hooks))
    run.values["trace.overhead_frac"] = t_traced / t_plain - 1.0
    wall = sum(b - a for a, b in windows)
    run.values["trace.unattributed_frac"] = (
        tracing.unattributed(run.recorder.spans, windows) / wall
    )
    run.values["trace.missing_hooks"] = sorted(set(hooks.missing))


# ----------------------------------------------------------------------
# serve-drift: lookups beside incremental updates
#: set-ups per run and the nominal cost of one (network, road graph,
#: warm-up, bootstrap); the generator's warm-up, start and drain
DRIFT_SETUPS = 5
DRIFT_SETUP_S = 2.5
GENERATOR_S = 4.5
#: lookups in the traced run, after its offline replay
TRACE_SERVING_S = 16.0

def _drift_setup():
    t0 = clock()
    network, __ = load_dataset("M2")
    graph = repro.build_road_graph(network)
    points = segment_midpoints(network)
    drift = Drift(points)
    warm_up()
    repartitioner = incremental_mod.IncrementalRepartitioner(graph, k=K, seed=ALGO_SEED)
    store = snapshot_mod.SnapshotStore()
    epochs = EpochLog(store)
    snapshot_mod.attach_repartitioner(store, repartitioner, points=points)
    t1 = clock()
    repartitioner.bootstrap(drift(0))  # publishes epoch 1
    t2 = clock()
    return (network, graph, points, drift, repartitioner, store, epochs), t2 - t0, t2 - t1


def _updater(run: Run, repartitioner, drift: Drift, first: int = 1):
    """Apply drift step ``first``, ``first+1``, ... at a fixed cadence.

    Lookups start after :data:`SETTLE_UPDATES` updates, so that they
    meet the steady update cadence a long-running server sees.
    """

    def loop(stop: threading.Event, ready: threading.Event) -> float:
        cpu0 = time.thread_time()
        start = clock()
        step = 0
        while True:
            if step == SETTLE_UPDATES:
                cpu0 = time.thread_time()
                ready.set()
            due = start + (step + 1) * UPDATE_INTERVAL_S
            if stop.wait(max(0.0, due - clock())):
                break
            densities = drift(first + step)
            t0 = clock()
            repartitioner.update(densities)
            run.sample("update_s", clock() - t0)
            step += 1
        return time.thread_time() - cpu0

    return loop


def _check_epochs(run: Run, epochs: EpochLog, adjacency) -> None:
    for epoch in sorted(epochs.labels):
        run.check(f"epoch {epoch}", partition_problems(adjacency, epochs.labels[epoch], None))


def run_serve_drift(run: Run, trace: bool) -> None:
    inputs = None
    for __ in range(1 if trace else DRIFT_SETUPS):
        if inputs is not None:
            inputs[5].close()
        inputs, t_setup, t_boot = _drift_setup()
        run.sample("setup_s", t_setup)
        run.sample("partition_s", t_boot)
    network, graph, points, drift, repartitioner, store, epochs = inputs
    run.values["setup_s"] = statistics.median(run.samples["setup_s"])
    run.values["partition_s_p50"] = statistics.median(run.samples["partition_s"])
    run.check("bootstrap", partition_problems(graph.adjacency, repartitioner.labels, K))

    if trace:
        store.close()
        _trace_drift(run, network, points, drift)
        return

    plan = serve_plan(
        run.seconds - START_S - DRIFT_SETUPS * DRIFT_SETUP_S
        - SETTLE_UPDATES * UPDATE_INTERVAL_S - GENERATOR_S,
        # the search overloads the server on purpose, which moves its
        # buffers (peak RSS by up to 25 MB) and the updates beside it;
        # it runs in the traced run, which reports the serving figures
        search=False,
    )
    report = serve_phase(
        run, store, epochs, network.n_segments, plan, _updater(run, repartitioner, drift)
    )
    record_serving(run, report, epochs)
    updates = run.samples.get("update_s", [])
    if len(updates) < QUALITY_UNITS:
        run.check("updates", [f"only {len(updates)} updates applied"])
        return
    run.values["update_s_p50"] = statistics.median(updates)
    # epoch 1 is the bootstrap; epoch e >= 2 comes from drift step e - 1
    quality = []
    for epoch in range(2, 2 + QUALITY_UNITS):
        labels, d = epochs.labels[epoch], drift(epoch - 1)
        quality.append((ans(d, labels, graph.adjacency), gdbi(d, labels, graph.adjacency)))
    run.values["ans"] = float(np.mean([q[0] for q in quality]))
    run.values["gdbi"] = float(np.mean([q[1] for q in quality]))
    _check_epochs(run, epochs, graph.adjacency)
    store.close()


def _replay(network, drift: Drift, n_updates: int, recorder=None, windows=None):
    """Build, bootstrap and update offline; returns labels and the wall time."""
    labels = []
    t0 = clock()
    graph = repro.build_road_graph(network)
    repartitioner = incremental_mod.IncrementalRepartitioner(graph, k=K, seed=ALGO_SEED)
    repartitioner.bootstrap(drift(0))
    labels.append(repartitioner.labels)
    for step in range(1, n_updates + 1):
        if recorder is not None:
            recorder.unit = step
        repartitioner.update(drift(step))
        labels.append(repartitioner.labels)
    wall = clock() - t0
    if windows is not None:
        windows.append((t0, t0 + wall))
    return repartitioner, labels, wall


def _trace_drift(run: Run, network, points, drift: Drift) -> None:
    n_updates = TRACE_UNITS["serve-drift"]
    __, untraced, t_plain = _replay(network, drift, n_updates)
    recorder = run.recorder = tracing.Recorder()
    windows: List[Tuple[float, float]] = []
    with tracing.Hooks(recorder) as hooks:
        recorder.unit = 0
        repartitioner, traced, t_traced = _replay(network, drift, n_updates, recorder, windows)
        same = all(np.array_equal(a, b) for a, b in zip(traced, untraced))
        run.check("traced labels", [] if same else ["traced update labels differ from untraced"])
        store = snapshot_mod.SnapshotStore()
        epochs = EpochLog(store)
        snapshot_mod.attach_repartitioner(
            store, repartitioner, points=points, bootstrap_densities=drift(n_updates)
        )
        recorder.unit = n_updates + 1
        report = serve_phase(
            run,
            store,
            epochs,
            network.n_segments,
            serve_plan(TRACE_SERVING_S, search=True),
            _updater(run, repartitioner, drift, first=n_updates + 1),
        )
        _check_epochs(run, epochs, repartitioner.graph.adjacency)
        store.close()
    record_serving(run, report, epochs)
    _finish_trace(run, hooks, t_traced, t_plain, windows)


WORKLOADS = {
    "metro": run_city,
    "district": run_city,
    "serve-drift": run_serve_drift,
}


def write_spans(run: Run) -> Optional[str]:
    """Write the traced run's spans under ``out/`` once the run is over."""
    if run.recorder is None:
        return None
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{run.workload}-{run.seed}.json")
    own = tracing.self_times(run.recorder.spans)
    with open(path, "w") as fh:
        json.dump(
            [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self": own[i],
                    "parent": s.parent,
                    "unit": s.unit,
                    "attrs": {k: v for k, v in s.attrs.items() if v is not None},
                }
                for i, s in enumerate(run.recorder.spans)
            ],
            fh,
        )
    return path
