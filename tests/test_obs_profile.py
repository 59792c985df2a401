"""Tests for repro.obs.profile: sampling profiler, serialisers, gauges.

Covers the deep-profiling pillar end to end — ProfileConfig
validation, a real profiled pipeline run (span CPU/memory attributes,
speedscope + collapsed exports), exact round-trip properties of both
serialisers (hypothesis), the strict speedscope validator's
rejection surface, profile diffing, process gauges in the Prometheus
exposition, the memory-aware bench gate direction, and the CLI surface
(``obs profile`` / ``obs diff``).
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datasets import small_network
from repro.obs import ObsContext, observe_run
from repro.obs.bench import value_direction
from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    ProfileConfig,
    Profiler,
    diff_profiles,
    frame_weights,
    parse_collapsed,
    process_max_rss_bytes,
    process_rss_bytes,
    render_collapsed,
    render_diff,
    sample_process_gauges,
    speedscope_from_stacks,
    stacks_from_speedscope,
    validate_speedscope,
)
from repro.obs.trace import Tracer
from repro.pipeline.framework import SpatialPartitioningFramework


def _profiled_run(hz=500.0, memory=True):
    """One small profiled pipeline run; returns the ObsContext."""
    network, densities = small_network(seed=7)
    obs = ObsContext(
        dataset="small", scheme="ASG",
        profile=ProfileConfig(hz=hz, memory=memory),
    )
    framework = SpatialPartitioningFramework(k=4, scheme="ASG", seed=7, obs=obs)
    framework.partition(network, densities)
    return obs


@pytest.fixture(scope="module")
def profiled_obs():
    return _profiled_run()


class TestProfileConfig:
    def test_defaults(self):
        config = ProfileConfig()
        assert config.cpu and not config.memory
        assert config.hz == 97.0

    @pytest.mark.parametrize("hz", [0, -1, 10_001])
    def test_bad_hz_rejected(self, hz):
        with pytest.raises(ValueError, match="hz"):
            ProfileConfig(hz=hz)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="max_stack_depth"):
            ProfileConfig(max_stack_depth=0)

    def test_nothing_enabled_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            ProfileConfig(cpu=False, memory=False)


class TestProfiledRun:
    def test_samples_collected(self, profiled_obs):
        assert profiled_obs.profiler.n_samples > 0

    def test_span_memory_attributes(self, profiled_obs):
        run_span = profiled_obs.tracer.roots[0]
        assert isinstance(run_span.attrs.get("alloc_bytes"), int)

    def test_span_cpu_attributes_present_in_tree(self, profiled_obs):
        tree = json.dumps(profiled_obs.trace_tree())
        assert "alloc_bytes" in tree
        # at least one span must carry sampled CPU time on a real run
        assert "cpu_self_s" in tree

    def test_cpu_total_covers_self(self, profiled_obs):
        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        for root in profiled_obs.tracer.roots:
            for span in walk(root):
                if "cpu_self_s" in span.attrs:
                    assert span.attrs.get("cpu_total_s", 0) >= span.attrs[
                        "cpu_self_s"
                    ] - 1e-9

    def test_speedscope_document_validates(self, profiled_obs):
        doc = profiled_obs.speedscope()
        assert validate_speedscope(doc)
        assert doc["profiles"]  # at least the main thread

    def test_collapsed_round_trips(self, profiled_obs):
        text = profiled_obs.profiler.collapsed()
        counts = parse_collapsed(text)
        assert counts == profiled_obs.profiler.counts()

    def test_span_pseudo_frames_in_stacks(self, profiled_obs):
        doc = profiled_obs.speedscope()
        frames = {f["name"] for f in doc["shared"]["frames"]}
        assert any(name.startswith("span:") for name in frames)

    def test_profile_dict_summary(self, profiled_obs):
        summary = profiled_obs.profile_dict()
        assert summary["n_samples"] == profiled_obs.profiler.n_samples
        assert summary["memory"] is True
        assert summary["peak_alloc_bytes"] >= 0
        assert all("cpu_self_s" in row for row in summary["span_cpu"])

    def test_registry_gauges_recorded(self, profiled_obs):
        gauges = profiled_obs.metrics_dict()["gauges"]
        assert gauges["profile.samples"] == profiled_obs.profiler.n_samples
        assert gauges["process.peak_alloc_bytes"] > 0

    def test_write_profile_artifacts(self, tmp_path):
        obs = _profiled_run(memory=False)
        speedscope_path = obs.write_profile(tmp_path / "p.speedscope.json")
        collapsed_path = obs.write_collapsed(tmp_path / "p.collapsed.txt")
        doc = json.loads(speedscope_path.read_text())
        assert validate_speedscope(doc)
        assert parse_collapsed(collapsed_path.read_text())

    def test_write_profile_requires_profiling(self):
        obs = ObsContext(dataset="small", scheme="ASG")
        with pytest.raises(ValueError, match="not enabled"):
            obs.write_profile("unused.json")
        assert obs.profile_dict() is None
        assert obs.speedscope() is None

    def test_observe_run_profile_kwarg(self):
        with observe_run(dataset="small", scheme="ASG", profile=True) as obs:
            time.sleep(0.02)
        assert obs.profiler is not None

    def test_framework_profile_kwarg_creates_obs(self):
        network, densities = small_network(seed=3)
        framework = SpatialPartitioningFramework(
            k=3, seed=3, profile=ProfileConfig(hz=500.0)
        )
        framework.partition(network, densities)
        assert framework.obs is not None
        assert framework.obs.profiler.n_samples >= 0
        assert validate_speedscope(framework.obs.speedscope())

    def test_worker_threads_sampled(self):
        """Worker-thread stacks appear under their own thread name."""

        def spin(_):
            deadline = time.perf_counter() + 0.15
            total = 0
            while time.perf_counter() < deadline:
                total += sum(range(200))
            return total

        profiler = Profiler(ProfileConfig(hz=500.0))
        with profiler:
            with ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="test-worker"
            ) as pool:
                list(pool.map(spin, range(4)))
        threads = {stack[0] for stack in profiler.counts()}
        assert any(name.startswith("test-worker") for name in threads)


class TestNestedActivation:
    def test_nested_starts_share_one_session(self):
        profiler = Profiler(ProfileConfig(hz=500.0))
        with profiler:
            with profiler:
                time.sleep(0.02)
            # still active: inner stop must not finalise
            assert profiler._thread is not None
        assert profiler._thread is None
        assert profiler.n_samples >= 0

    def test_sampler_thread_stops(self):
        profiler = Profiler(ProfileConfig(hz=500.0))
        with profiler:
            time.sleep(0.02)
        time.sleep(0.01)
        names = {t.name for t in threading.enumerate()}
        assert "repro-profiler" not in names


# ----------------------------------------------------------------------
# serialiser round trips (property-based)
# frames the collapsed renderer accepts: non-empty, no ';', and no
# character str.splitlines treats as a line boundary
frame_text = st.text(
    alphabet=st.characters(
        blacklist_characters=";", blacklist_categories=("Cs",)
    ),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip() and s.splitlines() == [s])


class TestCollapsedRoundTrip:
    @given(
        counts=st.dictionaries(
            st.lists(frame_text, min_size=1, max_size=6).map(tuple),
            st.integers(min_value=1, max_value=10**9),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_render_parse_identity(self, counts):
        assert parse_collapsed(render_collapsed(counts)) == counts

    def test_repeated_stacks_accumulate(self):
        text = "a;b 2\na;b 3\n"
        assert parse_collapsed(text) == {("a", "b"): 5}

    @pytest.mark.parametrize(
        "bad",
        ["justoneword\n", "a;b notanumber\n", "a;b 0\n", "a;;b 2\n"],
    )
    def test_parse_rejects_malformed_lines(self, bad):
        with pytest.raises(ValueError):
            parse_collapsed(bad)

    @pytest.mark.parametrize(
        "counts",
        [
            {(): 1},
            {("has;semi",): 1},
            {("a",): 0},
            {("a",): True},
            {("",): 1},
        ],
    )
    def test_render_rejects_unrepresentable(self, counts):
        with pytest.raises(ValueError):
            render_collapsed(counts)


class TestSpeedscopeRoundTrip:
    @given(
        stacks=st.dictionaries(
            st.lists(frame_text, min_size=1, max_size=5).map(tuple),
            st.floats(
                min_value=0.0, max_value=1e6, allow_nan=False, width=32
            ),
            min_size=0,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stacks_survive_document(self, stacks):
        doc = speedscope_from_stacks(stacks, name="t")
        recovered = stacks_from_speedscope(doc)["t"] if stacks else {}
        assert set(recovered) == set(stacks)
        for frames, weight in stacks.items():
            assert recovered[frames] == pytest.approx(float(weight))

    def test_document_is_json_stable(self):
        doc = speedscope_from_stacks({("a", "b"): 1.5, ("a",): 0.5})
        assert json.loads(json.dumps(doc)) == doc
        assert validate_speedscope(doc)


class TestValidateSpeedscope:
    def _doc(self):
        return speedscope_from_stacks({("a", "b"): 1.0, ("c",): 2.0})

    def test_accepts_own_output(self):
        assert validate_speedscope(self._doc())

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("$schema"), "schema"),
            (lambda d: d.update(profiles=[]), "profiles"),
            (lambda d: d["shared"].update(frames="x"), "frames"),
            (lambda d: d["shared"]["frames"][0].update(name=""), "name"),
            (lambda d: d["profiles"][0].update(type="evented"), "type"),
            (lambda d: d["profiles"][0].update(unit="fortnights"), "unit"),
            (lambda d: d["profiles"][0].update(startValue=99), "startValue"),
            (lambda d: d["profiles"][0]["samples"].append([77]), "weights"),
            (lambda d: d["profiles"][0]["samples"].__setitem__(0, [99]), "index"),
            (lambda d: d["profiles"][0]["samples"].__setitem__(0, []), "non-empty"),
            (lambda d: d["profiles"][0]["weights"].__setitem__(0, -1.0), "negative"),
            (lambda d: d["profiles"][0]["weights"].__setitem__(0, True), "number"),
            (lambda d: d.update(activeProfileIndex=5), "activeProfileIndex"),
        ],
    )
    def test_rejects_mutations(self, mutate, match):
        doc = self._doc()
        mutate(doc)
        with pytest.raises(ValueError, match=match):
            validate_speedscope(doc)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="object"):
            validate_speedscope([1, 2, 3])


class TestDiff:
    def test_ranked_by_absolute_self_delta(self):
        base = speedscope_from_stacks({("main", "slow"): 1.0, ("main", "ok"): 0.5})
        new = speedscope_from_stacks({("main", "slow"): 4.0, ("main", "ok"): 0.6})
        rows = diff_profiles(base, new)
        assert rows[0]["frame"] == "slow"
        assert rows[0]["delta_s"] == pytest.approx(3.0)
        assert rows[0]["self_base_s"] == pytest.approx(1.0)

    def test_frames_unique_to_either_side(self):
        base = speedscope_from_stacks({("gone",): 2.0})
        new = speedscope_from_stacks({("fresh",): 3.0})
        by_frame = {r["frame"]: r for r in diff_profiles(base, new)}
        assert by_frame["gone"]["delta_s"] == pytest.approx(-2.0)
        assert by_frame["fresh"]["delta_s"] == pytest.approx(3.0)

    def test_render_diff_table(self):
        base = speedscope_from_stacks({("a",): 1.0})
        new = speedscope_from_stacks({("a",): 2.0})
        out = render_diff(diff_profiles(base, new), top=5)
        assert "frame" in out and "a" in out

    def test_frame_weights_self_vs_total(self):
        doc = speedscope_from_stacks({("outer", "inner"): 2.0, ("outer",): 1.0})
        weights = frame_weights(doc)
        assert weights["inner"]["self"] == pytest.approx(2.0)
        assert weights["outer"]["self"] == pytest.approx(1.0)
        assert weights["outer"]["total"] == pytest.approx(3.0)

    def test_recursion_not_double_billed(self):
        doc = speedscope_from_stacks({("f", "f", "f"): 3.0})
        assert frame_weights(doc)["f"]["total"] == pytest.approx(3.0)


class TestProcessGauges:
    def test_rss_helpers_positive_on_linux(self):
        rss = process_rss_bytes()
        peak = process_max_rss_bytes()
        assert rss is None or rss > 0
        assert peak is None or peak > 0

    def test_gauges_land_in_prometheus_exposition(self):
        registry = MetricsRegistry()
        sample_process_gauges(registry)
        text = render_prometheus(registry.to_dict())
        samples, types = parse_prometheus(text)
        names = {s.name for s in samples}
        assert "repro_process_threads" in names
        # gc gauges carry the generation as a label
        gens = {
            s.labels.get("gen")
            for s in samples
            if s.name == "repro_process_gc_collections"
        }
        assert gens >= {"0", "1", "2"}
        assert types.get("repro_process_threads") == "gauge"

    def test_gc_generations_all_present(self):
        registry = MetricsRegistry()
        sample_process_gauges(registry)
        gauges = registry.to_dict()["gauges"]
        for gen in range(3):
            assert f"process.gc_collections[gen={gen}]" in gauges


class TestBenchMemoryGate:
    @pytest.mark.parametrize(
        "key",
        ["x.max_rss_bytes", "peak_alloc_bytes", "pipeline.mem_bytes"],
    )
    def test_memory_keys_gate_lower(self, key):
        assert value_direction(key) == "lower"

    def test_plain_bytes_not_gated(self):
        assert value_direction("payload.size_bytes") is None

    def test_timing_keys_unaffected(self):
        assert value_direction("module2.wall_s") == "lower"
        assert value_direction("scan.speedup") == "higher"


class TestCli:
    def test_obs_profile_emits_artifact_set(self, tmp_path, capsys):
        out_dir = tmp_path / "prof"
        assert main(
            ["obs", "profile", "D1", "-k", "4", "--memory",
             "--out-dir", str(out_dir)]
        ) == 0
        doc = json.loads((out_dir / "profile.speedscope.json").read_text())
        assert validate_speedscope(doc)
        assert parse_collapsed(
            (out_dir / "profile.collapsed.txt").read_text()
        ) is not None
        report = (out_dir / "report.html").read_text()
        assert "cpu flame graph" in report or "CPU profile" in report
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.json").exists()
        assert "profiled D1" in capsys.readouterr().out

    def test_obs_diff(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(speedscope_from_stacks({("a",): 1.0})))
        new.write_text(json.dumps(speedscope_from_stacks({("a",): 3.0})))
        assert main(["obs", "diff", str(base), str(new), "--top", "3"]) == 0
        assert "a" in capsys.readouterr().out

    def test_obs_diff_rejects_invalid_profile(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(speedscope_from_stacks({("a",): 1.0})))
        assert main(["obs", "diff", str(bad), str(good)]) == 1

    def test_obs_report_with_profile(self, tmp_path):
        obs = _profiled_run(memory=False)
        trace = obs.write_trace(tmp_path / "trace.json")
        metrics = obs.write_metrics(tmp_path / "metrics.json")
        profile = obs.write_profile(tmp_path / "p.speedscope.json")
        out = tmp_path / "report.html"
        assert main(
            ["obs", "report", str(trace), str(metrics),
             "-o", str(out), "--profile", str(profile)]
        ) == 0
        assert "cpu flame graph" in out.read_text()


class TestTracerRegistry:
    def test_open_spans_snapshot(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                spans = tracer.open_spans()
                assert [s.name for s in spans] == ["outer", "inner"]
        assert tracer.open_spans() == []

    def test_open_spans_other_thread(self):
        tracer = Tracer()
        seen = {}
        release = threading.Event()
        ready = threading.Event()

        def worker():
            with tracer.span("worker-span"):
                ready.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert ready.wait(timeout=5)
            seen["spans"] = tracer.open_spans(thread.ident)
        finally:
            release.set()
            thread.join()
        assert [s.name for s in seen["spans"]] == ["worker-span"]
