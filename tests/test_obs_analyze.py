"""Tests for repro.obs.analyze: critical paths and per-stage self time.

Built around hand-crafted span trees whose critical path and self
times are known in closed form, fed through all three
input adapters (live Tracer, nested JSON, Chrome events) to pin the
format-independence contract, plus the strict ``validate_analysis``
rejection surface, a hypothesis round trip for the report document,
and the ``repro obs analyze`` CLI.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import DataError
from repro.obs.analyze import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    analyze_trace,
    validate_analysis,
)
from repro.obs.convergence import ConvergenceTrace
from repro.obs.trace import Tracer


# ----------------------------------------------------------------------
# synthetic trace builders
def _span(name, start, dur, children=(), attrs=None):
    return {
        "name": name,
        "start_s": float(start),
        "duration_s": float(dur),
        "attrs": attrs or {},
        "children": list(children),
    }


def _nested(*roots):
    total = max(s["start_s"] + s["duration_s"] for s in roots)
    return {"epoch_unix_s": 0.0, "total_s": total, "spans": list(roots)}


def _chrome_events(span, pid=0, tid=0, out=None):
    """Nested span dict -> flat Chrome complete events (ts/dur in us)."""
    if out is None:
        out = []
    out.append(
        {
            "ph": "X",
            "name": span["name"],
            "ts": span["start_s"] * 1e6,
            "dur": span["duration_s"] * 1e6,
            "pid": pid,
            "tid": tid,
            "args": span["attrs"],
        }
    )
    for child in span["children"]:
        _chrome_events(child, pid=pid, tid=tid, out=out)
    return out


def _serial_pipeline():
    """run(10s) -> module1(2) | module2(5, eigensolve 4 inside) | module3(3).

    Fully serial: every self time is known and they sum to the wall.
    """
    return _nested(
        _span(
            "run",
            0.0,
            10.0,
            children=[
                _span("module1", 0.0, 2.0),
                _span(
                    "module2",
                    2.0,
                    5.0,
                    children=[_span("eigensolve", 2.5, 4.0)],
                ),
                _span("module3", 7.0, 3.0),
            ],
        )
    )


# ----------------------------------------------------------------------
# critical path + self time on a known tree
class TestSerialAnalysis:
    def test_critical_path_is_longest_child_chain(self):
        report = analyze_trace(_serial_pipeline())
        names = [entry["name"] for entry in report.critical_path]
        assert names == ["run", "module2", "eigensolve"]
        assert [entry["depth"] for entry in report.critical_path] == [0, 1, 2]

    def test_self_times_sum_to_wall(self):
        report = analyze_trace(_serial_pipeline())
        self_by_name = {s["name"]: s["self_s"] for s in report.stages}
        assert self_by_name["run"] == pytest.approx(0.0)
        assert self_by_name["module1"] == pytest.approx(2.0)
        assert self_by_name["module2"] == pytest.approx(1.0)  # 5 - 4
        assert self_by_name["eigensolve"] == pytest.approx(4.0)
        assert self_by_name["module3"] == pytest.approx(3.0)
        assert report.wall_s == pytest.approx(10.0)
        assert report.coverage == pytest.approx(1.0)

    def test_targets_ranked_by_self_time(self):
        report = analyze_trace(_serial_pipeline())
        names = [t["name"] for t in report.targets]
        assert names[0] == "eigensolve"
        assert names[1] == "module3"
        assert [t["rank"] for t in report.targets] == list(
            range(1, len(names) + 1)
        )
        assert "on the critical path" in report.targets[0]["reasons"]

    def test_serial_trace_has_no_parallel_regions(self):
        # schema 2 carries no parallel-region model at all
        payload = analyze_trace(_serial_pipeline()).to_dict()
        assert payload["schema_version"] == 2
        assert "parallel" not in payload and "amdahl" not in payload

    def test_top_truncates_targets(self):
        report = analyze_trace(_serial_pipeline(), top=2)
        assert len(report.targets) == 2


# ----------------------------------------------------------------------
# the three input formats agree
class TestInputFormats:
    def test_nested_vs_chrome_identical(self):
        nested = _serial_pipeline()
        chrome = {
            "traceEvents": _chrome_events(nested["spans"][0]),
            "displayTimeUnit": "ms",
        }
        from_nested = analyze_trace(nested)
        from_chrome = analyze_trace(chrome)
        assert [e["name"] for e in from_nested.critical_path] == [
            e["name"] for e in from_chrome.critical_path
        ]
        nested_self = {s["name"]: s["self_s"] for s in from_nested.stages}
        chrome_self = {s["name"]: s["self_s"] for s in from_chrome.stages}
        assert set(nested_self) == set(chrome_self)
        for name in nested_self:
            assert nested_self[name] == pytest.approx(chrome_self[name])

    def test_bare_event_list_accepted(self):
        events = _chrome_events(_serial_pipeline()["spans"][0])
        report = analyze_trace(events)
        assert report.n_spans == 5

    def test_live_tracer_accepted(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("stage_a"):
                pass
            with tracer.span("stage_b"):
                pass
        report = analyze_trace(tracer)
        assert report.critical_path[0]["name"] == "run"
        assert {s["name"] for s in report.stages} == {
            "run",
            "stage_a",
            "stage_b",
        }

    def test_unrecognised_input_raises(self):
        with pytest.raises(DataError):
            analyze_trace({"neither": "format"})
        with pytest.raises(DataError):
            analyze_trace({"spans": []})  # no spans at all

    def test_zero_extent_trace_raises(self):
        with pytest.raises(DataError):
            analyze_trace(_nested(_span("instant", 0.0, 0.0)))


# ----------------------------------------------------------------------
# overlapping spans: self time is the union of child intervals
class TestOverlappingSpans:
    def test_overlapping_children_self_time_is_union(self):
        trace = _nested(
            _span(
                "run",
                0.0,
                10.0,
                children=[
                    _span(
                        "fan_out",
                        2.0,
                        6.0,
                        children=[
                            _span("shard", 2.0, 6.0),
                            _span("shard", 3.0, 5.0),
                        ],
                    )
                ],
            )
        )
        report = analyze_trace(trace)
        self_by_name = {s["name"]: s["self_s"] for s in report.stages}
        # the shards cover [2, 8] once, not 6 + 5 seconds
        assert self_by_name["fan_out"] == pytest.approx(0.0)
        assert self_by_name["run"] == pytest.approx(4.0)
        assert self_by_name["shard"] == pytest.approx(11.0)

    def test_detached_root_is_a_separate_stage(self):
        # a worker-thread lane recorded as a separate root: counted as a
        # stage, but the main tree alone defines the critical path and
        # the coverage
        trace = _nested(
            _span("run", 0.0, 10.0),
            _span("worker:loader", 3.0, 4.0),
        )
        report = analyze_trace(trace)
        assert [e["name"] for e in report.critical_path] == ["run"]
        assert {s["name"] for s in report.stages} == {"run", "worker:loader"}
        assert report.coverage == pytest.approx(1.0)


# ----------------------------------------------------------------------
# convergence harvest + unconverged annotations
class TestConvergenceHarvest:
    def test_traces_harvested_with_host_span(self):
        conv = ConvergenceTrace(
            "kmeans_1d", series={"shift": [1.0, 0.1]}, converged=True
        )
        trace = _nested(
            _span(
                "run",
                0.0,
                5.0,
                children=[
                    _span(
                        "kappa_scan",
                        0.0,
                        4.0,
                        attrs={"convergence": [conv.to_dict()]},
                    )
                ],
            )
        )
        report = analyze_trace(trace)
        assert len(report.convergence) == 1
        assert report.convergence[0]["span"] == "kappa_scan"
        assert report.convergence[0]["trace"]["solver"] == "kmeans_1d"

    def test_unconverged_solver_flags_target(self):
        conv = ConvergenceTrace(
            "lanczos", series={"beta": [0.5, 0.4]}, converged=False
        )
        trace = _nested(
            _span(
                "run",
                0.0,
                5.0,
                children=[
                    _span(
                        "eigensolve",
                        0.0,
                        4.0,
                        attrs={"convergence": [conv.to_dict()]},
                    )
                ],
            )
        )
        report = analyze_trace(trace)
        eig = next(t for t in report.targets if t["name"] == "eigensolve")
        assert any(
            r.startswith("unconverged") and "lanczos" in r
            for r in eig["reasons"]
        )

    def test_span_level_converged_attr_flags_target(self):
        trace = _nested(
            _span(
                "run",
                0.0,
                5.0,
                children=[
                    _span(
                        "eigensolve",
                        0.0,
                        4.0,
                        attrs={"solver": "arpack", "converged": False},
                    )
                ],
            )
        )
        report = analyze_trace(trace)
        eig = next(t for t in report.targets if t["name"] == "eigensolve")
        assert any("arpack" in r for r in eig["reasons"])


# ----------------------------------------------------------------------
# serialization + validation
class TestReportDocument:
    def test_round_trip_identity(self):
        report = analyze_trace(_serial_pipeline())
        through = json.loads(json.dumps(report.to_dict()))
        rebuilt = AnalysisReport.from_dict(through)
        assert rebuilt.to_dict() == report.to_dict()

    def test_validate_accepts_real_report(self):
        payload = analyze_trace(_serial_pipeline()).to_dict()
        assert validate_analysis(payload) is payload

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("stages"),
            lambda p: p.update(schema_version=99),
            lambda p: p.update(wall_s=0.0),
            lambda p: p.update(n_spans=0),
            lambda p: p.update(stages=[]),
            lambda p: p.update(critical_path=[]),
            lambda p: p["critical_path"][0].update(depth=5),
            lambda p: p["targets"][0].update(rank=7),
            lambda p: p["targets"][0].update(reasons="not-a-list"),
            lambda p: p["stages"][0].update(count=0),
            lambda p: p["stages"][0].pop("on_critical_path"),
            lambda p: p.update(schema_version=1),
            lambda p: p["critical_path"][0].update(self_s=-1.0),
            lambda p: p.update(
                convergence=[{"span": "x", "trace": {"schema_version": 9}}]
            ),
        ],
    )
    def test_validate_rejects_mutations(self, mutate):
        payload = analyze_trace(_serial_pipeline()).to_dict()
        mutate(payload)
        with pytest.raises(DataError):
            validate_analysis(payload)

    def test_validate_rejects_non_dict(self):
        with pytest.raises(DataError):
            validate_analysis([1, 2, 3])

    def test_render_mentions_path_and_targets(self):
        report = analyze_trace(_serial_pipeline())
        text = report.render()
        assert "critical path" in text
        assert "eigensolve" in text
        assert "optimization targets" in text

    @given(
        durations=st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_serial_chain_round_trips_and_covers(self, durations):
        # a run with N back-to-back children: coverage must be ~1 and
        # the document must survive JSON + from_dict exactly
        children, clock = [], 0.0
        for i, dur in enumerate(durations):
            children.append(_span(f"stage_{i}", clock, dur))
            clock += dur
        trace = _nested(_span("run", 0.0, clock, children=children))
        report = analyze_trace(trace)
        assert report.coverage == pytest.approx(1.0, rel=1e-6)
        through = json.loads(json.dumps(report.to_dict()))
        assert AnalysisReport.from_dict(through).to_dict() == report.to_dict()


# ----------------------------------------------------------------------
# CLI surface
class TestCli:
    def _write(self, tmp_path, doc, name="trace.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_analyze_human_output(self, tmp_path, capsys):
        path = self._write(tmp_path, _serial_pipeline())
        assert main(["obs", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "eigensolve" in out

    def test_analyze_json_validates(self, tmp_path, capsys):
        chrome = {
            "traceEvents": _chrome_events(_serial_pipeline()["spans"][0])
        }
        path = self._write(tmp_path, chrome)
        assert main(["obs", "analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_analysis(payload)
        assert payload["schema_version"] == ANALYSIS_SCHEMA_VERSION

    def test_analyze_missing_file_exits_1(self, tmp_path):
        assert main(["obs", "analyze", str(tmp_path / "absent.json")]) == 1

    def test_analyze_bad_document_exits_1(self, tmp_path):
        path = self._write(tmp_path, {"neither": "format"})
        assert main(["obs", "analyze", str(path)]) == 1
