"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import drift_densities, main
from repro.datasets.registry import load_dataset
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.network.io import save_network_json
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.traffic.profiles import hotspot_profile


class TestPartitionCommand:
    def test_builtin_dataset(self, capsys):
        assert main(["partition", "D1", "-k", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "ans" in out

    def test_json_output(self, capsys):
        assert (
            main(["partition", "D1", "-k", "3", "--seed", "0", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        assert "metrics" in payload
        assert payload["connected"] in (True, False)

    def test_network_file(self, tmp_path, capsys):
        net = grid_network(5, 5, two_way=True)
        net.set_densities(hotspot_profile(net, seed=0))
        path = tmp_path / "net.json"
        save_network_json(net, path)
        assert main(["partition", str(path), "-k", "3", "--seed", "0"]) == 0

    def test_labels_out(self, tmp_path):
        out = tmp_path / "labels.csv"
        assert (
            main(
                [
                    "partition",
                    "D1",
                    "-k",
                    "3",
                    "--seed",
                    "0",
                    "--labels-out",
                    str(out),
                ]
            )
            == 0
        )
        labels = np.loadtxt(out, dtype=int)
        assert labels.max() + 1 == 3

    def test_scheme_choice(self, capsys):
        assert main(["partition", "D1", "-k", "3", "--scheme", "NG"]) == 0
        assert "NG" in capsys.readouterr().out

    def test_json_stdout_is_pipeable(self, tmp_path, capsys):
        """With --json, stdout must be exactly one parseable JSON doc
        even when side outputs and observability flags are in play."""
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        labels = tmp_path / "labels.csv"
        code = main(
            [
                "--log-level", "info",
                "partition", "D1", "-k", "3", "--seed", "0", "--json",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
                "--labels-out", str(labels),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # would fail on any stray print
        assert payload["k"] == 3
        assert payload["run_id"]
        assert payload["manifest"]["config"]["scheme"] == "ASG"
        # the "wrote ..." diagnostics went to stderr instead
        assert "wrote" in captured.err

    def test_trace_and_metrics_outputs(self, tmp_path):
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "partition", "D1", "-k", "4", "--seed", "1", "--json",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        trace_doc = json.loads(trace.read_text())
        validate_chrome_trace(trace_doc)
        names = {ev["name"] for ev in trace_doc["traceEvents"]}
        assert {"run", "module1", "module2", "module3"} <= names
        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["metrics"]["counters"]["supergraph.builds"] == 1
        assert metrics_doc["run_id"] == trace_doc["otherData"]["run_id"]

    def test_no_obs_files_without_flags(self, capsys):
        assert main(["partition", "D1", "-k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] is None  # no ObsContext was created

    def test_bad_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["partition", "D1", "--scheme", "XX"])


class TestSimulateCommand:
    def test_writes_series(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(
            [
                "simulate",
                "D1",
                "--vehicles",
                "100",
                "--steps",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        series = np.loadtxt(out, delimiter=",")
        assert series.shape[0] == 10


class TestDatasetsCommand:
    def test_lists_requested_datasets(self, capsys):
        assert main(["datasets", "D1", "M1-small"]) == 0
        out = capsys.readouterr().out
        assert "D1" in out and "M1-small" in out

    def test_unknown_dataset_fails(self, capsys):
        assert main(["datasets", "D9"]) == 1
        # diagnostics go to stderr so stdout stays pipeable
        assert "unknown" in capsys.readouterr().err


class TestServeDrift:
    def test_one_drift_step_refreshes_a_region(self):
        # a factor per segment averages out over a region and leaves
        # every region mean under the 25% staleness threshold; one
        # factor per region must move at least one past it
        network, densities = load_dataset("D1", seed=0)
        graph = build_road_graph(network).with_features(densities)
        repartitioner = IncrementalRepartitioner(graph, k=6, seed=0)
        repartitioner.bootstrap(densities)
        drifted = drift_densities(
            np.asarray(densities, dtype=float),
            repartitioner.labels,
            np.random.default_rng(0),
        )
        assert len(repartitioner.update(drifted).refreshed) >= 1
