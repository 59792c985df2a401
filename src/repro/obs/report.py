"""Flight-recorder reports: one HTML file per run, everything inlined.

A trace JSON, a metrics dump and a manifest are three files a human
has to correlate by hand. The flight recorder merges them into a
single self-contained HTML document — no external scripts, styles or
images — with:

* a provenance block (run id, git SHA, versions, platform, config,
  seed) from the run manifest;
* an inline SVG span timeline (flame chart) rendered with
  :func:`repro.viz.svg.render_timeline`;
* when the run was profiled, an inline SVG CPU flame graph
  (:func:`repro.viz.svg.render_flamegraph`) plus a top-frames-by-self-
  time table built from the speedscope profile;
* an analysis pane — the critical path and ranked optimization
  targets from :func:`repro.obs.analyze.analyze_trace` — plus solver
  convergence panes (:func:`repro.viz.svg.render_convergence`) for
  every :class:`repro.obs.convergence.ConvergenceTrace` the
  instrumented kernels attached to spans;
* counter / gauge / histogram tables from the metrics dump;
* the Prometheus exposition snapshot of the same metrics, collapsed,
  so what a scraper would have seen is on record too.

CLI: ``repro-partition obs report trace.json metrics.json -o report.html
[--profile profile.speedscope.json]`` (the inputs are exactly what
``partition --trace-out/--metrics-out``, ``obs profile`` and
:class:`repro.obs.ObsContext` write).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.export import render_prometheus

__all__ = [
    "flight_recorder_html",
    "write_report",
    "trace_bars",
    "profile_section",
    "live_section",
    "analysis_section",
]

#: At most this many convergence panes render in one report — a kappa
#: scan attaches many near-identical kmeans_1d traces; the first few
#: carry the story.
MAX_CONVERGENCE_PANES = 12

PathLike = Union[str, Path]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 1000px; color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.5em; border-bottom: 2px solid #377eb8; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 1.6em; color: #2a4d69; }
table { border-collapse: collapse; margin: .6em 0; width: 100%; }
th, td { border: 1px solid #d5d5e0; padding: .3em .6em; text-align: left;
         font-size: .9em; }
th { background: #eef2f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.provenance { background: #eef2f7; border: 1px solid #d5d5e0; padding: .8em 1em;
              border-radius: 4px; font-size: .9em; }
.provenance code { background: #fff; padding: 0 .3em; }
details { margin: .8em 0; }
pre { background: #22242e; color: #d8dee9; padding: 1em; overflow-x: auto;
      border-radius: 4px; font-size: .8em; }
.svgwrap { overflow-x: auto; background: #fff; border: 1px solid #d5d5e0;
           border-radius: 4px; padding: .4em; }
.series { display: inline-block; margin: .4em 1.2em .4em 0; font-size: .85em;
          vertical-align: top; }
"""


# ----------------------------------------------------------------------
# trace handling — accept both export formats
def _bars_from_tree(spans: List[Dict], depth: int = 0) -> List[Tuple]:
    bars: List[Tuple] = []
    for span in spans:
        bars.append(
            (
                str(span.get("name", "?")),
                float(span.get("start_s", 0.0)),
                float(span.get("duration_s", 0.0)),
                depth,
            )
        )
        bars.extend(_bars_from_tree(span.get("children", []), depth + 1))
    return bars


def _bars_from_chrome(events: List[Dict]) -> List[Tuple]:
    """Recover nesting depth from flat complete events.

    Lanes are ``(pid, tid)`` pairs: each thread's spans (and, in a
    Chrome document from another producer, each process's) stack on
    their own set of lanes.
    """
    bars: List[Tuple] = []
    complete = [e for e in events if e.get("ph") == "X"]
    by_lane: Dict[Any, List[Dict]] = {}
    for event in complete:
        lane_key = (event.get("pid", 0), event.get("tid", 0))
        by_lane.setdefault(lane_key, []).append(event)
    base_depth = 0
    for lane_key in sorted(by_lane, key=lambda key: (str(key[0]), str(key[1]))):
        lane = sorted(
            by_lane[lane_key],
            key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))),
        )
        stack: List[float] = []  # end timestamps of open ancestors
        deepest = 0
        for event in lane:
            ts = float(event.get("ts", 0.0))
            dur = float(event.get("dur", 0.0))
            while stack and ts >= stack[-1] - 1e-6:
                stack.pop()
            depth = base_depth + len(stack)
            deepest = max(deepest, len(stack))
            bars.append((str(event.get("name", "?")), ts / 1e6, dur / 1e6, depth))
            stack.append(ts + dur)
        base_depth += deepest + 1  # stack worker-thread lanes below
    return bars


def trace_bars(trace: Optional[Dict[str, Any]]) -> List[Tuple]:
    """``(name, start_s, duration_s, depth)`` bars from either trace format.

    Accepts the nested-JSON tree (``Tracer.to_dict()``, key ``spans``)
    or a Chrome trace-event document (``traceEvents``). Returns an
    empty list for None/empty traces.
    """
    if not trace:
        return []
    if "spans" in trace:
        return _bars_from_tree(trace.get("spans") or [])
    if "traceEvents" in trace:
        return _bars_from_chrome(trace.get("traceEvents") or [])
    return []


# ----------------------------------------------------------------------
# profile handling
def profile_section(profile: Optional[Dict[str, Any]]) -> Tuple[str, int]:
    """``(html, n_samples)`` for the CPU-profile pane of the report.

    ``profile`` is a speedscope-JSON document (what ``obs profile``
    / :meth:`repro.obs.ObsContext.write_profile` writes); invalid or
    empty documents degrade to an explanatory paragraph rather than
    taking the whole report down.
    """
    if not profile:
        return "<p>(no profile recorded)</p>", 0
    try:
        from repro.obs.profile import frame_weights, stacks_from_speedscope

        by_profile = stacks_from_speedscope(profile)
        stacks = [
            ((name,) + frames, weight)
            for name, prof_stacks in sorted(by_profile.items())
            for frames, weight in sorted(prof_stacks.items())
            if weight > 0
        ]
    except ValueError as exc:
        return f"<p>(profile unreadable: {_esc(exc)})</p>", 0
    if not stacks:
        return "<p>(profile recorded no samples)</p>", 0

    from repro.viz.svg import render_flamegraph

    flame = (
        '<div class="svgwrap">'
        + render_flamegraph(stacks, title="cpu flame graph")
        + "</div>"
    )
    weights = frame_weights(profile)
    top = sorted(weights.items(), key=lambda kv: -kv[1]["self"])[:15]
    rows = "\n".join(
        f'<tr><td>{_esc(frame)}</td><td class="num">{w["self"]:.4f}</td>'
        f'<td class="num">{w["total"]:.4f}</td></tr>'
        for frame, w in top
        if w["self"] > 0
    )
    table = (
        "<table><tr><th>frame (top self time)</th><th>self s</th>"
        f"<th>total s</th></tr>{rows}</table>"
    )
    n_samples = sum(
        len(profile_entry.get("samples", [])) for profile_entry in profile["profiles"]
    )
    return flame + table, n_samples


# ----------------------------------------------------------------------
# live telemetry handling
def live_section(live: Optional[Dict[str, Any]]) -> Tuple[str, int]:
    """``(html, n_series)`` for the live-telemetry pane of the report.

    ``live`` is a :meth:`repro.obs.live.LiveRecorder.to_dict` dump (the
    server's ``--live-out`` file): one sparkline plus an aggregate row
    per recorded series. Unreadable or empty dumps degrade to a
    paragraph rather than taking the report down.
    """
    if not live or not isinstance(live, dict):
        return "<p>(no live telemetry recorded)</p>", 0
    series = live.get("series") or {}
    drawn: List[str] = []
    rows: List[str] = []
    try:
        from repro.viz.svg import render_sparkline

        for name in sorted(series):
            entry = series[name] or {}
            values = [v for __, v in (entry.get("samples") or [])]
            agg = entry.get("aggregate") or {}
            if not values:
                continue
            spark = render_sparkline(values[-256:], title=name)
            drawn.append(
                f'<div class="series"><b>{_esc(name)}</b><br>{spark}</div>'
            )
            rows.append(
                f"<tr><td>{_esc(name)}</td>"
                f'<td class="num">{_fmt_num(agg.get("count"))}</td>'
                f'<td class="num">{_fmt_num(agg.get("last"))}</td>'
                f'<td class="num">{_fmt_num(agg.get("mean"))}</td>'
                f'<td class="num">{_fmt_num(agg.get("p50"))}</td>'
                f'<td class="num">{_fmt_num(agg.get("p99"))}</td>'
                f'<td class="num">{_fmt_num(agg.get("max"))}</td></tr>'
            )
    except Exception as exc:  # degrade, never break the report
        return f"<p>(live telemetry unreadable: {_esc(exc)})</p>", 0
    if not drawn:
        return "<p>(live telemetry recorded no samples)</p>", 0
    header = (
        "<tr><th>series</th><th>n</th><th>last</th><th>mean</th>"
        "<th>p50</th><th>p99</th><th>max</th></tr>"
    )
    return (
        "".join(drawn) + f"<table>{header}{''.join(rows)}</table>",
        len(drawn),
    )


# ----------------------------------------------------------------------
# HTML assembly
def _esc(value: Any) -> str:
    return html.escape(str(value))


def _kv_rows(mapping: Dict[str, Any]) -> str:
    rows = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        rows.append(f"<tr><th>{_esc(key)}</th><td>{_esc(value)}</td></tr>")
    return "\n".join(rows)


def _provenance_block(manifest: Dict[str, Any]) -> str:
    if not manifest:
        return "<p>(no manifest recorded)</p>"
    versions = manifest.get("versions") or {}
    platform = manifest.get("platform") or {}
    head = (
        f"<p>run <code>{_esc(manifest.get('run_id', '?'))}</code>"
        f" · {_esc(manifest.get('created_utc', '?'))}"
        f" · git <code>{_esc((manifest.get('git_sha') or 'unknown')[:12])}</code>"
        f" · seed <code>{_esc(manifest.get('seed'))}</code></p>"
    )
    facts = {
        **{f"version.{k}": v for k, v in versions.items()},
        **{f"platform.{k}": v for k, v in platform.items()},
    }
    config = manifest.get("config") or {}
    config_html = ""
    if config:
        config_html = f"<table>{_kv_rows({f'config.{k}': v for k, v in config.items()})}</table>"
    return (
        f'<div class="provenance">{head}'
        f"<table>{_kv_rows(facts)}</table>{config_html}</div>"
    )


def _counters_table(counters: Dict[str, float]) -> str:
    if not counters:
        return "<p>(none)</p>"
    rows = "\n".join(
        f'<tr><td>{_esc(name)}</td><td class="num">{value:g}</td></tr>'
        for name, value in sorted(counters.items())
    )
    return f"<table><tr><th>counter</th><th>total</th></tr>{rows}</table>"


def _gauges_table(gauges: Dict[str, float]) -> str:
    if not gauges:
        return "<p>(none)</p>"
    rows = "\n".join(
        f'<tr><td>{_esc(name)}</td><td class="num">{value:g}</td></tr>'
        for name, value in sorted(gauges.items())
    )
    return f"<table><tr><th>gauge</th><th>value</th></tr>{rows}</table>"


def _histograms_table(histograms: Dict[str, Dict[str, Any]]) -> str:
    if not histograms:
        return "<p>(none)</p>"
    rows = []
    for name, hist in sorted(histograms.items()):
        count = hist.get("count", 0)
        cells = "".join(
            f'<td class="num">{_fmt_num(hist.get(key))}</td>'
            for key in ("count", "mean", "min", "max", "sum")
        )
        rows.append(f"<tr><td>{_esc(name)}</td>{cells}</tr>")
    header = (
        "<tr><th>histogram</th><th>count</th><th>mean</th>"
        "<th>min</th><th>max</th><th>sum</th></tr>"
    )
    return f"<table>{header}{''.join(rows)}</table>"


def _fmt_num(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.6g}"
    return _esc(value)


def analysis_section(trace: Optional[Dict[str, Any]]) -> Tuple[str, str]:
    """(analysis pane, convergence pane) HTML for a trace document.

    Runs :func:`repro.obs.analyze.analyze_trace` on the trace and
    renders the optimization-target table with the critical path, plus
    one :func:`repro.viz.svg.render_convergence` pane per harvested
    solver trace (capped at :data:`MAX_CONVERGENCE_PANES`). Tolerant:
    a trace the analyzer rejects yields placeholder panes, never an
    exception — a half-written trace file must not take the report
    down.
    """
    if not trace:
        return "<p>(no trace to analyze)</p>", "<p>(no trace recorded)</p>"
    from repro.exceptions import DataError
    from repro.obs.analyze import analyze_trace

    try:
        report = analyze_trace(trace)
    except DataError as exc:
        message = f"<p>(trace not analyzable: {_esc(exc)})</p>"
        return message, message

    path_html = " → ".join(
        f"<code>{_esc(entry['name'])}</code> ({entry['duration_s']:.3f}s)"
        for entry in report.critical_path
    )
    rows = "".join(
        f"<tr><td class=\"num\">{target['rank']}</td>"
        f"<td><code>{_esc(target['name'])}</code></td>"
        f"<td class=\"num\">{target['self_s']:.4f}</td>"
        f"<td class=\"num\">{target['pct_of_wall']:.1f}%</td>"
        f"<td class=\"num\">{target['count']}</td>"
        f"<td>{_esc('; '.join(target['reasons']))}</td></tr>"
        for target in report.targets
    )
    analysis_html = (
        f"<p>critical path: {path_html}</p>"
        + "<table><tr><th>#</th><th>stage</th><th>self (s)</th>"
        + "<th>% of wall</th><th>spans</th><th>notes</th></tr>"
        + rows
        + "</table>"
    )

    if not report.convergence:
        return analysis_html, "<p>(no solver convergence telemetry recorded)</p>"
    from repro.viz.svg import render_convergence

    panes: List[str] = []
    for entry in report.convergence[:MAX_CONVERGENCE_PANES]:
        payload = entry["trace"]
        try:
            pane = render_convergence(
                payload.get("series") or {},
                title=f"{payload.get('solver', '?')} @ {entry['span']}",
                converged=payload.get("converged"),
            )
        except DataError:
            continue  # series-less trace (e.g. a zero-iteration solve)
        panes.append(f'<span class="series">{pane}</span>')
    dropped = len(report.convergence) - len(panes)
    suffix = f"<p>(+{dropped} more traces not drawn)</p>" if dropped > 0 else ""
    convergence_html = (
        '<div class="svgwrap">' + "".join(panes) + "</div>" + suffix
        if panes
        else "<p>(no solver convergence telemetry recorded)</p>"
    )
    return analysis_html, convergence_html


def flight_recorder_html(
    trace: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    title: Optional[str] = None,
    profile: Optional[Dict[str, Any]] = None,
    live: Optional[Dict[str, Any]] = None,
) -> str:
    """Build the self-contained HTML flight-recorder document.

    Parameters
    ----------
    trace:
        A trace document — nested tree or Chrome trace-event format —
        or None when the run was not traced.
    metrics:
        A metrics dump as written by
        :meth:`repro.obs.ObsContext.write_metrics` (``run_id`` /
        ``manifest`` / ``metrics`` keys) or a bare registry snapshot
        (``counters`` / ``gauges`` / ``histograms``).
    title:
        Heading; defaults to the run id.
    profile:
        Optional speedscope-JSON document (``obs profile`` /
        :meth:`repro.obs.ObsContext.write_profile`); adds a CPU
        flame-graph pane with a top-frames table.
    live:
        Optional :meth:`repro.obs.live.LiveRecorder.to_dict` dump (the
        server's ``--live-out`` file); adds a live-telemetry pane with
        one sparkline + aggregate row per time series.
    """
    metrics = metrics or {}
    if "metrics" in metrics:  # full dump with manifest
        manifest = metrics.get("manifest") or {}
        run_id = metrics.get("run_id") or manifest.get("run_id") or "unknown"
        snapshot = metrics.get("metrics") or {}
    else:  # bare registry snapshot
        manifest = {}
        run_id = "unknown"
        snapshot = metrics
    # chrome traces carry identity in otherData; prefer any run id we find
    if isinstance(trace, dict):
        other = trace.get("otherData") or {}
        if run_id == "unknown" and other.get("run_id"):
            run_id = other["run_id"]
    heading = title or f"flight recorder · {run_id}"

    bars = trace_bars(trace)
    if bars:
        from repro.viz.svg import render_timeline

        timeline = (
            '<div class="svgwrap">'
            + render_timeline(bars, title="span timeline")
            + "</div>"
        )
        n_spans = len(bars)
    else:
        timeline = "<p>(no trace recorded)</p>"
        n_spans = 0

    profile_html, n_samples = profile_section(profile)
    live_html, n_series = live_section(live)
    analysis_html, convergence_html = analysis_section(trace)
    exposition = render_prometheus(snapshot)
    sections = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(heading)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(heading)}</h1>",
        "<h2>Provenance</h2>",
        _provenance_block(manifest),
        f"<h2>Trace ({n_spans} spans)</h2>",
        timeline,
        "<h2>Analysis (critical path &amp; optimization targets)</h2>",
        analysis_html,
        "<h2>Solver convergence</h2>",
        convergence_html,
        f"<h2>CPU profile ({n_samples} sampled stacks)</h2>",
        profile_html,
        f"<h2>Live telemetry ({n_series} series)</h2>",
        live_html,
        "<h2>Counters</h2>",
        _counters_table(snapshot.get("counters") or {}),
        "<h2>Gauges</h2>",
        _gauges_table(snapshot.get("gauges") or {}),
        "<h2>Histograms</h2>",
        _histograms_table(snapshot.get("histograms") or {}),
        "<details><summary>Prometheus exposition snapshot</summary>",
        f"<pre>{_esc(exposition)}</pre></details>",
        "</body></html>",
    ]
    return "\n".join(sections)


def write_report(
    trace_path: Optional[PathLike],
    metrics_path: Optional[PathLike],
    out_path: PathLike,
    title: Optional[str] = None,
    profile_path: Optional[PathLike] = None,
    live_path: Optional[PathLike] = None,
) -> Path:
    """Read trace/metrics(/profile/live) JSON files and write the report.

    Either of trace/metrics may be None (the corresponding section
    reports "none recorded"); passing both None is rejected — there
    would be nothing to record. ``profile_path`` optionally adds the
    speedscope profile's flame-graph pane, ``live_path`` the live
    telemetry pane (a ``LiveRecorder`` dump).
    """
    if trace_path is None and metrics_path is None:
        raise ValueError("need a trace and/or a metrics file to build a report")
    trace = None
    if trace_path is not None:
        with open(trace_path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
    metrics = None
    if metrics_path is not None:
        with open(metrics_path, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
    profile = None
    if profile_path is not None:
        with open(profile_path, "r", encoding="utf-8") as fh:
            profile = json.load(fh)
    live = None
    if live_path is not None:
        with open(live_path, "r", encoding="utf-8") as fh:
            live = json.load(fh)
    doc = flight_recorder_html(
        trace=trace, metrics=metrics, title=title, profile=profile, live=live
    )
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(doc, encoding="utf-8")
    return out_path
