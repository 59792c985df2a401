"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload metro --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout. ``--trace 0`` reports the end-to-end metrics
of an untraced run, ``--trace 1`` the per-layer metrics of a traced
run. A human-readable table goes to stdout first; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: settings that switch the library off its default configuration
GUARDED_ENV = ("REPRO_NUM_WORKERS", "REPRO_PARALLEL_MODE", "REPRO_FULL_SCALE")
#: BLAS/OpenMP pools run one thread: a second one shares a core with the
#: load generator on ``serve-drift`` and, on a shared 2-vCPU host, widened
#: the spread of M2-small partition times from 0.07 to 0.12 (NOTES.md)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def result_metrics(wanted, values, trace: bool):
    """The result line's ``metrics`` and the names that had no value.

    Every metric carries a number. A per-layer metric with no value (a
    layer the workload never reaches, or a hook whose target is gone)
    reads 0; an end-to-end one reads 0 too, and the caller fails the run.
    """
    metrics, absent = {}, []
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            absent.append(metric["name"])
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    guarded = {name: os.environ[name] for name in GUARDED_ENV if os.environ.get(name)}
    if guarded:
        return fail(f"refusing to run with non-default settings {guarded}")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail(f"no library sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    try:
        with open(SPEC_PATH) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    for name in THREAD_ENV:
        os.environ[name] = "1"  # before numpy loads its BLAS
    import repro  # noqa: F401 - from this checkout's src/

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return fail(f"repro imported from {repro.__file__}, not from {src}")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = workloads.Run(args.workload, args.seed, args.seconds)
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} blas_threads=1 "
        f"generator_connections={workloads.CONNECTIONS} "
        f"guarded_env=unset({','.join(GUARDED_ENV)})"
    )
    workloads.WORKLOADS[args.workload](run, bool(args.trace))
    run.values["peak_rss_mb"] = workloads.peak_rss_mb()
    spans_path = workloads.write_spans(run)
    if spans_path:
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")

    metrics, absent = result_metrics(wanted, run.values, bool(args.trace))
    for metric in wanted:
        name = metric["name"]
        if name in absent and not args.trace:
            run.check(name, ["end-to-end metric was not measured"])
        shown = "n/a" if name in absent else f"{metrics[name]['value']:.6g}"
        samples = run.samples.get(name.rsplit("_p50", 1)[0], [])
        counted = f"  (median of {len(samples)}: {', '.join(f'{x:.4g}' for x in samples)})" if samples else ""
        print(f"{name:<40} {shown:>14} {metric['unit']}{counted}")
    # figures measured on the way but reported by the other mode
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in run.values.items():
        if name not in metrics and name in units and isinstance(value, (int, float)):
            print(f"# {name:<38} {value:>14.6g} {units[name]}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_frac':<40} {failed_frac:>14.6g} fraction ({run.failed}/{run.attempted})")
    if args.trace:
        missing = run.values.get("trace.missing_hooks") or []
        print(f"# missing layer hooks: {', '.join(missing) if missing else 'none'}")
        print(f"# per-layer metrics with no sample on this workload, reported as 0: {', '.join(absent) or 'none'}")
    for problem in run.problems:
        print(f"# FAILED {problem}")

    correct = run.attempted > 0 and run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
