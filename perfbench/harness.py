"""One measured run of one workload, in a process of its own.

``run.py`` starts this file with the BLAS/OpenMP thread counts set to 1
and ``src`` on the import path. It makes the inputs, times the set-up and
then repeats the workload's study until the measuring window is full. With
``--trace 1`` it alternates plain and traced studies. Every study's output
is checked; a failed check counts the study as failed and the run goes on.
The result goes to ``<out>/result.json``; the readable report to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

REFERENCE = Path(__file__).with_name("reference.json")
SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPS = 50
FULL_RUN_SLOT_ITERATIONS = 300 * 144  # paper profile: 300 iterations x 144 slots
# Reported times are scaled to the host speed at which calibrate() takes
# this long. On shared hosts the speed drifts by tens of percent over
# minutes; the kernel, timed around every study, tracks that drift.
CAL_REF_S = 0.08


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def calibrate() -> float:
    """Seconds taken by a fixed Python-loop and numpy kernel: the host's current speed."""
    import numpy

    data = numpy.linspace(0.0, 1.0, 200_000)
    t0 = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    for _ in range(80):
        data = numpy.sqrt(data * 1.0001 + 0.5)
    return time.perf_counter() - t0


def load_reference(workload: str, size: str, variant: int) -> tuple[dict, dict]:
    doc = json.loads(REFERENCE.read_text())
    return doc["values"][size][workload][str(variant)], doc["tolerance"]


def check_quality(values: dict, reference: dict, tolerance: dict) -> list[str]:
    """Compare every sweep point's quality values with its own reference."""
    problems = []
    for key, points in values.items():
        refs = reference[key]
        if len(points) != len(refs):
            problems.append(f"{key}: {len(points)} points, reference has {len(refs)}")
            continue
        for i, (value, ref) in enumerate(zip(points, refs)):
            allowed = tolerance[key]["abs"] + tolerance[key]["rel"] * abs(ref)
            if not math.isfinite(value) or abs(value - ref) > allowed:
                problems.append(f"{key} of point {i} = {value!r} differs from reference {ref!r} "
                                f"by more than {allowed:.3g}")
    return problems


def run_study(plan, rep_dir: Path, tracer) -> tuple[float, list[float], str | None]:
    """Time one study, traced when ``tracer`` is given.

    Returns the study's seconds, the seconds of each sweep, and an error
    message if a sweep raised.
    """
    per_sweep: list[float] = []
    error = None
    patch = tracing.patched(tracer) if tracer else contextlib.nullcontext()
    with patch:
        t0 = time.perf_counter()
        try:
            with tracer.span(tracing.STUDY) if tracer else contextlib.nullcontext():
                for sweep in plan.sweeps:
                    ts = time.perf_counter()
                    workloads.run_sweep(sweep, rep_dir)
                    per_sweep.append(time.perf_counter() - ts)
        except Exception:  # the run goes on: a raising study counts as failed
            traceback.print_exc()
            error = "study raised"
        elapsed = time.perf_counter() - t0
    return elapsed, per_sweep, error


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", action="store_true",
                        help="run one study and report its quality values without a reference check")
    args = parser.parse_args()

    out = Path(args.out)
    plan = workloads.make_plan(args.workload, args.seed, args.size, out / "work")
    if args.record:
        reference, tolerance = None, None
    else:
        reference, tolerance = load_reference(args.workload, args.size, plan.variant)

    setup_times: list[float] = []
    cal_before = calibrate()
    while len(setup_times) < SETUP_MIN_REPS or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        workloads.setup(plan)
        setup_times.append(time.perf_counter() - t0)
    setup_scale = CAL_REF_S / ((cal_before + calibrate()) / 2)

    tracer = tracing.Tracer()
    times: dict[str, list[float]] = {"plain": [], "traced": []}
    scaled: dict[str, list[float]] = {"plain": [], "traced": []}
    cals = [calibrate()]
    sweep_times: list[list[float]] = []
    first_csv: dict[str, bytes] = {}
    qualities: list[dict] = []
    attempted = failed = 0
    window_start = time.perf_counter()
    while True:
        mode = "traced" if args.trace and attempted % 2 == 1 else "plain"
        rep_dir = out / f"study{attempted}"
        attempted += 1
        elapsed, per_sweep, error = run_study(plan, rep_dir, tracer if mode == "traced" else None)
        cals.append(calibrate())
        times[mode].append(elapsed)
        scaled[mode].append(elapsed * CAL_REF_S / ((cals[-2] + cals[-1]) / 2))
        problems = [error] if error else []
        if not error:
            for sweep in plan.sweeps:
                data = (rep_dir / f"{sweep.label}.csv").read_bytes()
                if first_csv.setdefault(sweep.label, data) != data:
                    problems.append(f"{sweep.label}.csv differs from the first study's bytes")
            try:
                values = workloads.point_values(plan, rep_dir)
            except (ValueError, KeyError, ZeroDivisionError) as exc:
                problems.append(f"unreadable report: {exc!r}")
            else:
                qualities.append(values)
                if reference is not None:
                    problems.extend(check_quality(values, reference, tolerance))
            if mode == "plain":
                sweep_times.append(per_sweep)
        if problems:
            failed += 1
            for problem in problems:
                print(f"check failed (study {attempted - 1}): {problem}", file=sys.stderr)
        if attempted > 1:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if args.trace and attempted < 2:
            continue  # a traced run measures at least one plain and one traced study
        if args.record:
            break
        spent = time.perf_counter() - window_start
        if spent + statistics.median(times["plain"] + times["traced"]) > args.seconds:
            break

    if not qualities:
        print(f"no study of {attempted} produced a readable report; no result", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    study_s = statistics.median(scaled["plain"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": plan.variant,
        "size": args.size,
        "trace": args.trace,
        "env": environment(),
        "config": plan.config,
        "cells_per_study": plan.cells,
        "attempted": attempted,
        "failed": failed,
        "setup_times_s": setup_times,
        "setup_scale": setup_scale,
        "study_times_s": times,
        "study_times_scaled_s": scaled,
        "calibration_s": cals,
        "sweep_times_s": sweep_times,
        "points": qualities[0],
        "quality": workloads.summary(qualities[0]),
        "reference": workloads.summary(reference) if reference else None,
    }
    end_to_end = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "study_s": study_s,
        "cells_per_s": plan.cells / study_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }
    if reference is not None:
        q, ref = result["quality"], result["reference"]
        # The worst aggregate; offsetting by the absolute tolerance keeps a
        # zero reference usable. The per-point checks above catch a drift that
        # the means average away.
        abs_tol = {workloads.AGGREGATES[k]: tolerance[k]["abs"] for k in tolerance}
        end_to_end["error_vs_ref"] = max((q[k] + abs_tol[k]) / (ref[k] + abs_tol[k]) for k in q)
    result["end_to_end"] = end_to_end

    report(result, plan)
    if args.trace:
        n_traced = len(times["traced"])
        layers = tracing.layer_metrics(tracer.spans, n_traced)
        layers["trace.overhead_s"] = statistics.median(scaled["traced"]) - study_s
        result["per_layer"] = layers
        report_trace(result, tracer, n_traced, study_s)
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        (out / "spans.json").write_text(json.dumps({
            "fields": ["name", "parent", "start_s", "end_s", "amount"],
            "names": names,
            "spans": [[index[n], p, round(a, 9), round(b, 9), m] for n, p, a, b, m in tracer.spans],
        }))
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def report(result: dict, plan) -> None:
    env = result["env"]
    e2e = result["end_to_end"]
    times = result["study_times_scaled_s"]["plain"]
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    raw_setup = statistics.median(result["setup_times_s"])
    raw_study = statistics.median(result["study_times_s"]["plain"])
    print(f"perfbench {result['workload']} seed={result['seed']} (input variant {result['variant']}) "
          f"size={result['size']} trace={result['trace']}")
    print(f"env: python {env['python']} | numpy {env['numpy']} | {env['blas']} "
          f"threads={env['threads']['OPENBLAS_NUM_THREADS']} | nproc {env['nproc']} | cpu {env['cpu']}")
    print(f"study: {' + '.join(s.label for s in plan.sweeps)}, {plan.cells} cells")
    print(f"times scaled to the host speed where the calibration kernel takes {CAL_REF_S} s; "
          f"it took {statistics.median(result['calibration_s']):.4f} s (median) in this run")
    rows = [
        ("setup_s", f"{e2e['setup_s']:.4f}", "s",
         f"median of {len(result['setup_times_s'])} set-ups; unscaled {raw_setup:.4f}"),
        ("study_s", f"{e2e['study_s']:.4f}", "s",
         f"median of {len(times)} studies, quartiles {q1:.4f}..{q3:.4f}; unscaled {raw_study:.4f}"),
        ("cells_per_s", f"{e2e['cells_per_s']:.3f}", "1/s", ""),
        ("peak_rss_mb", f"{e2e['peak_rss_mb']:.1f}", "MB", ""),
        ("failed_frac", f"{result['failed'] / result['attempted']:.3f}", "frac",
         f"{result['failed']} of {result['attempted']} studies"),
    ]
    quality = result["quality"]
    reference = result["reference"] or {}
    for key in ("est_error", "power_gap_rel", "decision_change_rate"):
        if key in quality:
            rows.append((key, f"{quality[key]:.6g}", "frac",
                         f"mean over points; reference {reference.get(key, 'not checked')}"))
        else:
            rows.append((key, "n/a", "frac", "not produced by this workload"))
    if "error_vs_ref" in e2e:
        rows.append(("error_vs_ref", f"{e2e['error_vs_ref']:.6f}", "ratio", "quality values / reference"))
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>12} {unit:<6} {note}")
    if result["workload"] == "paper-slice" and result["sweep_times_s"]:
        slot_iterations = plan.config["n_iterations"] * (144 // plan.config["slot_stride"])
        scale = FULL_RUN_SLOT_ITERATIONS / slot_iterations
        parts = []
        for i, sweep in enumerate(plan.sweeps):
            per = statistics.median(t[i] for t in result["sweep_times_s"])  # unscaled
            parts.append(f"{sweep.label.split('_')[0]} ~{per * scale / 3600:.1f} h")
        print(f"  extrapolation (informational, not gated): full paper run at 300 iterations x 144 slots, "
              f"1 worker: {', '.join(parts)}")


def report_trace(result: dict, tracer, n_traced: int, study_s: float) -> None:
    layers = result["per_layer"]
    print(f"trace: {len(tracer.spans)} spans over {n_traced} traced studies; per study:")
    print(f"  {'path':<72} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for path, calls, total, own in tracing.tree(tracer.spans):
        label = "  " * (len(path) - 1) + path[-1]
        print(f"  {label:<72} {calls / n_traced:>9.1f} {total / n_traced:>10.4f} {own / n_traced:>10.4f}")
    overhead = layers["trace.overhead_s"]
    print(f"  tracing overhead: {overhead:+.4f} s per study ({overhead / study_s:+.1%} of study_s)")
    expected = {
        "mlc-desk": "estimators.kmeans.share_under_mlc",
        "paper-slice": "estimators.neighbors.share",
        "switch-csv": "switching.optimize_greedy.share",
    }[result["workload"]]
    share = layers[expected]
    verdict = "holds" if share > 0.5 else "does NOT hold"
    print(f"  prediction: {expected} is the majority of study time: {share:.1%} -> {verdict}")
    for name in sorted(layers):
        print(f"  {name:<50} {layers[name]:.6g}")


if __name__ == "__main__":
    sys.exit(main())
