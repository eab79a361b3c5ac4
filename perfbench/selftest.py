"""Self-test of the benchmark. Run from the root of a cellsleep checkout:

    python3 perfbench/selftest.py

It checks the span arithmetic on a synthetic span tree, checks
BENCHMARK.json against the benchmark contract, and runs every workload in
tiny mode, plain and traced, checking that each run passes its output
checks and prints exactly the metrics BENCHMARK.json declares. Last, two
probes inform and never fail the test: whether the known fig5 failure at
large greedy sizes (see README.md) still reproduces, and whether an
exhaustive-only fig5 sweep with tight tiers runs and reaches the
binding-capacity offload assignment that no workload measures.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
from harness import check_quality
from workloads import WORKLOADS, summary

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_span_arithmetic() -> None:
    # name, parent, start, end, amount
    spans = [
        ["study", -1, 0.0, 10.0, 0.0],                                   # 0
        ["experiments.sweep", 0, 1.0, 9.0, 0.0],                         # 1
        ["estimators.mlc.mlc_estimate", 1, 2.0, 6.0, 0.0],               # 2
        ["estimators.kmeans.elbow_select_k", 2, 2.5, 4.5, 0.0],          # 3
        ["estimators.kmeans.kmeans_fit", 3, 3.0, 4.0, 0.0],              # 4
        ["estimators.kmeans.kmeans_fit", 2, 5.0, 5.5, 0.0],              # 5
        ["switching.optimize_greedy", 1, 6.0, 8.0, 0.0],                 # 6
        ["switching.objective", 6, 6.5, 7.5, 0.0],                       # 7
        ["power.network_power", 7, 6.5, 7.0, 0.0],                       # 8
        ["power.network_power", 1, 8.5, 8.75, 0.0],                      # 9
        ["dataio.read_loads_csv", 1, 1.0, 1.5, 2.5],                     # 10
    ]
    own = tracing.self_times(spans)
    expected = [2.0, 1.25, 1.5, 1.0, 1.0, 0.5, 1.0, 0.5, 0.5, 0.25, 0.5]
    assert all(math.isclose(a, b) for a, b in zip(own, expected)), own
    assert math.isclose(sum(own), 10.0), "self times must add up to the root span"
    totals = tracing.totals(spans)
    assert totals["estimators.kmeans.kmeans_fit"] == {"calls": 2, "s": 1.5, "self_s": 1.5, "amount": 0.0}
    checks = {
        "estimators.kmeans.kmeans_fit.calls": 2,
        "estimators.kmeans.used_fit_ratio": 0.5,
        "switching.greedy.trials_per_solve": 1.0,
        "estimators.kmeans.share_under_mlc": 0.25,
        "switching.optimize_greedy.share": 0.2,
        "experiments.sweep.self_s": 1.25,
        "estimators.mlc.mlc_estimate.self_s": 1.5,
        "dataio.read_loads_csv.mb": 2.5,
    }
    # Two identical studies: the copy's parent links point into the copy.
    doubled = spans + [[n, p + len(spans) if p >= 0 else -1, a, b, m] for n, p, a, b, m in spans]
    layers = tracing.layer_metrics(doubled, 2)
    for name, value in checks.items():
        assert math.isclose(layers[name], value), (name, layers[name], value)
    paths = {path: (calls, total, own) for path, calls, total, own in tracing.tree(spans)}
    assert paths[("study", "experiments.sweep", "power.network_power")] == (1, 0.25, 0.25)


def check_point_references() -> None:
    # One point out of 55 drifts from 0.07 to 0.18: the mean moves by only
    # 2.9 %, but that point's own check fails.
    reference = {"mean_error": [0.07] * 55}
    values = {"mean_error": [0.07] * 54 + [0.18]}
    tolerance = {"mean_error": {"abs": 1e-9, "rel": 0.02}}
    assert abs(summary(values)["est_error"] / summary(reference)["est_error"] - 1) < 0.03
    problems = check_quality(values, reference, tolerance)
    assert len(problems) == 1 and "point 54" in problems[0], problems
    assert check_quality(reference, reference, tolerance) == []
    assert check_quality({"mean_error": [0.07] * 54}, reference, tolerance), "a lost point must fail"


def check_tracer_nesting() -> None:
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.span("study"):
        assert outer(1) == 4
    assert [(s[0], s[1]) for s in tracer.spans] == [("study", -1), ("outer", 0), ("inner", 1)]
    assert all(s[3] >= s[2] for s in tracer.spans)


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60


def check_tiny_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace, result
            units = {m["name"]: m["unit"] for m in declared}
            assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name] and math.isfinite(metric["value"]), (name, metric)
            print(f"ok   tiny {workload} trace={trace}: {result['attempted']} studies")


def _fig5(tmp: str, n_sbs: int, s_values: str, **experiment) -> tuple[int, str]:
    """One fig5 sweep on a synthetic loads CSV; its exit code and stderr."""
    from cellsleep.cli import main

    config = Path(tmp) / "config.json"
    config.write_text(json.dumps({"experiment": {
        "data_source": "milan", "loads_csv": f"{tmp}/loads.csv",
        "placements_json": f"{tmp}/placements.json", "n_days": 1, "mlc_k_override": 3,
        **experiment}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        main(["synth", "--out", tmp, "--seed", "0", "--n-sbs", str(n_sbs), "--grid-side", "40",
              "--days", "1", "--correlation-length", "1500"])
        code = main(["sweep", "--experiment", "fig5", "--config", str(config), "--seed", "0",
                     "--s-values", s_values, "--l-values", "1", "--out", tmp])
    return code, err.getvalue().strip()


def probe_known_failure(tmp: str) -> str:
    """Does fig5 still fail once greedy decisions fill a tier (s=1000, night slot)?"""
    code, err = _fig5(tmp, 1000, "1000", n_iterations=1, slot_stride=12)
    if code == 0:
        return "fig5 at s=1000 now runs: switch-csv may grow to greedy sizes near 1000"
    return f"fig5 at s=1000 still fails (exit {code}): {err}"


def probe_binding_exhaustive(tmp: str) -> str:
    """Does an exhaustive-only fig5 sweep with tight tiers run, and does capacity bind?"""
    import cellsleep.switching as switching

    assign = switching._assign_offloads
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return assign(*args)

    switching._assign_offloads = counted
    try:
        # Slots 0 and 72: at midday the offloaded loads overflow the tiers.
        code, err = _fig5(tmp, 100, "10", n_iterations=2, slot_stride=72,
                          base_mbs_load=0.95, base_haps_load=0.95)
    finally:
        switching._assign_offloads = assign
    if code:
        return f"exhaustive fig5 at s=10 with tier base loads 0.95 fails (exit {code}): {err}"
    return (f"exhaustive fig5 at s=10 with tier base loads 0.95 runs; the cheapest targets overflowed "
            f"a tier in {calls} states, a path no workload measures")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name, check in (
        ("span arithmetic", check_span_arithmetic),
        ("per-point reference check", check_point_references),
        ("tracer nesting", check_tracer_nesting),
        ("BENCHMARK.json", lambda: check_spec(spec)),
    ):
        check()
        print(f"ok   {name}")
    check_tiny_runs(spec)
    sys.path.insert(0, str(Path.cwd() / "src"))
    for probe in (probe_known_failure, probe_binding_exhaustive):
        with tempfile.TemporaryDirectory(dir=Path.cwd() / ".perfbench_run") as tmp:
            print(f"info {probe.__name__}: {probe(tmp)}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
