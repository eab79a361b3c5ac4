"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line with
its runtime. Criteria 5-7 run the desk-scale synthetic profile; absolute
error magnitudes from the original measured dataset are not targets here,
the orderings and trends are.
"""

import os
import time

import numpy as np
import pytest

from cellsleep.config import desk_profile
from cellsleep.estimators import DistanceConfig, RandomConfig, estimate
from cellsleep.traffic import SbsPlacement
from cellsleep.estimators.kmeans import elbow_select_k, kmeans_fit
from cellsleep.estimators.neighbors import distance_estimate
from cellsleep.power import NetworkPowerConfig, PowerParams, network_power, station_power
from cellsleep.switching import (
    ON,
    TO_HAPS,
    TO_MBS,
    OffloadScales,
    apply_offloads,
    objective,
    optimize_exhaustive,
    optimize_greedy,
)
from cellsleep import experiments
from cellsleep.experiments import layers_axis, neighbors_axis, run_error_sweep, run_figure, write_report

from conftest import grid_placements, random_network_config, snapshot_of
from naive_opt import naive_optimize
from test_kmeans import brute_force_sse, three_blobs


def _finish(criterion: int, label: str, t0: float, limit_s: float, failures: list):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures and elapsed < limit_s else "FAIL"
    print(f"\n[acceptance] criterion {criterion} ({label}): {status} "
          f"in {elapsed:.1f}s (limit {limit_s:.0f}s)")
    assert not failures, f"criterion {criterion}: " + " | ".join(failures)
    assert elapsed < limit_s, f"criterion {criterion} exceeded {limit_s}s ({elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# 1. power model exactness
# ---------------------------------------------------------------------------

def test_criterion_1_power_model_exactness():
    t0 = time.perf_counter()
    failures = []

    P = PowerParams
    station_cases = [
        # (params, load, is_on, expected watts, note)
        (P(10, 2, 5, 1), 0.0, False, 1.0, "sleep branch"),
        (P(10, 2, 5, 1), 0.5, True, 15.0, "10 + 2*0.5*5"),
        (P(10, 2, 5, 1), 1.0, True, 20.0, "10 + 2*1*5"),
        (P(10, 2, 5, 1), 0.0, True, 10.0, "active idle"),
        (P(10, 2, 5, 1), 0.7, False, 1.0, "sleep ignores load"),
        (P(0, 0, 0, 0), 0.3, True, 0.0, "all-zero params"),
        (P(7.5, 1, 4, 2), 0.25, True, 8.5, "7.5 + 1*0.25*4"),
        (P(7.5, 1, 4, 2), 0.25, False, 2.0, "sleep"),
        (P(100, 3, 50, 0), 0.2, True, 130.0, "100 + 3*0.2*50"),
        (P(60, 4, 10, 30), 0.75, True, 90.0, "60 + 4*0.75*10"),
        (P(1, 10, 0.1, 0.5), 1.0, True, 2.0, "1 + 10*1*0.1"),
        (P(5, 0, 100, 5), 0.9, True, 5.0, "zero slope"),
        (P(12, 2, 1, 9), 0.125, True, 12.25, "12 + 2*0.125*1"),
        (P(220, 6, 120, 0), 0.2, True, 364.0, "220 + 6*0.2*120"),
    ]
    for i, (params, load, on, expected, note) in enumerate(station_cases):
        got = station_power(params, load, on)
        if not np.isclose(got, expected, rtol=1e-9, atol=0):
            failures.append(f"station case {i} ({note}): {got} != {expected}")

    haps, mbs, sbs = P(100, 3, 50, 0), P(60, 4, 10, 30), P(10, 2, 5, 1)
    network_cases = [
        # (s, haps_load, mbs_load, sbs_loads, on_off, expected, note)
        (3, 0.2, 0.2, [0.4, 0.5, 0.6], [0, 0, 0], 130 + 68 + 3.0, "all SBS asleep"),
        (1, 0.2, 0.2, [0.5], [1], 130 + 68 + 15.0, "one active at half load"),
        (2, 0.2, 0.2, [1.0, 0.3], [1, 0], 130 + 68 + 20.0 + 1.0, "mixed"),
        (1, 1.0, 0.2, [0.2], [0], 250 + 68 + 1.0, "HAPS saturated"),
        (1, 0.2, 0.0, [0.0], [1], 130 + 60 + 10.0, "idle tiers"),
        (4, 0.5, 0.5, [0.25] * 4, [1] * 4, 175 + 80 + 4 * 12.5, "uniform quarter load"),
    ]
    for i, (s, hl, ml, loads, bits, expected, note) in enumerate(network_cases):
        cfg = NetworkPowerConfig(haps, mbs, sbs, s)
        got = network_power(cfg, hl, ml, loads, [bool(b) for b in bits])
        if not np.isclose(got, expected, rtol=1e-9, atol=0):
            failures.append(f"network case {i} ({note}): {got} != {expected}")

    # expanded switching objective, hand-summed
    cfg2 = NetworkPowerConfig(haps, mbs, sbs, 2)
    scales = OffloadScales(to_mbs=0.1, to_haps=0.2)
    state = np.array([TO_MBS, TO_HAPS], dtype=np.int8)
    cap = apply_offloads(0.2, 0.2, [0.5, 1.0], state, scales)
    # lam_M = 0.25 -> MBS 70 ; lam_H = 0.4 -> HAPS 160 ; sleeps 2*1
    got = objective(state, [0.5, 1.0], cap, cfg2)
    if not np.isclose(got, 160 + 70 + 2.0, rtol=1e-9, atol=0):
        failures.append(f"objective case A: {got} != 232.0")
    state_b = np.array([ON, TO_MBS], dtype=np.int8)
    cap_b = apply_offloads(0.0, 0.3, [0.6, 0.5], state_b, scales)
    # lam_M = 0.05 -> MBS 62 ; lam_H = 0.3 -> HAPS 145 ; SBS0 on 0.6 -> 16 ; SBS1 sleep 1
    got_b = objective(state_b, [0.6, 0.5], cap_b, cfg2)
    if not np.isclose(got_b, 145 + 62 + 16.0 + 1.0, rtol=1e-9, atol=0):
        failures.append(f"objective case B: {got_b} != 224.0")

    # switching-consistency delta on 1000 random fixtures
    rng = np.random.default_rng(11)
    for trial in range(1000):
        s = int(rng.integers(1, 8))
        cfg = random_network_config(rng, s)
        loads = rng.uniform(0, 1, s)
        on = [True] * s
        j = int(rng.integers(s))
        before = network_power(cfg, 0.4, 0.4, loads, on)
        on[j] = False
        after = network_power(cfg, 0.4, 0.4, loads, on)
        p = cfg.sbs
        expected = p.sleep_power - (p.operational_power + p.amplifier_slope * loads[j] * p.transmit_power)
        if not np.isclose(after - before, expected, rtol=1e-9, atol=1e-9):
            failures.append(f"delta fixture {trial}: {after - before} != {expected}")
            break

    _finish(1, "power model exactness", t0, 1.0, failures)


# ---------------------------------------------------------------------------
# 2. k-means and SSE
# ---------------------------------------------------------------------------

def test_criterion_2_kmeans_sse():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(22)

    for trial in range(100):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(0, 1, size=(n, d))
        k = int(rng.integers(1, min(8, n) + 1))
        state = kmeans_fit(pts, k, seed=trial)
        brute = brute_force_sse(pts, state.assignments, state.centroids)
        if not np.isclose(state.sse, brute, rtol=1e-9, atol=1e-12):
            failures.append(f"fit {trial}: sse {state.sse} != brute {brute}")
        trace = np.array(state.sse_trace)
        if not (np.diff(trace) <= 1e-12).all():
            failures.append(f"fit {trial}: sse trace increases {trace}")

    blob_rng = np.random.default_rng(33)
    pts, _ = three_blobs(blob_rng, per_blob=8)
    k = elbow_select_k(pts, (1, 8))
    if k != 3:
        failures.append(f"elbow on 3-blob fixture returned {k}")

    _finish(2, "k-means / SSE", t0, 10.0, failures)


# ---------------------------------------------------------------------------
# 3. interpolation algebra
# ---------------------------------------------------------------------------

def test_criterion_3_interpolation_algebra():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(44)

    # equal-distance identity, exact
    cross = (
        SbsPlacement(0, 1, 0.0, 0.0),
        SbsPlacement(1, 2, 50.0, 0.0),
        SbsPlacement(2, 3, -50.0, 0.0),
        SbsPlacement(3, 4, 0.0, 50.0),
        SbsPlacement(4, 5, 0.0, -50.0),
    )
    for trial in range(50):
        loads = rng.uniform(0, 1, 5)
        loads[0] = 0.0
        snap = snapshot_of(loads, sleeping=[0])
        plain = distance_estimate(snap, cross, DistanceConfig(neighbors=4)).estimates[0]
        for n_exp in (1, 2, 5, 10):
            weighted = distance_estimate(snap, cross, DistanceConfig(neighbors=4, weighting=n_exp)).estimates[0]
            if weighted != plain:
                failures.append(f"equal-distance trial {trial} n={n_exp}: {weighted} != {plain}")

    # nearest-neighbor convergence in the exponent on distinct-distance fixtures
    for trial in range(200):
        n_sbs = int(rng.integers(4, 14))
        gaps = rng.uniform(60.0, 400.0, n_sbs - 1)
        xs = np.concatenate([[0.0], np.cumsum(gaps)])
        fixture = tuple(
            SbsPlacement(sbs_id=i, square_id=i + 1, x_m=float(x), y_m=0.0)
            for i, x in enumerate(xs)
        )
        base = rng.uniform(0.2, 0.8)
        slope = rng.uniform(-0.3, 0.3)
        loads = np.clip(
            base + slope * np.linspace(0, 1, n_sbs) + rng.normal(0, 0.01, n_sbs), 0, 1
        )
        loads[0] = 0.0
        snap = snapshot_of(loads, sleeping=[0])
        n = int(rng.integers(2, n_sbs))
        est1 = distance_estimate(snap, fixture, DistanceConfig(n, weighting=1)).estimates[0]
        est10 = distance_estimate(snap, fixture, DistanceConfig(n, weighting=10)).estimates[0]
        nearest = loads[1]
        if abs(est10 - nearest) > abs(est1 - nearest) + 1e-12:
            failures.append(f"nn-limit trial {trial}: n=10 farther than n=1")
            break

    # convex-combination bounds on 10,000 random instances
    big = grid_placements(12)
    for trial in range(10_000):
        loads = rng.uniform(0, 1, 12)
        sleepers = rng.choice(12, size=2, replace=False)
        snap = snapshot_of(loads, sleeping=sleepers)
        n = int(rng.integers(1, 10))
        exponent = (None, 1, 2, 5, 10)[trial % 5]
        if trial % 2:
            res = estimate(DistanceConfig(neighbors=n, weighting=exponent), snap, big)
        else:
            res = estimate(RandomConfig(neighbors=n, weighting=exponent, seed=trial), snap, big)
        for det, est in zip(res.detail, res.estimates):
            lo = loads[list(det.neighbor_ids)].min()
            hi = loads[list(det.neighbor_ids)].max()
            if not (lo - 1e-12 <= est <= hi + 1e-12):
                failures.append(f"convexity trial {trial}: {est} outside [{lo}, {hi}]")
                break
        if failures:
            break

    _finish(3, "interpolation algebra", t0, 10.0, failures)


# ---------------------------------------------------------------------------
# 4. optimizer oracle
# ---------------------------------------------------------------------------

def test_criterion_4_optimizer_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(55)

    sizes = [int(rng.integers(1, 7)) for _ in range(940)] + \
            [int(rng.integers(7, 9)) for _ in range(50)] + \
            [int(rng.integers(9, 11)) for _ in range(10)]
    checked = 0
    for trial, s in enumerate(sizes):
        cfg = random_network_config(rng, s)
        loads = rng.uniform(0, 1, s)
        base_m, base_h = rng.uniform(0.0, 1.0, 2)
        scales = OffloadScales(
            to_mbs=float(rng.uniform(0, 0.4)), to_haps=float(rng.uniform(0, 0.4))
        )
        sol = optimize_exhaustive(loads, base_m, base_h, cfg, scales)
        ref = naive_optimize(
            [float(v) for v in loads], float(base_m), float(base_h),
            (cfg.haps.operational_power, cfg.haps.amplifier_slope,
             cfg.haps.transmit_power, cfg.haps.sleep_power),
            (cfg.mbs.operational_power, cfg.mbs.amplifier_slope,
             cfg.mbs.transmit_power, cfg.mbs.sleep_power),
            [(cfg.sbs.operational_power, cfg.sbs.amplifier_slope,
              cfg.sbs.transmit_power, cfg.sbs.sleep_power)] * s,
            scales.to_mbs, scales.to_haps,
        )
        bits = tuple(1 if c == ON else 0 for c in sol.state)
        letters = tuple("-MH"[c] for c in sol.state)
        if ref is None:
            failures.append(f"trial {trial}: oracle found no feasible state")
            break
        if bits != ref[0] or letters != ref[1]:
            failures.append(f"trial {trial} (s={s}): {bits}/{letters} != oracle {ref[0]}/{ref[1]}")
            break
        if not np.isclose(sol.power, ref[2], rtol=1e-9, atol=0):
            failures.append(f"trial {trial}: power {sol.power} != oracle {ref[2]}")
            break
        greedy = optimize_greedy(loads, base_m, base_h, cfg, scales)
        if greedy.power < sol.power - 1e-9:
            failures.append(f"trial {trial}: greedy {greedy.power} beat exhaustive {sol.power}")
            break
        checked += 1
    if checked < 1000 and not failures:
        failures.append(f"only {checked} instances checked")

    _finish(4, "optimizer oracle", t0, 120.0, failures)


# ---------------------------------------------------------------------------
# 5. weighted-distance error trend across neighbor counts
# ---------------------------------------------------------------------------

def test_criterion_5_distance_weighting_trend():
    t0 = time.perf_counter()
    failures = []
    cfg = desk_profile()
    report = run_figure("fig2", cfg, exponents=(1, 5, 10))  # fig2's N grid

    n_grid = []  # N in fig2's order, for one exponent
    curves = {}  # exponent -> aggregate means over the N grid
    per_seed = {}  # exponent -> (n_iterations, len(n_grid))
    for point in report.points:
        if point.labels["exponent"] == 1:
            n_grid.append(point.labels["neighbors"])
        curves.setdefault(point.labels["exponent"], []).append(point.metrics["mean_error"])
        per_seed.setdefault(point.labels["exponent"], []).append(point.per_iteration["mean_error"])
    for exp in per_seed:
        per_seed[exp] = np.array(per_seed[exp]).T  # (iterations, N)

    big_idx = [i for i, n in enumerate(n_grid) if n >= 20]
    for i in big_idx:
        if not curves[5][i] < curves[1][i]:
            failures.append(f"aggregate: error(n=5, N={n_grid[i]}) !< error(n=1)")

    ok_seeds = sum(
        1
        for it in range(cfg.n_iterations)
        if all(per_seed[5][it, i] < per_seed[1][it, i] for i in big_idx)
    )
    if ok_seeds < 45:
        failures.append(f"ordering held on only {ok_seeds}/50 seeds (need >= 45)")

    spread1 = max(curves[1]) - min(curves[1])
    spread10 = max(curves[10]) - min(curves[10])
    if not spread10 < spread1:
        failures.append(f"spread(n=10)={spread10:.4f} !< spread(n=1)={spread1:.4f}")

    print(f"\n  n=1  curve: {[round(v, 4) for v in curves[1]]}")
    print(f"  n=5  curve: {[round(v, 4) for v in curves[5]]}")
    print(f"  n=10 curve: {[round(v, 4) for v in curves[10]]}")
    print(f"  per-seed ordering: {ok_seeds}/50")
    _finish(5, "distance weighting trend", t0, 300.0, failures)


# ---------------------------------------------------------------------------
# 6. multi-level clustering depth trend
# ---------------------------------------------------------------------------

def test_criterion_6_mlc_layer_trend():
    t0 = time.perf_counter()
    failures = []
    cfg = desk_profile()
    _, (points,) = experiments._figure("fig3", cfg)
    report = run_error_sweep(cfg, [p for p in points if p[0]["estimator"] == "mlc"])  # fig3's depths
    layers = [p.labels["layers"] for p in report.points]

    means = [p.metrics["mean_error"] for p in report.points]
    stds = [p.metrics["std_error"] for p in report.points]
    for i in range(len(layers) - 1):
        pooled = np.sqrt((stds[i] ** 2 + stds[i + 1] ** 2) / 2.0)
        if means[i + 1] > means[i] + pooled:
            failures.append(
                f"error(L={layers[i + 1]})={means[i + 1]:.4f} exceeds "
                f"error(L={layers[i]})={means[i]:.4f} + pooled std {pooled:.4f}"
            )
    if not means[6] <= 0.5 * means[0]:
        failures.append(f"error(L=7)={means[6]:.4f} !<= 0.5 * error(L=1)={means[0]:.4f}")

    print(f"\n  MLC error by layer: {[round(v, 4) for v in means]}")
    _finish(6, "MLC layer trend", t0, 300.0, failures)


# ---------------------------------------------------------------------------
# 7. decision-change and power-gap consistency
# ---------------------------------------------------------------------------

def test_criterion_7_decision_and_power_consistency():
    t0 = time.perf_counter()
    failures = []
    cfg = desk_profile(n_iterations=60, sleep_fraction=0.3)
    # fig5's desk sizes 6, 10 and 14: exhaustive mode everywhere (cap 20, s <= 15)
    report = run_figure("fig5", cfg, l_values=(1, 3, 5, 7))

    by_s: dict = {}
    for p in report.points:
        if p.labels["optimizer"] != "exhaustive":
            failures.append(f"s={p.labels['n_sbs']} did not run exhaustive")
        gaps = np.array(p.per_iteration["gap_w"])
        if p.labels["estimator"] == "perfect":
            if p.metrics["decision_change_rate"] != 0.0 or p.metrics["gap_w"] != 0.0:
                failures.append(f"perfect baseline not exactly zero at s={p.labels['n_sbs']}")
        else:
            by_s.setdefault(p.labels["n_sbs"], []).append(
                (p.labels["layers"], p.metrics["gap_w"], float(gaps.std()))
            )
        if gaps.min() < -1e-9:
            failures.append(f"deployed power fell below the optimum: min gap {gaps.min()}")

    for s, rows in by_s.items():
        rows.sort()
        for (l_a, gap_a, std_a), (l_b, gap_b, std_b) in zip(rows, rows[1:]):
            pooled = np.sqrt((std_a**2 + std_b**2) / 2.0)
            if gap_b > gap_a + pooled:
                failures.append(
                    f"s={s}: gap(L={l_b})={gap_b:.4f} exceeds gap(L={l_a})={gap_a:.4f} "
                    f"+ pooled std {pooled:.4f}"
                )

    print()
    for s, rows in sorted(by_s.items()):
        print(f"  s={s:3d} gaps by layer: {[(l, round(g, 4)) for l, g, _ in rows]}")
    _finish(7, "decision/power consistency", t0, 300.0, failures)


# ---------------------------------------------------------------------------
# 8. determinism across runs and worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    cfg = desk_profile(n_sbs=40, n_iterations=8, grid_side=7, profile="desk")
    points = neighbors_axis("distance", (2, 6), weighting=2) + layers_axis((1, 2))

    first = run_error_sweep(cfg, points, workers=1)
    again = run_error_sweep(cfg, points, workers=1)
    wide = run_error_sweep(cfg, points, workers=4)
    if first.csv_text() != again.csv_text():
        failures.append("rerun with identical config changed the CSV")
    if first.csv_text() != wide.csv_text():
        failures.append("worker count changed the CSV")
    if not (first.config_hash == again.config_hash == wide.config_hash):
        failures.append("config hash unstable")

    csv_a, _ = write_report(first, tmp_path / "a")
    csv_b, _ = write_report(wide, tmp_path / "b")
    if csv_a.read_bytes() != csv_b.read_bytes():
        failures.append("on-disk CSV bytes differ between 1 and 4 workers")

    _finish(8, "determinism", t0, 120.0, failures)


# ---------------------------------------------------------------------------
# optional: measured-data ordering check (informative)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    "CELLSLEEP_MILAN_DIR" not in os.environ,
    reason="set CELLSLEEP_MILAN_DIR to a directory holding ingested loads.csv/placements.json",
)
def test_milan_ordering_informative():
    from cellsleep.config import ExperimentConfig

    root = os.environ["CELLSLEEP_MILAN_DIR"]
    cfg = ExperimentConfig(
        n_sbs=100,
        n_iterations=50,
        slot_stride=12,
        n_days=1,
        data_source="milan",
        loads_csv=os.path.join(root, "loads.csv"),
        placements_json=os.path.join(root, "placements.json"),
        profile="milan",
    )
    report = run_figure("fig2", cfg, exponents=(1, 5))
    curves = {}
    for point in report.points:
        curves.setdefault(point.labels["exponent"], {})[point.labels["neighbors"]] = point.metrics["mean_error"]
    print("\n  Milan absolute errors (informative):")
    for exp, vals in curves.items():
        print(f"    n={exp}: {[round(v, 4) for v in vals.values()]}")
    for n in curves[1]:
        if n >= 20:
            assert curves[5][n] < curves[1][n]
