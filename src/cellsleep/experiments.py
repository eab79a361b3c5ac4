"""Reproducible experiment sweeps over estimators and network sizes.

Four study families are provided:

* error sweeps over an estimator axis (neighbor count, weighting exponent,
  clustering layers),
* decision sweeps comparing the optimizer's switch-off vector under actual
  versus estimated loads,
* power sweeps pricing the estimated-load decision at the actual loads
  (the deployed cost) next to the actual optimum.

Every iteration i draws its sleeping set from seed ``base_seed + i``, so a
report is a pure function of (config, seed); worker processes only change
wall-clock time, never a reported digit. Per-point aggregates go to the
CSV, per-iteration details and timing to the JSON sidecar.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import ExperimentConfig, config_hash, sleeper_count
from .dataio import read_loads_csv, read_placements_json
from .errors import DataFormatError
from .estimators import (
    DistanceConfig,
    EstimatorConfig,
    MlcConfig,
    RandomConfig,
    estimate,
    estimation_error,
)
from .estimators.neighbors import NeighborTable, nearest_table, positions_array, random_table
from .power import NetworkPowerConfig, network_power
from .switching import (
    ON,
    OffloadScales,
    SwitchingSolution,
    apply_offloads,
    decision_change_rate,
    optimize_exhaustive,
    optimize_greedy,
)
from .traffic import LoadSeries, SbsPlacement, daily_average, mask_sleepers, synthesize_traffic


@dataclass(frozen=True)
class Dataset:
    """One representative day plus per-slot history features."""

    day: LoadSeries
    history: np.ndarray  # (n_sbs, slots_per_day): most recent raw day
    placements: tuple[SbsPlacement, ...]


def build_dataset(config: ExperimentConfig, *, n_sbs: int | None = None, seed: int | None = None) -> Dataset:
    """Assemble the evaluation day, history features and placements.

    The representative day is the slot-wise mean over all days; the history
    feature for a slot is the raw load of the most recent day (every SBS
    was active while the data was recorded).
    """
    n = n_sbs if n_sbs is not None else config.n_sbs
    if config.data_source == "synthetic":
        series, placements = synthesize_traffic(
            seed=seed if seed is not None else config.base_seed,
            n_sbs=n,
            grid_side=config.grid_side,
            correlation_length_m=config.correlation_length_m,
            n_days=config.n_days,
            n_bumps=config.n_field_bumps,
            noise_std=config.noise_std,
            field_floor=config.field_floor,
        )
        n_days = config.n_days
    else:
        series = read_loads_csv(config.loads_csv, slot_minutes=config.slot_minutes)
        placements = read_placements_json(config.placements_json)
        if series.n_slots % config.slots_per_day:
            raise DataFormatError(
                f"{config.loads_csv}: {series.n_slots} slots is not a whole number of days"
            )
        n_days = min(series.n_slots // config.slots_per_day, config.n_days)
        if series.n_sbs < n:
            raise DataFormatError(
                f"{config.loads_csv}: has {series.n_sbs} SBSs, config asks for {n}"
            )
        if series.n_sbs > n or n_days * config.slots_per_day < series.n_slots:
            # first n SBSs and the first n_days days present in the input
            series = LoadSeries(
                loads=series.loads[:n, : n_days * config.slots_per_day],
                slot_minutes=series.slot_minutes,
                slots_per_day=series.slots_per_day,
            )
            placements = placements[:n]
    spd = series.slots_per_day
    # Copies the last day out of a multi-day series, so the Dataset does not
    # pin the whole series; a one-day series is contiguous and kept as is.
    history = np.ascontiguousarray(series.loads[:, (n_days - 1) * spd :])
    day = daily_average(series, n_days)
    return Dataset(day=day, history=history, placements=tuple(placements))


@dataclass
class SweepPoint:
    labels: dict
    metrics: dict
    per_iteration: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    experiment: str
    profile: str
    base_seed: int
    config: dict
    config_hash: str
    columns: tuple[str, ...]
    points: list[SweepPoint]
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "profile": self.profile,
            "base_seed": self.base_seed,
            "config": self.config,
            "config_hash": self.config_hash,
            "columns": list(self.columns),
            "points": [
                {
                    "labels": p.labels,
                    "metrics": p.metrics,
                    "per_iteration": p.per_iteration,
                }
                for p in self.points
            ],
            "metadata": self.metadata,
        }

    def csv_text(self) -> str:
        lines = [f"# config_hash={self.config_hash}", ",".join(self.columns)]
        for p in self.points:
            row = []
            for col in self.columns:
                value = p.labels.get(col, p.metrics.get(col))
                if value is None:
                    row.append("")
                elif isinstance(value, float):
                    row.append(repr(value))
                else:
                    row.append(str(value))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def report_basename(experiment: str, profile: str, seed: int) -> str:
    return f"{experiment}_{profile}_{seed}"


def write_report(report: ExperimentReport, out_dir: str | Path) -> tuple[Path, Path]:
    from .dataio import write_json

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = report_basename(report.experiment, report.profile, report.base_seed)
    csv_path = out / f"{base}.csv"
    json_path = out / f"{base}.json"
    csv_path.write_text(report.csv_text())
    write_json(report.to_json_dict(), json_path)
    return csv_path, json_path


# --------------------------------------------------------------------------
# axis builders
# --------------------------------------------------------------------------

def _neighbor_points(
    kind: str, pairs: Sequence[tuple[int, int | None]]
) -> list[tuple[dict, EstimatorConfig]]:
    """Labelled distance or random estimator configs, one per (neighbors, exponent)."""
    configs = {"distance": DistanceConfig, "random": RandomConfig}
    if kind not in configs:
        raise ValueError(f"neighbor axes need 'distance' or 'random', got {kind!r}")
    return [
        (
            {"estimator": kind, "neighbors": n, "exponent": n_exp, "layers": None},
            configs[kind](neighbors=n, weighting=n_exp),
        )
        for n, n_exp in pairs
    ]


def neighbors_axis(
    kind: str, values: Sequence[int], weighting: int | None = None
) -> list[tuple[dict, EstimatorConfig]]:
    """Sweep the neighbor count of the distance or random estimator."""
    return _neighbor_points(kind, [(n, weighting) for n in values])


def exponent_axis(kind: str, neighbors: int, values: Sequence[int]) -> list[tuple[dict, EstimatorConfig]]:
    """Sweep the inverse-distance weighting exponent at fixed neighbor count."""
    return _neighbor_points(kind, [(neighbors, n_exp) for n_exp in values])


def layers_axis(values: Sequence[int], k_override: int | None = None) -> list[tuple[dict, EstimatorConfig]]:
    """Sweep the clustering depth of the multi-level estimator."""
    return [
        (
            {"estimator": "mlc", "neighbors": None, "exponent": None, "layers": layers},
            MlcConfig(layers=layers, k_override=k_override),
        )
        for layers in values
    ]


# --------------------------------------------------------------------------
# error sweep
# --------------------------------------------------------------------------

_ERROR_COLUMNS = (
    "estimator",
    "neighbors",
    "exponent",
    "layers",
    "mean_error",
    "std_error",
    "n_included",
    "n_excluded",
)

_STATE: dict = {}


def _init_error_worker(config: ExperimentConfig, points) -> None:
    _STATE["config"] = config
    _STATE["points"] = points
    data = _STATE["dataset"] = build_dataset(config)
    _STATE["positions"] = positions_array(data.placements, data.day.n_sbs)


def _iteration_seed(config: ExperimentConfig, iteration: int) -> int:
    return config.base_seed + iteration


def _draw_sleepers(config: ExperimentConfig, iteration: int, n_sbs: int) -> np.ndarray:
    rng = np.random.default_rng(_iteration_seed(config, iteration))
    return np.sort(rng.permutation(n_sbs)[: sleeper_count(config.sleep_fraction, n_sbs)])


def _mlc_key(cfg: MlcConfig) -> tuple:
    return (cfg.k_override, cfg.kmeans_max_iter, cfg.kmeans_tol, cfg.kmeans_seed, cfg.elbow_k_max)


def _error_iteration(iteration: int) -> list[tuple[float, int, int]]:
    """Per-point (relative-error sum, included count, excluded count)."""
    config: ExperimentConfig = _STATE["config"]
    points = _STATE["points"]
    data: Dataset = _STATE["dataset"]
    pos: np.ndarray = _STATE["positions"]
    sleepers = _draw_sleepers(config, iteration, data.day.n_sbs)

    # Identical MLC settings differing only in depth share one run: layer
    # l of a deeper run equals the full run at layers=l (pure refinement).
    # Neighbor points with one selection rule and distance floor share one
    # neighbor table: the nearest-neighbor table is ranked once per
    # iteration (the sleeper set is fixed), the random draw once per slot
    # (its seed does not depend on N).
    mlc_groups: dict[tuple, int] = {}
    neighbor_groups: dict[tuple[str, float], list[int]] = {}
    for idx, (_, cfg) in enumerate(points):
        if isinstance(cfg, MlcConfig):
            key = _mlc_key(cfg)
            mlc_groups[key] = max(mlc_groups.get(key, 0), cfg.layers)
        else:
            neighbor_groups.setdefault((cfg.kind, cfg.distance_floor_m), []).append(idx)
    nearest: dict[float, NeighborTable] = {}

    totals = [(0.0, 0, 0)] * len(points)
    for slot in config.eval_slots():
        try:
            snapshot, actual = mask_sleepers(data.day.loads[:, slot], sleepers)
        except ValueError as exc:
            raise ValueError(f"iteration {iteration}, slot {slot}: {exc}") from exc
        history = data.history[:, slot]
        actual_sleep = actual[sleepers]
        estimates: dict[int, np.ndarray] = {}

        try:
            mlc_runs = {
                key: estimate(
                    MlcConfig(
                        layers=max_layers,
                        k_override=key[0],
                        kmeans_max_iter=key[1],
                        kmeans_tol=key[2],
                        kmeans_seed=key[3],
                        elbow_k_max=key[4],
                    ),
                    snapshot,
                    data.placements,
                    history,
                )
                for key, max_layers in mlc_groups.items()
            }
        except ValueError as exc:
            raise ValueError(f"iteration {iteration}, slot {slot}, estimator mlc: {exc}") from exc
        for idx, (_, cfg) in enumerate(points):
            if isinstance(cfg, MlcConfig):
                estimates[idx] = mlc_runs[_mlc_key(cfg)].layer_estimates[cfg.layers - 1]

        for (kind, floor), idxs in neighbor_groups.items():
            cfgs = [points[idx][1] for idx in idxs]
            k = max(c.neighbors for c in cfgs)
            try:
                if kind == "random":
                    seed = _iteration_seed(config, iteration) * 100_000 + slot
                    table = random_table(pos, sleepers, snapshot.active_ids, k, floor, seed)
                else:
                    if floor not in nearest:
                        nearest[floor] = nearest_table(pos, sleepers, snapshot.active_ids, k, floor)
                    table = nearest[floor]
            except ValueError as exc:
                raise ValueError(
                    f"iteration {iteration}, slot {slot}, estimator {kind}, neighbors {k}: {exc}"
                ) from exc
            point_estimates = table.estimates(snapshot.loads, [(c.neighbors, c.weighting) for c in cfgs])
            estimates.update(zip(idxs, point_estimates))

        for idx in range(len(points)):
            summary = estimation_error(actual_sleep, estimates[idx], config.epsilon)
            err_sum, n_inc, n_exc = totals[idx]
            totals[idx] = (
                err_sum + summary.mean_error * summary.n_included,
                n_inc + summary.n_included,
                n_exc + summary.n_excluded,
            )
    return totals


def run_error_sweep(
    config: ExperimentConfig,
    points: Sequence[tuple[dict, EstimatorConfig]],
    *,
    workers: int = 1,
    experiment: str = "error_sweep",
) -> ExperimentReport:
    """Mean estimation error per sweep point, pooled over iterations and slots."""
    if not points:
        raise ValueError("run_error_sweep needs at least one sweep point")
    t0 = time.perf_counter()
    per_iter = _map_iterations(
        _init_error_worker, (config, list(points)), _error_iteration, config.n_iterations, workers
    )

    report_points = []
    for idx, (labels, _) in enumerate(points):
        sums = np.array([it[idx][0] for it in per_iter])
        incs = np.array([it[idx][1] for it in per_iter])
        excs = np.array([it[idx][2] for it in per_iter])
        iter_means = [s / n if n else float("nan") for s, n in zip(sums, incs)]
        total_inc = int(incs.sum())
        mean_error = float(sums.sum() / total_inc) if total_inc else float("nan")
        std_error = float(np.std(np.array(iter_means)))
        report_points.append(
            SweepPoint(
                labels=dict(labels),
                metrics={
                    "mean_error": mean_error,
                    "std_error": std_error,
                    "n_included": total_inc,
                    "n_excluded": int(excs.sum()),
                },
                per_iteration={"mean_error": [float(m) for m in iter_means]},
            )
        )
    return ExperimentReport(
        experiment=experiment,
        profile=config.profile,
        base_seed=config.base_seed,
        config=config.to_dict(),
        config_hash=config_hash(config),
        columns=_ERROR_COLUMNS,
        points=report_points,
        metadata={"wall_clock_s": time.perf_counter() - t0, "epsilon": config.epsilon},
    )


# --------------------------------------------------------------------------
# decision and power sweeps
# --------------------------------------------------------------------------

_DECISION_COLUMNS = (
    "n_sbs",
    "layers",
    "estimator",
    "optimizer",
    "decision_change_rate",
    "std_change_rate",
    "n_iterations",
)

_POWER_COLUMNS = (
    "n_sbs",
    "layers",
    "estimator",
    "optimizer",
    "power_actual_w",
    "power_deployed_w",
    "power_estimated_naive_w",
    "gap_w",
    "gap_rel",
    "n_iterations",
)


def _optimize(config: ExperimentConfig, loads: np.ndarray, power_cfg, scales) -> SwitchingSolution:
    if loads.shape[0] <= config.exhaustive_cap:
        return optimize_exhaustive(
            loads, config.base_mbs_load, config.base_haps_load, power_cfg, scales
        )
    return optimize_greedy(loads, config.base_mbs_load, config.base_haps_load, power_cfg, scales)


def _init_switch_worker(config: ExperimentConfig, s_values, l_values) -> None:
    _STATE["config"] = config
    _STATE["l_values"] = tuple(l_values)
    _STATE["datasets"] = {s: build_dataset(config, n_sbs=s, seed=config.base_seed + s) for s in s_values}
    _STATE["power_cfgs"] = {
        s: NetworkPowerConfig.uniform(config.haps_power, config.mbs_power, config.sbs_power, s)
        for s in s_values
    }
    _STATE["scales"] = OffloadScales(to_mbs=config.offload_to_mbs, to_haps=config.offload_to_haps)


def _switch_iteration(task: tuple[int, int]) -> dict:
    """One (network size, iteration) cell: optimize actual, perfect and per-L estimates."""
    s, iteration = task
    config: ExperimentConfig = _STATE["config"]
    l_values: tuple[int, ...] = _STATE["l_values"]
    data: Dataset = _STATE["datasets"][s]
    power_cfg = _STATE["power_cfgs"][s]
    scales: OffloadScales = _STATE["scales"]

    slots = config.eval_slots()
    slot = slots[iteration % len(slots)]
    sleepers = _draw_sleepers(config, iteration, s)
    snapshot, actual = mask_sleepers(data.day.loads[:, slot], sleepers)
    history = data.history[:, slot]

    actual_sol = _optimize(config, actual, power_cfg, scales)

    out: dict = {"power_actual": actual_sol.power, "by_estimator": {}}

    def evaluate(estimates: np.ndarray) -> dict:
        filled = actual.copy()
        filled[sleepers] = estimates
        est_sol = _optimize(config, filled, power_cfg, scales)
        deployed_cap = apply_offloads(
            config.base_mbs_load, config.base_haps_load, actual, est_sol.state, scales
        )
        # A decision that overloads a tier at the actual loads is recorded as
        # infeasible and priced with that tier at full load.
        deployed_power = network_power(
            power_cfg, min(deployed_cap.haps_load, 1.0), min(deployed_cap.mbs_load, 1.0),
            actual, est_sol.state == ON,
        )
        return {
            "rate": decision_change_rate(actual_sol.state, est_sol.state),
            "deployed": deployed_power,
            "naive": est_sol.power,
            "gap": deployed_power - actual_sol.power,
            "deployed_feasible": deployed_cap.feasible,
        }

    out["by_estimator"]["perfect"] = evaluate(actual[sleepers].copy())
    if l_values:
        max_l = max(l_values)
        mlc = estimate(
            MlcConfig(layers=max_l, k_override=config.mlc_k_override),
            snapshot,
            data.placements,
            history,
        )
        for layers in l_values:
            out["by_estimator"][layers] = evaluate(mlc.layer_estimates[layers - 1])
    return out


def _mean(values: np.ndarray) -> float:
    """Mean of ``values``, NaN when empty."""
    return float(values.mean()) if values.size else float("nan")


def _switching_report(
    experiment: str,
    columns: tuple[str, ...],
    config: ExperimentConfig,
    s_values: Sequence[int],
    l_values: Sequence[int],
    workers: int,
) -> ExperimentReport:
    """Optimize actual, perfect and per-L estimated loads for every (s, iteration)."""
    for s in s_values:
        if s < 2:
            raise ValueError("switching sweeps need n_sbs >= 2 per point")
    tasks = [(s, i) for s in s_values for i in range(config.n_iterations)]
    t0 = time.perf_counter()
    results = _map_iterations(
        _init_switch_worker, (config, tuple(s_values), tuple(l_values)), _switch_iteration, tasks, workers
    )
    by_s: dict[int, list[dict]] = {s: [] for s in s_values}
    for (s, _), res in zip(tasks, results):
        by_s[s].append(res)

    points = []
    estimator_keys: list[tuple[str, object]] = [("perfect", "perfect")] + [
        ("mlc", layers) for layers in l_values
    ]
    for s in s_values:
        optimizer = "exhaustive" if s <= config.exhaustive_cap else "greedy"
        for estimator, key in estimator_keys:
            rows = [r["by_estimator"][key if estimator == "mlc" else "perfect"] for r in by_s[s]]
            rates = np.array([r["rate"] for r in rows])
            deployed = np.array([r["deployed"] for r in rows])
            naive = np.array([r["naive"] for r in rows])
            gaps = np.array([r["gap"] for r in rows])
            actuals = np.array([r["power_actual"] for r in by_s[s]])
            # An infeasible deployed decision is priced with the overloaded
            # tier capped at full load, which understates its cost: the
            # deployed-power and gap means cover feasible iterations only.
            feasible = np.array([r["deployed_feasible"] for r in rows], dtype=bool)
            points.append(
                SweepPoint(
                    labels={
                        "n_sbs": s,
                        "layers": key if estimator == "mlc" else None,
                        "estimator": estimator,
                        "optimizer": optimizer,
                    },
                    metrics={
                        "decision_change_rate": float(rates.mean()),
                        "std_change_rate": float(rates.std()),
                        "power_actual_w": float(actuals.mean()),
                        "power_deployed_w": _mean(deployed[feasible]),
                        "power_estimated_naive_w": float(naive.mean()),
                        "gap_w": _mean(gaps[feasible]),
                        "gap_rel": _mean((gaps / actuals)[feasible]),
                        "n_iterations": len(rows),
                    },
                    per_iteration={
                        "decision_change_rate": rates.tolist(),
                        "gap_w": gaps.tolist(),
                        "power_actual_w": actuals.tolist(),
                        "deployed_feasible": [bool(r["deployed_feasible"]) for r in rows],
                    },
                )
            )
    return ExperimentReport(
        experiment=experiment,
        profile=config.profile,
        base_seed=config.base_seed,
        config=config.to_dict(),
        config_hash=config_hash(config),
        columns=columns,
        points=points,
        metadata={
            "wall_clock_s": time.perf_counter() - t0,
            "optimizer_by_s": {
                str(s): ("exhaustive" if s <= config.exhaustive_cap else "greedy") for s in s_values
            },
            "deployed_infeasible_per_point": [
                p.per_iteration["deployed_feasible"].count(False) for p in points
            ],
        },
    )


def run_decision_sweep(
    config: ExperimentConfig,
    s_values: Sequence[int],
    l_values: Sequence[int],
    *,
    workers: int = 1,
) -> ExperimentReport:
    """Switch-off decision disagreement between actual and estimated loads."""
    return _switching_report("decision_sweep", _DECISION_COLUMNS, config, s_values, l_values, workers)


def run_power_sweep(
    config: ExperimentConfig,
    s_values: Sequence[int],
    l_values: Sequence[int],
    *,
    workers: int = 1,
) -> ExperimentReport:
    """Actual-optimal power next to the deployed cost of estimated decisions."""
    return _switching_report("power_sweep", _POWER_COLUMNS, config, s_values, l_values, workers)


# --------------------------------------------------------------------------
# worker plumbing
# --------------------------------------------------------------------------

def _map_iterations(initializer: Callable, initargs: tuple, fn: Callable, tasks, workers: int) -> list:
    """Run fn over tasks with deterministic ordering, inline or in a pool."""
    if isinstance(tasks, int):
        tasks = range(tasks)
    tasks = list(tasks)
    if workers <= 1:
        initializer(*initargs)
        try:
            return [fn(t) for t in tasks]
        finally:
            _STATE.clear()
    with ProcessPoolExecutor(max_workers=workers, initializer=initializer, initargs=initargs) as pool:
        return list(pool.map(fn, tasks))
