"""Reproducible experiment sweeps over estimators and network sizes.

Three study families are provided:

* error sweeps over an estimator axis (neighbor count, weighting exponent,
  clustering layers),
* decision sweeps comparing the optimizer's switch-off vector under actual
  versus estimated loads,
* power sweeps pricing the estimated-load decision at the actual loads
  (the deployed cost) next to the actual optimum.

Each figure of the paper (``run_figure``) is one study over named grids,
each with one default and one check (``_GRIDS``); every grid names each
value once (``_check_grid``).

Every iteration i draws its sleeping set from seed ``base_seed + i``, so a
report is a pure function of (config, seed); worker processes only change
wall-clock time, never a reported digit. Both sweep families hand runs of
iterations (``_iteration_runs``: at most ``_MLC_BATCH_ROWS`` SBS x slot rows
each, and at least one per worker) to workers that one initializer sets up
(``_init_worker``). Every precondition that does not depend on the data (an
SBS stays active, each neighbor group finds its K) is checked once, in the
parent, before the first task. An error sweep groups its points once: MLC
points by their ``k_override``, neighbor points by selection rule. An
error run estimates the evaluation slots of all its iterations together:
each MLC group answers the run's iterations x slots in one call, one
sleeper mask per row, and neighbor tables stay per iteration. An
iteration above the cap runs alone, its slots in batches. Each
iteration's error sum adds its slots' sums left to right in slot order,
and every pooled report number goes through ``_moments``. A switching
run is at one network size, and each of its iterations has its own sleeper
set and slot. Every task returns plain numbers (``_error_run``,
``_switch_run``): per-point aggregates go to the CSV, per-iteration details
and timing to the JSON sidecar.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import ExperimentConfig, config_hash, draw_sleepers
from .dataio import read_loads_csv, read_placements_json, write_json
from .errors import DataFormatError, GridError
from .estimators import (
    DistanceConfig,
    ErrorUndefined,
    EstimatorConfig,
    MlcConfig,
    RandomConfig,
    estimation_error,
)
from .estimators.mlc import mlc_layers
from .estimators.neighbors import _check_active, nearest_table, positions_array, random_table
from .power import NetworkPowerConfig
from .switching import (
    OffloadScales,
    SwitchingSolution,
    _change_rate,
    _priced,
    optimize_exhaustive,
    optimize_greedy,
)
from .traffic import (
    LoadSeries,
    SbsPlacement,
    _synthetic_row_blocks,
    sleep_mask,
)


@dataclass(frozen=True)
class Dataset:
    """The representative day and history features at the evaluated slots, and the SBS positions.

    Column j of ``loads`` and ``history`` is slot ``config.eval_slots()[j]``
    of the config the dataset was built from. Row i of ``positions`` is
    SBS i's planar coordinates in meters: what ``positions_array`` makes of
    the placements, which a synthetic build never creates as objects. All
    three arrays are read-only.
    """

    loads: np.ndarray  # (n_sbs, len(slots)): the slot-wise mean over all days
    history: np.ndarray  # (n_sbs, len(slots)): the most recent raw day
    positions: np.ndarray  # (n_sbs, 2)


def build_dataset(config: ExperimentConfig, *, n_sbs: int | None = None, seed: int | None = None) -> Dataset:
    """Assemble the evaluated slots' loads and history features, and the SBS positions.

    The representative day is the slot-wise mean over all days; the history
    feature for a slot is the raw load of the most recent day (every SBS
    was active while the data was recorded). Only ``config.eval_slots()``
    are kept, and a synthetic build finishes no other slot (see ``_dataset``).
    """
    n = n_sbs if n_sbs is not None else config.n_sbs
    if config.data_source == "synthetic":
        _, positions, blocks = _synthetic_row_blocks(
            seed if seed is not None else config.base_seed,
            n,
            config.grid_side,
            config.correlation_length_m,
            slots_per_day=config.slots_per_day,
            n_days=config.n_days,
            n_bumps=config.n_field_bumps,
            noise_std=config.noise_std,
            field_floor=config.field_floor,
            slot_stride=config.slot_stride,
        )
        return _dataset(blocks, positions, n, len(config.eval_slots()))
    return _first_sbs(config, _read_milan(config), n)


def _read_milan(config: ExperimentConfig) -> tuple[LoadSeries, tuple[SbsPlacement, ...]]:
    """The measured loads (whole days, at most ``config.n_days``) and placements."""
    series = read_loads_csv(config.loads_csv, slot_minutes=config.slot_minutes)
    placements = read_placements_json(config.placements_json)
    if series.n_slots % config.slots_per_day:
        raise DataFormatError(
            f"{config.loads_csv}: {series.n_slots} slots is not a whole number of days"
        )
    n_slots = min(series.n_slots // config.slots_per_day, config.n_days) * config.slots_per_day
    if n_slots < series.n_slots:
        series = LoadSeries(loads=series.loads[:, :n_slots], slot_minutes=series.slot_minutes)
    return series, tuple(placements)


def _first_sbs(
    config: ExperimentConfig, milan: tuple[LoadSeries, tuple[SbsPlacement, ...]], n: int
) -> Dataset:
    """The Dataset of SBSs 0..n-1 of measured data from ``_read_milan``.

    Their placements are chosen by ``sbs_id``, in whatever order the file
    lists them, and become the positions array here, once per size.
    """
    series, placements = milan
    if series.n_sbs < n:
        raise DataFormatError(f"{config.loads_csv}: has {series.n_sbs} SBSs, config asks for {n}")
    spd = series.slots_per_day
    days = series.loads[:n].reshape(n, series.n_slots // spd, spd)[..., :: config.slot_stride]
    positions = positions_array([p for p in placements if p.sbs_id < n], n)
    return _dataset([days], positions, n, len(config.eval_slots()))


def _dataset(blocks: Iterable[np.ndarray], positions: np.ndarray, n_sbs: int, n_slots: int) -> Dataset:
    """Fold consecutive (rows, n_days, n_slots) blocks of whole SBS rows into a Dataset.

    The days are added in day order and divided once by their count: the
    bits of ``daily_average``'s ``mean(axis=1)`` over the whole day, which
    a reduction over a few (strided) slots would not keep, as it may sum
    pairwise. The history is a copy of the last day, so no block outlives
    the loop.
    """
    loads = np.empty((n_sbs, n_slots))
    history = np.empty((n_sbs, n_slots))
    r0 = 0
    for block in blocks:
        r1 = r0 + block.shape[0]
        fold = loads[r0:r1]
        fold[...] = block[:, 0]
        for d in range(1, block.shape[1]):
            fold += block[:, d]
        fold /= block.shape[1]
        history[r0:r1] = block[:, -1]
        r0 = r1
    for array in (loads, history, positions):
        array.setflags(write=False)
    return Dataset(loads=loads, history=history, positions=positions)


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
        """The report as plain data: ``dataclasses.asdict`` without its deep copies."""
        return {**vars(self), "points": [vars(p) for p in self.points]}

    def csv_text(self) -> str:
        lines = [f"# config_hash={self.config_hash}", ",".join(self.columns)]
        for p in self.points:
            values = [p.labels.get(col, p.metrics.get(col)) for col in self.columns]
            cells = ("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _report(
    experiment: str, config: ExperimentConfig, columns, points: list[SweepPoint], t0: float, **metadata
) -> ExperimentReport:
    """The report of ``points``, stamped with the config and the wall clock since ``t0``."""
    return ExperimentReport(
        experiment=experiment,
        profile=config.profile,
        base_seed=config.base_seed,
        config=config.to_dict(),
        config_hash=config_hash(config),
        columns=columns,
        points=points,
        metadata={"wall_clock_s": time.perf_counter() - t0, **metadata},
    )


def report_basename(experiment: str, profile: str, seed: int) -> str:
    return f"{experiment}_{profile}_{seed}"


def write_report(report: ExperimentReport, out_dir: str | Path) -> tuple[Path, Path]:
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

def neighbors_axis(
    kind: str, values: Sequence[int], weighting: int | None = None
) -> list[tuple[dict, EstimatorConfig]]:
    """Sweep the neighbor count of the distance or random estimator at one weighting exponent."""
    configs = {"distance": DistanceConfig, "random": RandomConfig}
    if kind not in configs:
        raise ValueError(f"neighbor axes need 'distance' or 'random', got {kind!r}")
    return [
        (
            {"estimator": kind, "neighbors": n, "exponent": weighting, "layers": None},
            configs[kind](neighbors=n, weighting=weighting),
        )
        for n in values
    ]


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

# SBS x slot rows that one batched MLC call clusters at most: 27 desk
# iterations of 12 slots (n=100) in one call, 6 paper slots (n=5000) per
# call, which bounds the layer-wide Lloyd arrays of a paper-scale iteration.
# A switching run at size s clusters at most this many // s iterations.
_MLC_BATCH_ROWS = 1 << 15


def _plan_points(points: Sequence[tuple[dict, EstimatorConfig]]) -> tuple[int, list, list]:
    """Group sweep points by the one estimator run that answers them.

    MLC points with one ``k_override`` share a run at the group's deepest
    depth: layer l of a deeper run equals the full run at layers=l (pure
    refinement). Neighbor points with one selection rule share one table of
    the group's largest N: an N-neighbor set is the first N columns, and the
    random draw's seed does not depend on N. Returns the point count, MLC
    groups (deepest config, point indices, 0-based depths) and neighbor
    groups (kind, K, point indices, (N, exponent) pairs), each in order of
    first appearance.
    """
    mlc: dict[int | None, list[int]] = {}
    neighbor: dict[str, list[int]] = {}
    cfgs = [cfg for _, cfg in points]
    for idx, cfg in enumerate(cfgs):
        if isinstance(cfg, MlcConfig):
            mlc.setdefault(cfg.k_override, []).append(idx)
        else:
            neighbor.setdefault(cfg.kind, []).append(idx)
    mlc_groups = [
        (MlcConfig(max(cfgs[i].layers for i in idxs), k_override), idxs, [cfgs[i].layers - 1 for i in idxs])
        for k_override, idxs in mlc.items()
    ]
    neighbor_groups = [
        (kind, max(cfgs[i].neighbors for i in idxs), idxs,
         [(cfgs[i].neighbors, cfgs[i].weighting) for i in idxs])
        for kind, idxs in neighbor.items()
    ]
    return len(cfgs), mlc_groups, neighbor_groups


def _init_worker(config: ExperimentConfig, plan, seeds: dict[int, int]) -> None:
    """A worker of either family: ``plan`` is ``_plan_points``' result or the depths, and
    ``seeds`` maps each size to its synthetic seed. Measured data is read once for all sizes."""
    _STATE["config"], _STATE["plan"] = config, plan
    if config.data_source == "milan":
        milan = _read_milan(config)
        _STATE["data"] = {n: _first_sbs(config, milan, n) for n in seeds}
    else:
        _STATE["data"] = {n: build_dataset(config, n_sbs=n, seed=seed) for n, seed in seeds.items()}


def _init_pool_worker(*initargs) -> None:
    """``_init_worker`` in a pool process, its exception kept for every task to
    raise (``_pool_task``): raised by an initializer, it would break the pool."""
    try:
        _init_worker(*initargs)
    except Exception as exc:
        _STATE["error"] = exc


def _pool_task(fn: Callable, task):
    """fn(task) in a pool process, or the exception its worker's setup raised."""
    if "error" in _STATE:
        raise _STATE["error"]
    return fn(task)


def _check_preconditions(config: ExperimentConfig, n: int, where: str, neighbor_groups=()) -> None:
    """Fail, before any task, where every iteration at ``n`` SBSs would: each draws
    ``sleeper_count(sleep_fraction, n)`` sleepers, so iteration 0's set decides for all."""
    try:
        active = np.flatnonzero(sleep_mask(n, _draw_sleepers(config, 0, n)))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    for kind, k, _, _ in neighbor_groups:
        try:
            _check_active(k, active)
        except ValueError as exc:
            raise ValueError(f"{where}, estimator {kind}, neighbors {k}: {exc}") from exc


def _draw_sleepers(config: ExperimentConfig, iteration: int, n_sbs: int) -> np.ndarray:
    return draw_sleepers(config.sleep_fraction, n_sbs, config.base_seed + iteration)


def _iteration_runs(n_iterations: int, rows: int, workers: int) -> list[tuple[int, int]]:
    """Iterations split into runs ``(first, stop)`` of at most ``_MLC_BATCH_ROWS`` rows.

    ``rows`` is what one iteration adds to an MLC call. A run is also short
    enough that every worker gets one; an iteration above the cap runs alone.
    """
    run = max(1, min(_MLC_BATCH_ROWS // rows, -(-n_iterations // workers)))
    return [(i, min(i + run, n_iterations)) for i in range(0, n_iterations, run)]


def _error_run(task: tuple[int, int]) -> np.ndarray:
    """Iterations ``first .. stop - 1``: (iterations, points, 3), each point's
    relative-error sum, included and excluded counts.

    A slot batch's rows are iteration-major: iteration r's slots are rows
    r * B .. r * B + B - 1, each with its iteration's sleepers.
    """
    first, stop = task
    config: ExperimentConfig = _STATE["config"]
    n_points, mlc_groups, neighbor_groups = _STATE["plan"]
    n, n_iter = config.n_sbs, stop - first
    data: Dataset = _STATE["data"][n]
    pos = data.positions
    slots = config.eval_slots()
    sleepers = [_draw_sleepers(config, i, n) for i in range(first, stop)]
    known = np.array([sleep_mask(n, ids) for ids in sleepers])
    m = sleepers[0].size

    # The nearest table is ranked once per iteration (row r); a random table
    # holds one draw per slot of its batch.
    nearest = {}
    batch = max(1, _MLC_BATCH_ROWS // (n * n_iter))
    totals = np.zeros((n_iter, n_points, 3))
    for b0 in range(0, len(slots), batch):
        cols = slots[b0 : b0 + batch]
        loads, history = data.loads[:, b0 : b0 + batch].T, data.history[:, b0 : b0 + batch].T
        rows_loads, rows_known = np.tile(loads, (n_iter, 1)), np.repeat(known, len(cols), axis=0)
        estimates = np.empty((n_points, n_iter * len(cols), m))
        for deepest, idxs, depths in mlc_groups:
            run = mlc_layers(rows_loads, np.tile(history, (n_iter, 1)), rows_known, deepest)[0]
            estimates[idxs] = run[:, depths].swapaxes(0, 1)
        for r, i in enumerate(range(first, stop)):
            active = np.flatnonzero(known[r])
            rows = slice(r * len(cols), (r + 1) * len(cols))
            for kind, k, idxs, pairs in neighbor_groups:
                if kind == "random":
                    seeds = [(config.base_seed + i) * 100_000 + slot for slot in cols]
                    table = random_table(pos, sleepers[r], active, k, seeds)
                elif r in nearest:
                    table = nearest[r]
                else:
                    table = nearest[r] = nearest_table(pos, sleepers[r], active, k)
                estimates[idxs, rows] = table.estimates(loads, pairs)

        # Per iteration and point, each slot's error sum is added to the
        # running total left to right, in slot order.
        try:
            error = estimation_error(rows_loads[~rows_known].reshape(-1, m), estimates, config.epsilon)
        except ErrorUndefined as exc:
            r, col = divmod(exc.row, len(cols))
            raise ValueError(f"iteration {first + r}, slot {cols[col]}: {exc}") from exc
        by_slot = error.total_error.reshape(n_points, n_iter, -1).swapaxes(0, 1)
        totals[..., 0] = _moments(np.concatenate([totals[..., :1], by_slot], axis=2))[0]
        counts = np.stack([error.n_included, error.n_excluded], axis=1)
        totals[..., 1:] += counts.reshape(n_iter, -1, 2).sum(axis=1)[:, None]
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
    _check_grid("points", [labels for labels, _ in points])
    t0 = time.perf_counter()
    plan = _plan_points(points)
    slots = config.eval_slots()
    _check_preconditions(config, config.n_sbs, f"iteration 0, slot {slots[0]}", plan[2])
    runs = _map_iterations(
        _error_run, _iteration_runs(config.n_iterations, config.n_sbs * len(slots), workers), workers,
        (config, plan, {config.n_sbs: config.base_seed}),
    )
    # (points, iterations) per column; every sum below runs in iteration order.
    per_iteration = np.concatenate(runs).transpose(2, 1, 0)
    err, n, x = _moments(per_iteration)[0]
    iter_means = per_iteration[0] / per_iteration[1]  # every slot includes at least one sleeper
    std = _moments(iter_means)[2]
    report_points = [
        SweepPoint(
            labels=dict(labels),
            metrics={
                "mean_error": float(err[p] / n[p]),
                "std_error": float(std[p]),
                "n_included": int(n[p]),
                "n_excluded": int(x[p]),
            },
            per_iteration={"mean_error": iter_means[p].tolist()},
        )
        for p, (labels, _) in enumerate(points)
    ]
    return _report(experiment, config, _ERROR_COLUMNS, report_points, t0, workers=workers, epsilon=config.epsilon)


# --------------------------------------------------------------------------
# decision and power sweeps
# --------------------------------------------------------------------------

_SWITCHING_LABELS = ("n_sbs", "layers", "estimator", "optimizer")
_DECISION_COLUMNS = (*_SWITCHING_LABELS, "decision_change_rate", "std_change_rate", "n_iterations")
_POWER_COLUMNS = (
    *_SWITCHING_LABELS,
    "power_actual_w", "power_deployed_w", "power_estimated_naive_w", "gap_w", "gap_rel", "n_iterations",
)


def optimizer_name(config: ExperimentConfig, n_sbs: int, choice: str = "auto") -> str:
    """The optimizer ``choice`` names; "auto" is exhaustive up to ``exhaustive_cap`` SBSs, else greedy."""
    if choice != "auto":
        return choice
    return "exhaustive" if n_sbs <= config.exhaustive_cap else "greedy"


def _switching_model(config: ExperimentConfig, n_sbs: int) -> tuple[NetworkPowerConfig, OffloadScales]:
    """The power coefficients and offload scales of ``config`` for a network of ``n_sbs`` SBSs."""
    power_cfg = NetworkPowerConfig(config.haps_power, config.mbs_power, config.sbs_power, n_sbs)
    return power_cfg, OffloadScales(to_mbs=config.offload_to_mbs, to_haps=config.offload_to_haps)


def optimize(config: ExperimentConfig, loads, choice: str = "auto") -> SwitchingSolution:
    """Minimize network power at ``loads`` with the optimizer ``optimizer_name`` picks."""
    exhaustive = optimizer_name(config, loads.shape[0], choice) == "exhaustive"
    search = optimize_exhaustive if exhaustive else optimize_greedy
    power_cfg, scales = _switching_model(config, loads.shape[0])
    return search(loads, config.base_mbs_load, config.base_haps_load, power_cfg, scales)


def _switch_run(task: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Iterations ``first .. stop - 1`` at one network size: (iterations,) and (iterations, E, 5).

    Per iteration, the actual optimum's power and one row (change rate,
    deployed power, naive power, gap, deployed feasible) per estimator e:
    perfect estimates first, then MLC at each depth in ``l_values`` order.
    Each iteration draws its own sleeper set and slot; one ``mlc_layers``
    call estimates them all, every row as it would alone.
    """
    s, first, stop = task
    config: ExperimentConfig = _STATE["config"]
    l_values: tuple[int, ...] = _STATE["plan"]
    data: Dataset = _STATE["data"][s]
    power_cfg, scales = _switching_model(config, s)

    # Iteration i takes the dataset's column i % len(eval_slots()).
    cols = [i % data.loads.shape[1] for i in range(first, stop)]
    known = np.array([sleep_mask(s, _draw_sleepers(config, i, s)) for i in range(first, stop)])
    actuals = data.loads[:, cols].T
    mlc = None
    if l_values:
        mlc = mlc_layers(
            actuals, data.history[:, cols].T, known,
            MlcConfig(layers=max(l_values), k_override=config.mlc_k_override),
        )[0]

    powers, rows = [], []
    for r, (actual, known_mask) in enumerate(zip(actuals, known)):
        sleepers = np.flatnonzero(~known_mask)
        actual_sol = optimize(config, actual)

        def estimated(estimates: np.ndarray) -> SwitchingSolution:
            filled = actual.copy()
            filled[sleepers] = estimates
            return optimize(config, filled)

        def evaluate(est_sol: SwitchingSolution) -> tuple[float, float, float, float, bool]:
            # A decision that overloads a tier at the actual loads is recorded
            # as infeasible and priced with that tier at full load.
            deployed_cap, deployed_power = _priced(
                est_sol.state, actual, config.base_mbs_load, config.base_haps_load, power_cfg, scales
            )
            return (
                _change_rate(actual_sol.state, est_sol.state),
                deployed_power,
                est_sol.power,
                deployed_power - actual_sol.power,
                deployed_cap.feasible,
            )

        powers.append(actual_sol.power)
        # Perfect estimates fill in the actual loads bit for bit: their decision
        # is the actual optimum, which fits, so it deploys at its own power.
        perfect = (0.0, actual_sol.power, actual_sol.power, 0.0, True)
        rows.append([perfect] + [evaluate(estimated(mlc[r, layers - 1])) for layers in l_values])
    return np.array(powers), np.array(rows, dtype=float)


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum, mean and population standard deviation of ``values`` along its last axis.

    The one order of every pooled report number: each sum adds its terms
    left to right in index order (``np.cumsum``), the mean is the sum over
    the count, and the deviation is the root of the squared deviations'
    sum over the count. No values give sum 0.0 and NaN mean and deviation.
    """
    count = values.shape[-1]
    if count == 0:
        nan = np.full(values.shape[:-1], np.nan)
        return np.zeros(values.shape[:-1]), nan, nan
    total = np.cumsum(values, axis=-1)[..., -1]
    mean = total / count
    dev = values - mean[..., None]
    return total, mean, np.sqrt(np.cumsum(dev * dev, axis=-1)[..., -1] / count)


def _mean(values: np.ndarray) -> float:
    """Mean of ``values`` (``_moments``), NaN when empty."""
    return float(_moments(values)[1])


def check_switching_size(s: int) -> None:
    """A switching sweep's network size: at least 2 SBSs, checked before any
    draw (``rng.permutation`` rejects a negative size)."""
    if s < 2:
        raise ValueError(f"switching sweeps need n_sbs >= 2 per point, got {s}")


def _switching_report(
    experiment: str,
    columns: tuple[str, ...],
    config: ExperimentConfig,
    s_values: Sequence[int],
    l_values: Sequence[int],
    workers: int,
) -> ExperimentReport:
    """Optimize actual, perfect and per-L estimated loads for every (s, iteration)."""
    _check_grid("s_values", s_values)
    _check_grid("l_values", l_values)  # a run reads only the deepest depth
    for s in s_values:
        _check_preconditions(config, s, f"n_sbs {s}")
    # Runs of iterations per size; an iteration adds one slot row of s SBSs.
    tasks = [(s, *run) for s in s_values for run in _iteration_runs(config.n_iterations, s, workers)]
    t0 = time.perf_counter()
    runs = _map_iterations(
        _switch_run, tasks, workers, (config, tuple(l_values), {s: config.base_seed + s for s in s_values})
    )

    points = []
    estimators = [("perfect", None)] + [("mlc", layers) for layers in l_values]
    for s in s_values:
        at_s = [run for (size, _, _), run in zip(tasks, runs) if size == s]
        actuals = np.concatenate([powers for powers, _ in at_s])
        table = np.concatenate([rows for _, rows in at_s]).transpose(1, 2, 0)  # (estimators, 5, iterations)
        for (estimator, layers), (rates, deployed, naive, gaps, feasible) in zip(estimators, table):
            # An infeasible deployed decision is priced with the overloaded
            # tier capped at full load, which understates its cost: the
            # deployed-power and gap means cover feasible iterations only.
            feasible = feasible.astype(bool)
            points.append(
                SweepPoint(
                    labels={
                        "n_sbs": s,
                        "layers": layers,
                        "estimator": estimator,
                        "optimizer": optimizer_name(config, s),
                    },
                    metrics={
                        "decision_change_rate": _mean(rates),
                        "std_change_rate": float(_moments(rates)[2]),
                        "power_actual_w": _mean(actuals),
                        "power_deployed_w": _mean(deployed[feasible]),
                        "power_estimated_naive_w": _mean(naive),
                        "gap_w": _mean(gaps[feasible]),
                        "gap_rel": _mean((gaps / actuals)[feasible]),
                        "n_iterations": rates.size,
                    },
                    per_iteration={
                        "decision_change_rate": rates.tolist(),
                        "gap_w": gaps.tolist(),
                        "power_actual_w": actuals.tolist(),
                        "deployed_feasible": feasible.tolist(),
                    },
                )
            )
    return _report(
        experiment, config, columns, points, t0, workers=workers,
        optimizer_by_s={str(s): optimizer_name(config, s) for s in s_values},
        deployed_infeasible_per_point=[p.per_iteration["deployed_feasible"].count(False) for p in points],
    )


def run_decision_sweep(
    config: ExperimentConfig,
    s_values: Sequence[int],
    l_values: Sequence[int],
    *,
    workers: int = 1,
    experiment: str = "decision_sweep",
) -> ExperimentReport:
    """Switch-off decision disagreement between actual and estimated loads."""
    return _switching_report(experiment, _DECISION_COLUMNS, config, s_values, l_values, workers)


def run_power_sweep(
    config: ExperimentConfig,
    s_values: Sequence[int],
    l_values: Sequence[int],
    *,
    workers: int = 1,
    experiment: str = "power_sweep",
) -> ExperimentReport:
    """Actual-optimal power next to the deployed cost of estimated decisions."""
    return _switching_report(experiment, _POWER_COLUMNS, config, s_values, l_values, workers)


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------

FIGURES = ("fig2", "fig3", "fig4", "fig5")

_N_GRID = (1, 5, 10, 20, 30, 40, 50, 60)

# Each grid of the figures: its default at a config, and the one check of a value.
_GRIDS: dict[str, tuple[Callable, Callable]] = {
    "n_values": (
        lambda config: [n for n in _N_GRID if n < config.n_sbs - config.n_sleepers],
        lambda n: DistanceConfig(neighbors=n),
    ),
    "exponents": (lambda config: [1, 3, 5, 10], lambda n_exp: DistanceConfig(weighting=n_exp)),
    "s_values": (lambda config: [6, 10, 14] if config.profile == "desk" else [10, 30, 50, 70], check_switching_size),
    "l_values": (lambda config: list(range(1, 8)), lambda layers: MlcConfig(layers=layers)),
}


def _check_grid(grid: str, values: Sequence) -> None:
    """The one grid rule: each value passes its check (``_GRIDS``; a sweep point's config
    checks itself) and appears once, as it names its own report rows."""
    try:
        for idx, value in enumerate(values):
            if grid in _GRIDS:
                _GRIDS[grid][1](value)
            if value in values[:idx]:
                raise ValueError(f"{value} is repeated")
    except ValueError as exc:
        raise GridError(grid, exc) from exc


def _figure(figure: str, config: ExperimentConfig, **overrides) -> tuple[Callable, tuple]:
    """The sweep that makes ``figure`` at ``config``, and its arguments after the config.

    A grid is its override, or else its default at ``config``. Every
    override is checked, the figure's own or not; an empty one is rejected.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {', '.join(FIGURES)}")
    grids = {grid: default(config) for grid, (default, _) in _GRIDS.items()}
    for grid, values in overrides.items():
        if grid not in grids:
            raise TypeError(f"unknown grid {grid!r}")
        if values is not None:
            grids[grid] = values = list(values)
            if not values:
                raise GridError(grid, "no values")
            _check_grid(grid, values)
    n_values, exponents, s_values, l_values = grids.values()
    if figure == "fig2":
        return run_error_sweep, ([p for n_exp in exponents for p in neighbors_axis("distance", n_values, n_exp)],)
    if figure == "fig3":
        return run_error_sweep, (
            layers_axis(l_values, k_override=config.mlc_k_override)
            + neighbors_axis("distance", n_values)
            + neighbors_axis("random", n_values, weighting=1),
        )
    return (run_decision_sweep if figure == "fig4" else run_power_sweep), (s_values, l_values)


def run_figure(figure: str, config: ExperimentConfig, *, workers: int = 1, **grids) -> ExperimentReport:
    """The study of a figure in ``FIGURES`` at ``config``, its report named after it.

    ``grids`` overrides any of ``_GRIDS``; a bad one raises ``GridError`` before any work.
    """
    sweep, args = _figure(figure, config, **grids)
    return sweep(config, *args, workers=workers, experiment=figure)


# --------------------------------------------------------------------------
# worker plumbing
# --------------------------------------------------------------------------

def _map_iterations(fn: Callable, tasks: list, workers: int, initargs: tuple) -> list:
    """Run fn over tasks in order, inline or in a pool of workers set up by
    ``_init_worker``, at most one per task (an idle one would still build the data)."""
    if workers <= 1:
        _init_worker(*initargs)
        try:
            return [fn(t) for t in tasks]
        finally:
            _STATE.clear()
    n_workers = max(1, min(workers, len(tasks)))
    with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_pool_worker, initargs=initargs) as pool:
        return list(pool.map(functools.partial(_pool_task, fn), tasks))
