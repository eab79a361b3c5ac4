"""Command-line front end: ingest, synth, estimate, optimize, sweep.

Every run resolves its configuration from (profile defaults <- config file
<- flags), echoes the resolved values and their hash into all outputs, and
derives all randomness from one base seed. Exit codes: 0 ok, 1 usage,
2 data error, 3 infeasible network.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, PROFILES, config_from_dict, config_hash, draw_sleepers
from .dataio import (
    read_loads_csv,
    read_placements_json,
    read_text_lines,
    write_json,
    write_loads_csv,
    write_placements_json,
)
from .errors import CellSleepError, ConfigError, DataFormatError, GridError, InfeasibleNetworkError
from .estimators import DistanceConfig, MlcConfig, RandomConfig, check_epsilon, estimate, estimation_error
from .experiments import FIGURES, optimize, run_figure, write_report
from .traffic import (
    MINUTES_PER_DAY,
    aggregate_activity,
    normalize_loads,
    parse_cdr,
    placements_for_squares,
    synthesize_traffic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

# NEP 19 spawn key of the estimate command's random neighbor draw: a child
# stream of --seed, independent of the sleeper draw, which seeds
# default_rng(--seed) as the sweeps do.
_NEIGHBOR_DRAW = (1,)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise ConfigError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _slot_minutes(text: str) -> int:
    value = _positive_int(text)
    if MINUTES_PER_DAY % value:
        raise argparse.ArgumentTypeError(f"must divide {MINUTES_PER_DAY}, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """A count that may be zero, or a --seed value (numpy seeds must be non-negative)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _options_hash(options: dict) -> str:
    return hashlib.sha256(
        json.dumps(options, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load_config(args) -> ExperimentConfig:
    base = PROFILES[args.profile]() if getattr(args, "profile", None) else ExperimentConfig()
    path = getattr(args, "config", None)
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        if "experiment" in doc:
            for key in doc:
                if key != "experiment" and not key.startswith("_"):
                    raise ConfigError(f"unknown config key: {key}")
            base = config_from_dict(doc["experiment"], base)
        else:
            base = config_from_dict(doc, base)
    if getattr(args, "seed", None) is not None:
        base = config_from_dict({"base_seed": args.seed}, base)
    return base


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cellsleep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cellsleep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="turn raw CDR grid files into canonical loads")
    p.add_argument("inputs", nargs="+", help="CDR text files (Milan layout)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--n-sbs", type=_positive_int, default=None,
                   help="SBS count (default: every square present)")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for the SBS-to-square draw")
    p.add_argument("--normalize", choices=("global_max", "per_sbs_max"), default="global_max")
    p.add_argument("--weights", type=float, nargs=5, default=(1.0, 1.0, 1.0, 1.0, 1.0),
                   metavar=("SMS_IN", "SMS_OUT", "CALL_IN", "CALL_OUT", "NET"))
    p.add_argument("--slot-minutes", type=_slot_minutes, default=10)
    p.add_argument("--grid-side", type=_positive_int, default=100,
                   help="grid dimension (100 -> 10000 squares)")

    desk = PROFILES["desk"]()  # synth defaults to the desk profile's traffic
    p = sub.add_parser("synth", help="generate seeded synthetic correlated traffic")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--n-sbs", type=_positive_int, default=desk.n_sbs)
    p.add_argument("--grid-side", type=_positive_int, default=desk.grid_side)
    p.add_argument("--correlation-length", type=float, default=desk.correlation_length_m,
                   metavar="METERS")
    p.add_argument("--days", type=_positive_int, default=desk.n_days)
    p.add_argument("--noise-std", type=float, default=desk.noise_std)
    p.add_argument("--field-floor", type=float, default=desk.field_floor)
    p.add_argument("--bumps", type=_nonnegative_int, default=desk.n_field_bumps)

    p = sub.add_parser("estimate", help="estimate sleeping-SBS loads at one slot")
    p.add_argument("--loads", required=True, help="canonical loads CSV")
    p.add_argument("--placements", required=True, help="placements JSON")
    p.add_argument("--slot", type=int, required=True, help="absolute slot index into the series")
    p.add_argument("--estimator", choices=("mlc", "distance", "random"), default="distance")
    p.add_argument("--sleepers", type=_int_list, default=None, help="comma-separated SBS ids to mask")
    p.add_argument("--sleep-fraction", type=float, default=None, help="random mask instead of --sleepers")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--neighbors", type=int, default=5)
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--k-override", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--out", default="estimates.json")

    p = sub.add_parser("optimize", help="minimize network power at one slot")
    p.add_argument("--loads", required=True)
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--config", default=None, help="JSON config with an 'experiment' section")
    p.add_argument("--profile", choices=tuple(PROFILES), default=None)
    p.add_argument("--optimizer", choices=("auto", "exhaustive", "greedy"), default="auto")
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--out", default="solution.json")

    p = sub.add_parser("sweep", help="run one of the packaged studies")
    p.add_argument("--experiment", choices=FIGURES, required=True)
    p.add_argument("--profile", choices=tuple(PROFILES), default="desk")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", default=".")
    p.add_argument("--n-values", type=_int_list, default=None, help="neighbor-count grid")
    p.add_argument("--exponents", type=_int_list, default=None, help="weighting exponent grid")
    p.add_argument("--s-values", type=_int_list, default=None, help="network sizes")
    p.add_argument("--l-values", type=_int_list, default=None, help="clustering layer grid")
    return parser


def _cmd_ingest(args) -> int:
    records = []
    reports = []
    for path in args.inputs:
        recs, rep = parse_cdr(read_text_lines(path), grid_squares=args.grid_side**2)
        records.append(recs)
        reports.append((path, rep))
    records = np.concatenate(records)  # drops the per-file arrays
    if not records.size:
        raise DataFormatError("no valid records in the input files")
    matrix = aggregate_activity(records, args.weights, slot_minutes=args.slot_minutes)

    present = list(matrix.square_ids)
    if args.n_sbs is not None:
        if args.n_sbs > len(present):
            raise DataFormatError(
                f"asked for {args.n_sbs} SBSs but only {len(present)} squares have data"
            )
        rng = np.random.default_rng(args.seed)
        chosen = sorted(rng.permutation(len(present))[: args.n_sbs])
    else:
        chosen = list(range(len(present)))
    squares = [present[i] for i in chosen]
    series = normalize_loads(matrix.values[chosen], args.normalize, slot_minutes=args.slot_minutes)
    placements = placements_for_squares(squares, args.grid_side)

    options = {
        "command": "ingest",
        "inputs": list(args.inputs),
        "n_sbs": len(squares),
        "seed": args.seed,
        "normalize": args.normalize,
        "weights": list(args.weights),
        "slot_minutes": args.slot_minutes,
        "grid_side": args.grid_side,
    }
    digest = _options_hash(options)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_loads_csv(series, out / "loads.csv", config_hash=digest)
    write_placements_json(placements, out / "placements.json", grid_side=args.grid_side, config_hash=digest)
    write_json(
        {
            "config": options,
            "config_hash": digest,
            "files": {f: {"lines": r.n_lines, "records": r.n_records,
                          "malformed": r.malformed[:20], "n_malformed": len(r.malformed)}
                      for f, r in reports},
            "n_squares_present": len(present),
            "n_duplicate_records": matrix.n_duplicate_records,
            "n_missing_cells": matrix.n_missing_cells,
            "n_slots": int(matrix.values.shape[1]),
        },
        out / "ingest_report.json",
    )
    print(f"ingest: {len(records)} records -> {series.n_sbs} SBSs x {series.n_slots} slots -> {out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    series, placements = synthesize_traffic(
        seed=args.seed,
        n_sbs=args.n_sbs,
        grid_side=args.grid_side,
        correlation_length_m=args.correlation_length,
        n_days=args.days,
        n_bumps=args.bumps,
        noise_std=args.noise_std,
        field_floor=args.field_floor,
    )
    options = {
        "command": "synth",
        "seed": args.seed,
        "n_sbs": args.n_sbs,
        "grid_side": args.grid_side,
        "correlation_length_m": args.correlation_length,
        "days": args.days,
        "noise_std": args.noise_std,
        "field_floor": args.field_floor,
        "bumps": args.bumps,
    }
    digest = _options_hash(options)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_loads_csv(series, out / "loads.csv", config_hash=digest)
    write_placements_json(placements, out / "placements.json", grid_side=args.grid_side, config_hash=digest)
    write_json({"config": options, "config_hash": digest}, out / "synth_report.json")
    print(f"synth: {series.n_sbs} SBSs x {series.n_slots} slots -> {out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from .traffic import mask_sleepers

    try:  # the estimator's config and the epsilon rule are the one check of these flags
        if args.estimator == "mlc":
            cfg = MlcConfig(layers=args.layers, k_override=args.k_override)
        elif args.estimator == "distance":
            cfg = DistanceConfig(neighbors=args.neighbors, weighting=args.exponent)
        else:  # its own stream: --seed alone seeds the sleeper draw
            seed = np.random.SeedSequence(args.seed, spawn_key=_NEIGHBOR_DRAW).generate_state(1)[0]
            cfg = RandomConfig(neighbors=args.neighbors, weighting=args.exponent, seed=int(seed))
        check_epsilon(args.epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    series = read_loads_csv(args.loads)
    placements = read_placements_json(args.placements)
    if not (0 <= args.slot < series.n_slots):
        raise DataFormatError(f"slot {args.slot} outside 0..{series.n_slots - 1}")
    loads = series.loads[:, args.slot]

    if args.sleepers is not None:  # the set that is masked: sorted, no repeats
        sleeper_ids = sorted(set(args.sleepers))
    elif args.sleep_fraction is not None:
        sleeper_ids = draw_sleepers(args.sleep_fraction, series.n_sbs, args.seed).tolist()
    else:
        sleeper_ids = []

    options = {
        "command": "estimate",
        "loads": args.loads,
        "slot": args.slot,
        "estimator": args.estimator,
        "sleepers": sleeper_ids,
        "seed": args.seed,
        "neighbors": args.neighbors,
        "exponent": args.exponent,
        "layers": args.layers,
        "k_override": args.k_override,
        "epsilon": args.epsilon,
    }
    digest = _options_hash(options)

    if not sleeper_ids:
        write_json({"config": options, "config_hash": digest, "estimates": [], "mean_error": None},
                   Path(args.out))
        print("estimate: no sleepers, nothing to do")
        return EXIT_OK

    snapshot, actual = mask_sleepers(loads, sleeper_ids)
    history = None
    if args.estimator == "mlc":
        # History: same slot of the previous day when available.
        prev = args.slot - series.slots_per_day
        history = series.loads[:, prev] if prev >= 0 else np.full(series.n_sbs, np.nan)
    result = estimate(cfg, snapshot, placements, history)
    summary = estimation_error(actual[list(result.sleeper_ids)], result.estimates, args.epsilon)

    doc = {
        "config": options,
        "config_hash": digest,
        "estimates": result.to_json_dict(),
        "actual": [float(actual[i]) for i in result.sleeper_ids],
        "mean_error": summary.mean_error,
        "n_included": summary.n_included,
        "n_excluded": summary.n_excluded,
    }
    write_json(doc, Path(args.out))
    print(f"estimate: {len(sleeper_ids)} sleepers, mean relative error {summary.mean_error:.4f}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    config = _load_config(args)
    series = read_loads_csv(args.loads)
    if not (0 <= args.slot < series.n_slots):
        raise DataFormatError(f"slot {args.slot} outside 0..{series.n_slots - 1}")
    loads = series.loads[:, args.slot]
    solution = optimize(config, loads, args.optimizer)
    doc = {
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "slot": args.slot,
        "solution": solution.to_json_dict(),
    }
    write_json(doc, Path(args.out))
    print(
        f"optimize[{solution.optimizer}]: power {solution.power:.3f} W, "
        f"{np.count_nonzero(solution.state)}/{series.n_sbs} SBSs off, feasible={solution.feasible}"
    )
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    grids = {grid: getattr(args, grid) for grid in ("n_values", "exponents", "s_values", "l_values")}
    try:
        report = run_figure(args.experiment, config, workers=args.workers, **grids)
    except GridError as exc:  # a bad grid is a usage error naming its flag
        raise ConfigError(f"--{exc.grid.replace('_', '-')}: {exc.reason}") from exc
    csv_path, json_path = write_report(report, args.out)
    print(f"sweep {args.experiment}: {len(report.points)} points -> {csv_path} / {json_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "ingest": _cmd_ingest,
            "synth": _cmd_synth,
            "estimate": _cmd_estimate,
            "optimize": _cmd_optimize,
            "sweep": _cmd_sweep,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleNetworkError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CellSleepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
