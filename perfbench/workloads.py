"""Benchmark workloads: each is a set of cellsleep CLI studies built from a seed.

A ``Plan`` says how to make the inputs (untimed), how to set up the
workload's datasets through ``build_dataset`` (timed as ``setup_s``) and
which ``cellsleep sweep`` invocations make up one study (timed as
``study_s``). Inputs depend on ``seed % VARIANTS`` only, so the recorded
reference values in ``reference.json`` cover every seed.

``size="tiny"`` shrinks every workload so its whole path runs in seconds;
the self-test uses it. Tiny runs are checked against the ``tiny``
references in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16

WORKLOADS = ("mlc-desk", "paper-slice", "switch-csv")

# fig2 grid (distance estimator) and the fig3 N grid, as the CLI builds them.
N_GRID = (1, 5, 10, 20, 30, 40, 50, 60)
EXPONENTS = (1, 3, 5, 10)
L_GRID = (1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class Sweep:
    label: str       # file stem the CLI writes: <experiment>_<profile>_<seed>
    argv: tuple      # cellsleep CLI arguments without --out
    points: int      # sweep points in the report
    cells: int       # estimator evaluations, or (size, iteration) cells


@dataclass(frozen=True)
class Plan:
    workload: str
    kind: str                # "error" or "switching"
    variant: int
    profile: str
    config: dict             # the "experiment" section passed with --config
    sweeps: tuple[Sweep, ...]
    dataset_sizes: tuple     # n_sbs per build_dataset call; None = config.n_sbs

    @property
    def cells(self) -> int:
        return sum(s.cells for s in self.sweeps)


def _cli(argv: list[str]) -> None:
    """Run one cellsleep CLI command, keeping its progress line off stdout."""
    from cellsleep.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"cellsleep {' '.join(argv)} exited with code {code}")


def make_plan(workload: str, seed: int, size: str, workdir: Path) -> Plan:
    """Write the workload's inputs for ``seed`` under ``workdir`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    variant = seed % VARIANTS
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--seed", str(variant), "--workers", "1"]
    sizes: tuple = (None,)
    kind = "error"

    if workload == "mlc-desk":
        # fig3 on the desk profile: elbow-selected k, MLC L=1..7 plus the
        # plain-mean distance and random N grids (23 points).
        profile = "desk"
        config = {"n_iterations": 1 if tiny else 2, "slot_stride": 72 if tiny else 12}
        slots = 144 // config["slot_stride"]
        points = len(L_GRID) + 2 * len(N_GRID)
        sweeps = [Sweep(f"fig3_desk_{variant}", ("sweep", "--experiment", "fig3", "--profile", "desk"),
                        points, points * slots * config["n_iterations"])]
    elif workload == "paper-slice":
        # fig2 (32 points) and fig3 (23 points) on the paper profile, k pinned
        # to 3, one iteration over one slot.
        profile = "paper"
        config = {"n_iterations": 1, "slot_stride": 144}
        if tiny:
            config.update(n_sbs=700, n_days=2)
        fig2_points = len(N_GRID) * len(EXPONENTS)
        fig3_points = len(L_GRID) + 2 * len(N_GRID)
        sweeps = [
            Sweep(f"fig2_paper_{variant}", ("sweep", "--experiment", "fig2", "--profile", "paper"),
                  fig2_points, fig2_points),
            Sweep(f"fig3_paper_{variant}", ("sweep", "--experiment", "fig3", "--profile", "paper"),
                  fig3_points, fig3_points),
        ]
    else:
        # fig5 power sweep with loads read from a canonical loads CSV: one
        # exhaustive size and two greedy sizes, one slot every 4 hours.
        # Greedy sizes stop at 300: near 1000, night slots fill a tier and
        # fig5 raises (README.md, "Workloads").
        profile = "desk"
        kind = "switching"
        n_sbs = 120 if tiny else 500
        inputs = workdir / "inputs"
        _cli(["synth", "--out", str(inputs), "--seed", str(variant), "--n-sbs", str(n_sbs),
              "--grid-side", "40", "--days", "1", "--correlation-length", "1500"])
        s_values = (8, 40, 60) if tiny else (12, 150, 300)
        l_values = (1, 3)
        config = {
            "data_source": "milan",
            "loads_csv": str(inputs / "loads.csv"),
            "placements_json": str(inputs / "placements.json"),
            "n_days": 1,
            "mlc_k_override": 3,
            "n_iterations": 2 if tiny else 6,
            "slot_stride": 72 if tiny else 24,
        }
        sizes = s_values
        points = len(s_values) * (1 + len(l_values))
        sweeps = [Sweep(f"fig5_desk_{variant}",
                        ("sweep", "--experiment", "fig5", "--profile", "desk",
                         "--s-values", ",".join(map(str, s_values)),
                         "--l-values", ",".join(map(str, l_values))),
                        points, len(s_values) * config["n_iterations"])]

    config_path = workdir / "config.json"
    config_path.write_text(json.dumps({"experiment": config}, indent=2, sort_keys=True) + "\n")
    sweeps = tuple(
        Sweep(s.label, s.argv + ("--config", str(config_path), *common), s.points, s.cells)
        for s in sweeps
    )
    return Plan(workload, kind, variant, profile, config, sweeps, sizes)


def setup(plan: Plan) -> None:
    """Build the workload's datasets through the public ``build_dataset``."""
    from cellsleep.config import PROFILES, config_from_dict
    from cellsleep.experiments import build_dataset

    config = config_from_dict({**plan.config, "base_seed": plan.variant}, PROFILES[plan.profile]())
    for n_sbs in plan.dataset_sizes:
        if n_sbs is None:
            build_dataset(config)
        else:
            build_dataset(config, n_sbs=n_sbs, seed=config.base_seed + n_sbs)


def run_sweep(sweep: Sweep, out_dir: Path) -> None:
    """One sweep of a study through the CLI, reports under ``out_dir``."""
    _cli([*sweep.argv, "--out", str(out_dir)])


def point_values(plan: Plan, out_dir: Path) -> dict[str, list[float]]:
    """The study's deterministic per-point quality values, read from its JSON reports.

    Error workloads: ``mean_error`` of every sweep point. Switching:
    ``gap_rel`` and ``decision_change_rate`` of every MLC point.
    """
    points = []
    for sweep in plan.sweeps:
        doc = json.loads((out_dir / f"{sweep.label}.json").read_text())
        if len(doc["points"]) != sweep.points:
            raise ValueError(f"{sweep.label}: {len(doc['points'])} points, expected {sweep.points}")
        points.extend(doc["points"])
    if plan.kind == "error":
        return {"mean_error": [p["metrics"]["mean_error"] for p in points]}
    mlc = [p["metrics"] for p in points if p["labels"]["estimator"] == "mlc"]
    return {key: [m[key] for m in mlc] for key in ("gap_rel", "decision_change_rate")}


# Aggregate reported for each per-point quality value: its mean over the points.
AGGREGATES = {"mean_error": "est_error", "gap_rel": "power_gap_rel",
              "decision_change_rate": "decision_change_rate"}


def summary(values: dict[str, list[float]]) -> dict[str, float]:
    """``est_error``, or ``power_gap_rel`` and ``decision_change_rate``: per-point means."""
    return {AGGREGATES[key]: sum(xs) / len(xs) for key, xs in values.items()}
