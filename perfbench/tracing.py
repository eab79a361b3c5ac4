"""In-memory span recording around the public functions of cellsleep.

The program itself carries no instrumentation. A ``Tracer`` replaces each
traced function, at every module attribute that holds it (which covers
``from .x import f`` call sites), with a wrapper that records one span:
name, parent span, start and end ``perf_counter`` times, and an optional
amount (for example bytes read). Spans stay in memory until the caller
writes them out. The program runs in one thread, so a stack gives each
span its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable

# (defining module, function, span name); the span name is the metric prefix.
TARGETS = (
    ("cellsleep.experiments", "build_dataset", "experiments.build_dataset"),
    ("cellsleep.experiments", "run_error_sweep", "experiments.sweep"),
    ("cellsleep.experiments", "run_power_sweep", "experiments.sweep"),
    ("cellsleep.experiments", "write_report", "experiments.write_report"),
    ("cellsleep.estimators", "estimate", "estimators.estimate"),
    ("cellsleep.estimators", "estimation_error", "estimators.estimation_error"),
    ("cellsleep.estimators.kmeans", "elbow_select_k", "estimators.kmeans.elbow_select_k"),
    ("cellsleep.estimators.kmeans", "kmeans_fit", "estimators.kmeans.kmeans_fit"),
    ("cellsleep.estimators.mlc", "mlc_estimate", "estimators.mlc.mlc_estimate"),
    ("cellsleep.estimators.neighbors", "distance_estimate", "estimators.neighbors.distance_estimate"),
    ("cellsleep.estimators.neighbors", "random_estimate", "estimators.neighbors.random_estimate"),
    ("cellsleep.estimators.neighbors", "positions_array", "estimators.neighbors.positions_array"),
    ("cellsleep.switching", "optimize_greedy", "switching.optimize_greedy"),
    ("cellsleep.switching", "optimize_exhaustive", "switching.optimize_exhaustive"),
    ("cellsleep.switching", "apply_offloads", "switching.apply_offloads"),
    ("cellsleep.switching", "objective", "switching.objective"),
    ("cellsleep.power", "network_power", "power.network_power"),
    ("cellsleep.dataio", "read_loads_csv", "dataio.read_loads_csv"),
    ("cellsleep.dataio", "write_json", "dataio.write_json"),
    ("cellsleep.traffic", "synthesize_traffic", "traffic.synthesize_traffic"),
    ("cellsleep.traffic", "daily_average", "traffic.daily_average"),
    ("cellsleep.traffic", "mask_sleepers", "traffic.mask_sleepers"),
)

# Amount recorded on a span, from the call's arguments.
AMOUNTS: dict[str, Callable] = {
    "dataio.read_loads_csv": lambda args, kwargs: os.path.getsize(args[0]) / 1e6,
}

STUDY = "study"  # span the benchmark opens around one study run


class Tracer:
    """Records spans as ``[name, parent index, start, end, amount]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]

    def _open(self, name: str, amount: float) -> list:
        record = [name, self._stack[-1], time.perf_counter(), 0.0, amount]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name, 0.0)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable, amount: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, amount(args, kwargs) if amount else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every traced cellsleep function through ``tracer`` while active."""
    swaps = []  # (module, attribute, original)
    for module_name, attr, name in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(name, original, AMOUNTS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cellsleep" or mod_name.startswith("cellsleep.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    swaps.append((mod, key, original))
    try:
        yield tracer
    finally:
        for mod, key, original in reversed(swaps):
            setattr(mod, key, original)


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    One thread runs the program, so children never overlap one another and
    their summed durations are the part of the parent they cover.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and summed amount."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for (name, _, start, end, amount), self_s in zip(spans, own):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += self_s
        row["amount"] += amount
    return out


def tree(spans: list[list]) -> list[tuple[tuple[str, ...], int, float, float]]:
    """Spans merged by call path: (path, calls, total s, self s), depth first."""
    own = self_times(spans)
    paths: list[tuple[str, ...]] = []
    rows: dict[tuple[str, ...], list] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths.append(path)
        row = rows.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own[i]
    return [(path, *rows[path]) for path in sorted(rows)]


KMEANS = ("estimators.kmeans.elbow_select_k", "estimators.kmeans.kmeans_fit")
NEIGHBORS = ("estimators.neighbors.distance_estimate", "estimators.neighbors.random_estimate")


def layer_metrics(spans: list[list], n_studies: int) -> dict[str, float]:
    """Per-layer metrics, per study, from the spans of ``n_studies`` traced studies."""
    t = totals(spans)

    def stat(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0) / n_studies

    out: dict[str, float] = {}
    for name, stats in (
        ("estimators.kmeans.elbow_select_k", ("calls", "s")),
        ("estimators.kmeans.kmeans_fit", ("calls", "s")),
        ("estimators.mlc.mlc_estimate", ("calls", "s", "self_s")),
        ("estimators.neighbors.distance_estimate", ("calls", "s")),
        ("estimators.neighbors.random_estimate", ("calls", "s")),
        ("estimators.neighbors.positions_array", ("calls",)),
        ("switching.optimize_greedy", ("calls", "s")),
        ("switching.optimize_exhaustive", ("calls", "s")),
        ("power.network_power", ("calls", "s")),
        ("switching.apply_offloads", ("s",)),
        ("switching.objective", ("s",)),
        ("dataio.read_loads_csv", ("calls", "s")),
        ("dataio.write_json", ("s",)),
        ("traffic.synthesize_traffic", ("s",)),
        ("traffic.daily_average", ("s",)),
        ("traffic.mask_sleepers", ("calls", "s")),
        ("experiments.build_dataset", ("calls", "s")),
        ("estimators.estimate", ("calls",)),
        ("estimators.estimation_error", ("s",)),
        ("experiments.write_report", ("s",)),
        ("experiments.sweep", ("self_s",)),
    ):
        for key in stats:
            out[f"{name}.{key}"] = stat(name, key)
    out["dataio.read_loads_csv.mb"] = stat("dataio.read_loads_csv", "amount")

    fits = [i for i, s in enumerate(spans) if s[0] == "estimators.kmeans.kmeans_fit"]
    used = sum(1 for i in fits if spans[spans[i][1]][0] == "estimators.mlc.mlc_estimate")
    out["estimators.kmeans.used_fit_ratio"] = used / len(fits) if fits else 0.0

    greedy_calls = t.get("switching.optimize_greedy", {}).get("calls", 0)
    trials = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "power.network_power" and has_ancestor(spans, i, "switching.optimize_greedy")
    )
    out["switching.greedy.trials_per_solve"] = trials / greedy_calls if greedy_calls else 0.0

    # Shares of study time: a faster layer can save at most its own share.
    study_s = t.get(STUDY, {}).get("s", 0.0)
    kmeans_under_mlc = sum(
        end - start
        for name, parent, start, end, _ in spans
        if name in KMEANS and parent >= 0 and spans[parent][0] == "estimators.mlc.mlc_estimate"
    )
    neighbors = sum(t.get(name, {}).get("s", 0.0) for name in NEIGHBORS)
    greedy = t.get("switching.optimize_greedy", {}).get("s", 0.0)
    for key, part in (
        ("estimators.kmeans.share_under_mlc", kmeans_under_mlc),
        ("estimators.neighbors.share", neighbors),
        ("switching.optimize_greedy.share", greedy),
    ):
        out[key] = part / study_s if study_s > 0 else 0.0
    return out
