"""Multi-level clustering estimator for sleeping-SBS loads.

Layer 1 clusters the whole population by load (k-means, cluster count from
the elbow rule unless overridden); every sleeper's load is unknown, so it
enters the clustering with a stand-in feature: its historical load for the
slot, falling back to the mean of the currently active loads when no
history exists. Each sleeper is then estimated as the mean ACTUAL load of
the active SBSs sharing its cluster.

Every further layer refines the estimate by re-clustering WITHIN each
cluster that still contains sleepers, so the pool of active SBSs that an
estimate averages over narrows around the sleeper's feature value layer by
layer. Clusters that contain no active SBS leave their sleepers' estimates
unchanged. After the configured number of layers, the most recent
cluster-mean assignment per sleeper is returned.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..traffic import LoadSnapshot
from .kmeans import elbow_fit, kmeans_fit
from .result import EstimateResult, NeighborDetail


def check_mlc_params(
    layers: int, k_override: int | None, elbow_k_max: int, kmeans_max_iter: int, kmeans_tol: float
) -> None:
    """Reject an MLC depth, cluster count, elbow range or Lloyd setting out of range."""
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if k_override is not None and k_override < 1:
        raise ValueError("k_override must be >= 1 when given")
    if elbow_k_max < 3:
        raise ValueError(f"elbow_k_max must be >= 3 (the elbow needs three k values), got {elbow_k_max}")
    if kmeans_max_iter < 1 or kmeans_tol < 0:
        raise ValueError("kmeans_max_iter must be >= 1 and kmeans_tol >= 0")


def mlc_estimate(
    snapshot: LoadSnapshot,
    history: Sequence[float] | np.ndarray,
    layers: int,
    *,
    k_override: int | None = None,
    kmeans_max_iter: int = 100,
    kmeans_tol: float = 1e-9,
    kmeans_seed: int = 0,
    elbow_k_max: int = 8,
) -> EstimateResult:
    """Estimate sleeping-SBS loads by layered k-means refinement.

    Args:
        snapshot: current loads with sleepers masked out.
        history: per-SBS stand-in feature for the current slot (usually the
            load from the most recent day the SBS was active); NaN entries
            fall back to the mean of active loads. Only sleepers' entries
            are read.
        layers: number of refinement layers, >= 1.
        k_override: fixed cluster count per layer; elbow-selected if None.

    Returns:
        EstimateResult whose ``layer_estimates`` holds the intermediate
        estimate vector after every layer (row L-1 equals ``estimates``).
    """
    check_mlc_params(layers, k_override, elbow_k_max, kmeans_max_iter, kmeans_tol)
    active_mask = snapshot.known_mask
    active = snapshot.active_ids
    sleepers = snapshot.sleeping_ids
    if active.size == 0:
        raise ValueError("no active SBS to cluster against")
    if sleepers.size == 0:
        return EstimateResult(
            sleeper_ids=(), estimates=np.empty(0), detail=(),
            layer_estimates=np.empty((layers, 0)),
        )

    hist = np.asarray(history, dtype=float)
    if hist.shape != (snapshot.n_sbs,):
        raise ValueError(
            f"history must provide one feature per SBS ({snapshot.n_sbs}), got shape {hist.shape}"
        )
    hist_sleep = hist[sleepers]
    finite = np.isfinite(hist_sleep)
    if finite.any() and (hist_sleep[finite].min() < 0.0 or hist_sleep[finite].max() > 1.0):
        raise ValueError("history features must lie in [0, 1]")

    global_mean = float(snapshot.loads[active].mean())
    features = snapshot.loads.copy()
    features[sleepers] = np.where(finite, hist_sleep, global_mean)

    estimates = features[sleepers].copy()
    # Per sleeper, the active SBSs its current estimate averages.
    contributors: list[np.ndarray] = [active[:0]] * sleepers.size
    sleeper_pos = np.full(snapshot.n_sbs, -1)
    sleeper_pos[sleepers] = np.arange(sleepers.size)

    cells: list[np.ndarray] = [np.arange(snapshot.n_sbs)]
    layer_trace = np.empty((layers, sleepers.size))
    for layer in range(layers):
        next_cells: list[np.ndarray] = []
        for cell in cells:
            pts = features[cell][:, None]
            if cell.size < 3 or np.ptp(pts) == 0.0:
                assignments = np.zeros(cell.size, dtype=int)  # one cluster
            elif k_override is not None:
                assignments = kmeans_fit(
                    pts,
                    min(k_override, cell.size),
                    max_iter=kmeans_max_iter,
                    tol=kmeans_tol,
                    seed=kmeans_seed,
                ).assignments
            else:
                assignments = elbow_fit(
                    pts,
                    (1, min(elbow_k_max, cell.size)),
                    max_iter=kmeans_max_iter,
                    tol=kmeans_tol,
                    seed=kmeans_seed,
                    warn_on_flat=False,
                ).assignments
            # Clusters in index order, each with its members in index order.
            grouped = cell[np.argsort(assignments, kind="stable")]
            for sub in np.split(grouped, np.cumsum(np.bincount(assignments))[:-1]):
                known = active_mask[sub]
                sub_sleep = sub[~known]
                if sub_sleep.size == 0:
                    continue
                sub_active = sub[known]
                if sub_active.size:
                    pos = sleeper_pos[sub_sleep]
                    estimates[pos] = float(snapshot.loads[sub_active].mean())
                    for p in pos.tolist():
                        contributors[p] = sub_active
                next_cells.append(sub)
        cells = next_cells
        layer_trace[layer] = estimates

    detail = tuple(
        NeighborDetail(
            sleeper_id=int(s),
            neighbor_ids=tuple(ids.tolist()),
            weights=tuple([1.0 / ids.size] * ids.size) if ids.size else (),
        )
        for s, ids in zip(sleepers, contributors)
    )
    return EstimateResult(
        sleeper_ids=tuple(int(s) for s in sleepers),
        estimates=estimates,
        detail=detail,
        layer_estimates=layer_trace,
    )
