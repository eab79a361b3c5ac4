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

A layer's cells are kept back to back, each in SBS index order, and
``kmeans._fit_cells`` clusters all of them in one vectorized Lloyd pass
with the fits that ``kmeans_fit`` (fixed k) or ``elbow_fit`` would give
each cell alone. One stable argsort by (cell, cluster) then lays out the
next layer's cells, and each group's active mean is its pairwise sum in
index order over its count (``kmeans._segment_sums``), the bits of
``loads[members].mean()``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..traffic import LoadSnapshot
from .kmeans import _fit_cells, _segment_sums
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
    sleeper_pos = np.full(snapshot.n_sbs, -1)
    sleeper_pos[sleepers] = np.arange(sleepers.size)
    # Per sleeper, the layer and group whose active mean it last took.
    source_layer = np.full(sleepers.size, -1)
    source_group = np.full(sleepers.size, -1)
    groups_of_layer: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    ids = np.arange(snapshot.n_sbs)  # the layer's cells back to back, each in index order
    sizes = np.array([snapshot.n_sbs])
    layer_trace = np.empty((layers, sleepers.size))
    for layer in range(layers):
        starts = np.cumsum(sizes) - sizes
        cell = np.repeat(np.arange(sizes.size), sizes)
        feat = features[ids]
        # A cell of fewer than 3 SBSs or of equal features stays one cluster.
        fit = (sizes >= 3) & (np.maximum.reduceat(feat, starts) > np.minimum.reduceat(feat, starts))
        clusters = np.zeros(ids.size, dtype=np.int64)
        if fit.any():
            in_fit = fit[cell]
            clusters[in_fit] = _fit_cells(
                feat[in_fit],
                sizes[fit],
                np.minimum(elbow_k_max if k_override is None else k_override, sizes[fit]),
                elbow=k_override is None,
                max_iter=kmeans_max_iter,
                tol=kmeans_tol,
                seed=kmeans_seed,
            )

        # Groups = (cell, cluster) in that order, each with its members in index order.
        key = cell * snapshot.n_sbs + clusters
        order = np.argsort(key, kind="stable")
        ids, key = ids[order], key[order]
        group = np.cumsum(np.concatenate(([True], key[1:] != key[:-1]))) - 1
        n_members = np.bincount(group)
        known = active_mask[ids]
        n_known = np.bincount(group[known], minlength=n_members.size)
        known_ids = ids[known]
        means = _segment_sums(snapshot.loads[known_ids], n_known) / np.maximum(n_known, 1)

        sleeping = ~known
        pos, sleeper_group = sleeper_pos[ids[sleeping]], group[sleeping]
        update = n_known[sleeper_group] > 0
        pos, sleeper_group = pos[update], sleeper_group[update]
        estimates[pos] = means[sleeper_group]
        source_layer[pos] = layer
        source_group[pos] = sleeper_group
        groups_of_layer.append((known_ids, np.cumsum(n_known) - n_known, n_known))
        layer_trace[layer] = estimates

        # Groups that hold a sleeper are the next layer's cells.
        with_sleeper = n_members > n_known
        ids = ids[with_sleeper[group]]
        sizes = n_members[with_sleeper]

    detail = []
    for s, layer, g in zip(sleepers.tolist(), source_layer.tolist(), source_group.tolist()):
        mates = ()
        if layer >= 0:
            known_ids, first, count = groups_of_layer[layer]
            mates = tuple(known_ids[first[g] : first[g] + count[g]].tolist())
        weights = tuple([1.0 / len(mates)] * len(mates)) if mates else ()
        detail.append(NeighborDetail(sleeper_id=s, neighbor_ids=mates, weights=weights))
    return EstimateResult(
        sleeper_ids=tuple(int(s) for s in sleepers),
        estimates=estimates,
        detail=tuple(detail),
        layer_estimates=layer_trace,
    )
