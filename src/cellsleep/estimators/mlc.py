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

``mlc_layers`` estimates a stack of S slots together, each with its own
sleeper set of one common size: an error-sweep run stacks the evaluation
slots of its iterations (each iteration's slots share its set), and the
iterations of a switching run each draw their own. Slot s's SBSs are the
rows s*n .. s*n + n - 1 of one flat layout, and layer 1 has one cell per
slot. A layer's cells are kept back to back, each in row order, and a cell
never spans two slots. Each slot row is sorted by feature once per call
(``kmeans._SortedCells``, read-only), and every cell is a run of that
order. ``kmeans._fit_cells`` clusters every cell of every slot in one
vectorized pass by MLC's clustering rule, the sorted-run Lloyd on the slot
row's float64 prefix sums, with constant settings (both in the ``kmeans``
docstring): each cluster is a run of its cell, labelled by its rank in
value order, and equal features share one, so the groups cut from a cell
are runs again. The rows are then laid out in (cell, cluster) groups, each
in row order: the stable sort by that key, a radix sort of small unsigned
keys (``_group_layout``; an empty run leaves its rank unused). Each group
starts at its members' smallest position (``np.minimum.reduceat``), which
labels the next layer's cells: the groups with a sleeper. Its active sum
is a difference of one prefix array: the row's active loads added left to
right in value order, each sleeper adding 0.0
(``_SortedCells.prefix_of``). The active mean is that sum over the group's
active count, and a slot's mean active load is its active loads added left
to right in id order over their count. So every slot gets the estimates it
would get alone. No slots or no sleepers give an empty trace.
``mlc_estimate`` is the one-slot call that also reports each estimate's
contributors. Both take their settings as one ``MlcConfig``, whose
construction is the only check of them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..traffic import LoadSnapshot
from . import kmeans
from .result import EstimateResult, NeighborDetail


def _check_integers(config, names: tuple[str, ...], optional: str | None = None) -> None:
    """Reject a setting among ``names`` that is not an integer (a bool is not); ``optional`` may be None."""
    for name in names:
        value = getattr(config, name)
        if (value is not None or name != optional) and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MlcConfig:
    """Multi-level clustering: ``layers`` refinement passes, k by elbow or fixed."""

    layers: int = 1
    k_override: int | None = None

    def __post_init__(self) -> None:
        _check_integers(self, ("layers", "k_override"), "k_override")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers!r}")
        if self.k_override is not None and self.k_override < 1:
            raise ValueError("k_override must be >= 1 when given")

    kind = "mlc"


def mlc_layers(
    loads: np.ndarray,
    history: np.ndarray,
    known_mask: np.ndarray,
    config: MlcConfig,
) -> tuple[np.ndarray, tuple]:
    """Every layer's sleeper estimates for S slots with m sleepers each.

    Args:
        loads: (S, n) loads, one slot per row; only known entries are read.
        history: (S, n) stand-in features; NaN means no history, and the
            sleeper then enters at its slot's mean active load. Only
            sleepers' entries are read.
        known_mask: (S, n) true for each slot's active SBSs, or (n,) for
            one set that every slot shares. Every row needs the same
            number m of sleepers and at least one active SBS.
        config: depth and cluster count (elbow-selected if ``k_override``
            is None).

    Returns:
        ``(estimates, sources)``. ``estimates[s, l]`` holds slot s's
        estimates after layer l + 1, one per slot-s sleeper in id order.
        ``sources`` is ``(source_layer, source_group, groups)``: per
        sleeper (slot-major) the layer and group whose active mean it last
        took, -1 if none, and per layer ``(known_rows, first, count)``,
        each group's active rows (``s * n + id``) as a slice of
        ``known_rows``.
    """
    layers, k_override = config.layers, config.k_override
    loads = np.asarray(loads, dtype=float)
    n_slots, n = loads.shape
    known_mask = np.asarray(known_mask, dtype=bool)
    n_active = np.count_nonzero(known_mask.reshape(-1, n), axis=1)
    if (n_active == 0).any():
        raise ValueError("no active SBS to cluster against")
    if (n_active != n_active[:1]).any():
        counts = sorted(set((n - n_active).tolist()))
        raise ValueError(f"every slot needs the same number of sleepers, got {counts}")
    m = n - int(n_active[0]) if n_active.size else 0
    if m == 0 or n_slots == 0:  # nothing to estimate
        none = np.empty(0, dtype=np.int64)
        return np.empty((n_slots, layers, m)), (none, none, [])

    hist = np.asarray(history, dtype=float)
    if hist.shape != loads.shape:
        raise ValueError(
            f"history must provide one feature per SBS and slot {loads.shape}, got shape {hist.shape}"
        )
    known = np.broadcast_to(known_mask, loads.shape)
    hist_sleep = hist[~known]  # slot-major, each slot's sleepers in id order
    # NaN is "no history"; a comparison with NaN is false, one with +-inf is not.
    if ((hist_sleep < 0.0) | (hist_sleep > 1.0)).any():
        raise ValueError("history features must lie in [0, 1]")

    slot_means = np.cumsum(loads[known].reshape(n_slots, n - m), axis=1)[:, -1] / (n - m)
    features = loads.copy()
    features[~known] = np.where(np.isnan(hist_sleep), np.repeat(slot_means, m), hist_sleep)
    features = features.ravel()
    known_rows = known.ravel()
    estimates = features[~known_rows]
    sleeper_pos = np.full(n_slots * n, -1)
    sleeper_pos[~known_rows] = np.arange(n_slots * m)
    # Per sleeper, the layer and group whose active mean it last took.
    source_layer = np.full(n_slots * m, -1)
    source_group = np.full(n_slots * m, -1)
    groups_of_layer: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # Every slot row in value order, once; each layer's cells are runs of it.
    elbow = k_override is None
    order = kmeans._SortedCells(features, np.full(n_slots, n))
    active_prefix = order.prefix_of(np.where(known_rows, loads.ravel(), 0.0))
    ids = np.arange(n_slots * n)  # the layer's cells back to back, each in row order
    sizes = np.full(n_slots, n)
    layer_trace = np.empty((n_slots, layers, m))
    runs = order.first  # each cell's first position in the value order
    for layer in range(layers):
        cell = np.repeat(np.arange(sizes.size), sizes)
        # A cell of fewer than 3 SBSs or of equal features (its run's first
        # and last) stays one cluster.
        fit = (sizes >= 3) & (order.keys.imag[runs] < order.keys.imag[runs + sizes - 1])
        clusters = np.zeros(ids.size, dtype=np.int64)
        if fit.any():
            in_fit = np.repeat(fit, sizes)
            clusters[in_fit] = kmeans._fit_cells(
                order,
                ids[in_fit],
                runs[fit],
                sizes[fit],
                np.minimum(kmeans.ELBOW_K_MAX if elbow else k_override, sizes[fit]),
                elbow=elbow,
            )

        # Groups = (cell, cluster) in that order, each with its members in row order.
        grouped, n_members = _group_layout(cell, clusters, sizes.size)
        ids = ids[grouped]
        group = np.repeat(np.arange(n_members.size), n_members)
        known = known_rows[ids]
        n_known = np.bincount(group[known], minlength=n_members.size)
        known_ids = ids[known]
        with_sleeper = n_members > n_known
        # Each group is the run [lo, lo + size) of its row's value order.
        lo = np.minimum.reduceat(order.rank[ids], np.cumsum(n_members) - n_members)
        sums = active_prefix[lo + n_members] - active_prefix[lo]
        means = np.divide(sums, n_known, out=np.zeros(n_members.size), where=n_known > 0)

        sleeping = ~known
        pos, sleeper_group = sleeper_pos[ids[sleeping]], group[sleeping]
        update = n_known[sleeper_group] > 0
        pos, sleeper_group = pos[update], sleeper_group[update]
        estimates[pos] = means[sleeper_group]
        source_layer[pos] = layer
        source_group[pos] = sleeper_group
        groups_of_layer.append((known_ids, np.cumsum(n_known) - n_known, n_known))
        layer_trace[:, layer] = estimates.reshape(n_slots, m)

        # Groups that hold a sleeper are the next layer's cells, each a run.
        if layer + 1 < layers:
            runs = lo[with_sleeper]
            ids = ids[with_sleeper[group]]
            sizes = n_members[with_sleeper]
    return layer_trace, (source_layer, source_group, groups_of_layer)


def _group_layout(cell: np.ndarray, labels: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort of rows by (cell, label), and the sizes of its non-empty groups.

    ``cell`` is non-decreasing (cells back to back) and ``labels`` are small
    nonnegative integers, not necessarily dense. The key cell * n + label (n
    above the largest label) is held in the smallest unsigned dtype that
    fits it, so numpy's stable sort of it is a radix sort, counting passes
    with no comparison, whenever the cells and labels fit in 16 bits.
    """
    n_labels = int(labels.max()) + 1
    key = (cell * n_labels + labels).astype(np.min_scalar_type(n_cells * n_labels - 1))
    sizes = np.bincount(key)
    return np.argsort(key, kind="stable"), sizes[sizes > 0]


def mlc_estimate(
    snapshot: LoadSnapshot,
    history: Sequence[float] | np.ndarray,
    config: MlcConfig,
) -> EstimateResult:
    """Estimate sleeping-SBS loads by layered k-means refinement.

    Args:
        snapshot: current loads with sleepers masked out.
        history: per-SBS stand-in feature for the current slot (usually the
            load from the most recent day the SBS was active); NaN entries
            fall back to the mean of active loads. Only sleepers' entries
            are read.
        config: the settings ``mlc_layers`` takes.

    Returns:
        EstimateResult whose ``layer_estimates`` holds the intermediate
        estimate vector after every layer (row L-1 equals ``estimates``),
        and whose detail names the active SBSs each estimate averages.
    """
    trace, (source_layer, source_group, groups_of_layer) = mlc_layers(
        snapshot.loads[None], np.asarray(history, dtype=float)[None], snapshot.known_mask, config
    )
    sleepers = snapshot.sleeping_ids
    detail = []
    for s, layer, g in zip(sleepers.tolist(), source_layer.tolist(), source_group.tolist()):
        mates = ()
        if layer >= 0:
            known_ids, first, count = groups_of_layer[layer]
            mates = tuple(known_ids[first[g] : first[g] + count[g]].tolist())
        weights = tuple([1.0 / len(mates)] * len(mates)) if mates else ()
        detail.append(NeighborDetail(sleeper_id=s, neighbor_ids=mates, weights=weights))
    return EstimateResult(
        sleeper_ids=tuple(sleepers.tolist()),
        estimates=trace[0, -1],
        detail=tuple(detail),
        layer_estimates=trace[0],
    )
