"""Distance-based and random neighbor-selection load estimators.

Both families fill a sleeping SBS's unknown load from the loads of active
SBSs: the distance variant picks the N geographically nearest active
neighbors, the random variant draws N active neighbors uniformly without
replacement. Either set is then combined by a plain mean or by inverse
distance weighting

    w = d_max / d**n

with d_max the largest distance among the selected neighbors and n >= 1
the weighting exponent. Any per-sleeper factor such as d_max cancels in the
estimate and in the reported (normalized) weights, so the code scales by
the first selected distance instead: ``(d_1 / d)**n``, which keeps the
weights of nearest-ranked neighbors in [0, 1]. Distances below
``DISTANCE_FLOOR_M`` (1 m) are clamped so co-located stations cannot
produce infinite weights; the table builders take the floor as an argument,
and every estimator passes that constant.

Both variants go through one ``NeighborTable``: the first K selected
neighbors of every sleeper, in selection order, for T slots. An N-neighbor
set is the first N columns (the nearest N, or the first N of the sleeper's
random permutation), so one table serves every N <= K and every exponent,
each estimate read from prefix sums of the weights. The nearest table has
T = 1: its one ranking answers every slot. A random table has one draw per
slot, T = S. Either answers one slot's loads or a batch of S slots in one
call. ``distance_estimate`` and ``random_estimate`` build a T = 1 table
from a ``DistanceConfig`` or ``RandomConfig``, whose construction is the
only check of the neighbor count and exponent.
The nearest K are selected by partition (introselect) rather than a full
sort of each sleeper's distances; the selection equals a stable argsort,
ties at the K-th distance included. The ranking runs in blocks of sleepers
(at most 2^16 distances each), so its working memory does not grow with
sleepers x active: at paper scale (500 x 4500) it holds one block, not
three full matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..traffic import LoadSnapshot, SbsPlacement
from .result import EstimateResult, NeighborDetail

DISTANCE_FLOOR_M = 1.0  # SBSs on distinct grid squares are 235 m apart or more


@dataclass(frozen=True)
class DistanceConfig:
    """Nearest-neighbor selection; ``weighting`` is the IDW exponent (None = plain mean)."""

    neighbors: int = 1
    weighting: int | None = None

    def __post_init__(self) -> None:
        if self.neighbors < 1:
            raise ValueError(f"neighbor count must be >= 1, got {self.neighbors!r}")
        if self.weighting is not None and (int(self.weighting) != self.weighting or self.weighting < 1):
            raise ValueError(f"weighting exponent must be a positive integer, got {self.weighting!r}")

    kind = "distance"


@dataclass(frozen=True)
class RandomConfig:
    """Seeded uniform neighbor draw; combination as in DistanceConfig."""

    neighbors: int = 1
    weighting: int | None = None
    seed: int = 0

    __post_init__ = DistanceConfig.__post_init__  # the same two checks

    kind = "random"


def positions_array(placements: Sequence[SbsPlacement], n_sbs: int) -> np.ndarray:
    """Stack placements into an (n_sbs, 2) coordinate array indexed by sbs_id."""
    if len(placements) != n_sbs:
        raise ValueError(f"need placements for all {n_sbs} SBSs, got {len(placements)}")
    pos = np.full((n_sbs, 2), np.nan)
    for p in placements:
        if not (0 <= p.sbs_id < n_sbs):
            raise ValueError(f"placement for unknown SBS id {p.sbs_id}")
        pos[p.sbs_id] = (p.x_m, p.y_m)
    if np.isnan(pos).any():
        missing = np.flatnonzero(np.isnan(pos[:, 0])).tolist()
        raise ValueError(f"missing placements for SBS ids {missing}")
    return pos


def _distances(pos: np.ndarray, sleepers: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Euclidean distance from each sleeper to ``others``: 1-D, or (..., sleepers, K) rows."""
    dx = pos[others, 0] - pos[sleepers, 0][:, None]
    dy = pos[others, 1] - pos[sleepers, 1][:, None]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


# The nearest ranking holds at most this many sleeper-to-active distances
# at once (2^16: 0.5 MB per float temporary), however large the network.
_NEAREST_BLOCK_DISTANCES = 1 << 16


def _check_active(k: int, active: np.ndarray) -> None:
    if k > active.size:
        raise ValueError(f"requested {k} neighbors but only {active.size} SBSs are active")


class NeighborTable:
    """The first K selected active neighbors of each sleeper, in selection order.

    ``ids`` (T, sleepers, K) holds SBS ids and ``dists`` their floored
    distances: T = 1 for a selection every slot shares, T = S for one
    selection per slot of a batch. The N-neighbor estimate of a row reads
    its first N columns.
    """

    def __init__(self, ids: np.ndarray, dists: np.ndarray) -> None:
        self.ids = ids
        self.dists = dists
        # equal[..., j]: the first j+1 distances of the row are all equal
        self.equal = np.minimum.accumulate(dists, axis=-1) == np.maximum.accumulate(dists, axis=-1)
        self._weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def weights(self, exponent: int) -> tuple[np.ndarray, np.ndarray]:
        """IDW weights scaled by the row's first distance, and their prefix sums."""
        if exponent not in self._weights:
            w = (self.dists[..., :1] / self.dists) ** exponent
            self._weights[exponent] = (w, np.cumsum(w, axis=-1))
        return self._weights[exponent]

    def estimates(
        self, loads: np.ndarray, points: Sequence[tuple[int, int | None]]
    ) -> list[np.ndarray]:
        """Per-sleeper estimates for each (N, exponent) point from per-SBS ``loads``.

        ``loads`` is one slot (n_sbs,) or a batch (S, n_sbs), slot s read
        through table ``s`` (or the one table when T = 1). Each estimate is
        (sleepers,) or (S, sleepers), and every slot equals its own one-slot
        call. A plain mean, or a weighted prefix where all N distances are
        equal, is the exact mean of the N neighbor loads; other weighted
        points are ``cumsum(w * load)[N-1] / cumsum(w)[N-1]``.
        """
        batch = np.atleast_2d(loads)
        near = batch[np.arange(batch.shape[0])[:, None, None], self.ids]  # (S, sleepers, K)
        # Means over a 2-D view: a 3-D reduction may sum in another order.
        rows = near.reshape(-1, near.shape[-1])
        weighted_sums: dict[int, np.ndarray] = {}
        out = []
        for n, exponent in points:
            mean = rows[:, :n].mean(axis=1).reshape(near.shape[:-1])
            if exponent is not None:
                w, w_sum = self.weights(exponent)
                if exponent not in weighted_sums:
                    weighted_sums[exponent] = np.cumsum(w * near, axis=-1)
                ratio = weighted_sums[exponent][..., n - 1] / w_sum[..., n - 1]
                mean = np.where(self.equal[..., n - 1], mean, ratio)
            out.append(mean.reshape(*loads.shape[:-1], -1))
        return out

    def result(
        self, sleepers: np.ndarray, loads: np.ndarray, neighbors: int, weighting: int | None
    ) -> EstimateResult:
        """One point's estimates from one slot's ``loads``, with the per-sleeper audit detail."""
        (estimates,) = self.estimates(loads, [(neighbors, weighting)])
        (ids,) = self.ids  # the single T = 1 table
        shares = np.full((len(sleepers), neighbors), 1.0 / neighbors)
        if weighting is not None:
            w = self.weights(weighting)[0][0, :, :neighbors]
            unequal = ~self.equal[0, :, neighbors - 1]
            shares[unequal] = w[unequal] / w[unequal].sum(axis=1, keepdims=True)
        detail = tuple(
            NeighborDetail(
                sleeper_id=int(sleeper),
                neighbor_ids=tuple(int(a) for a in ids[i, :neighbors]),
                weights=tuple(float(v) for v in shares[i]),
            )
            for i, sleeper in enumerate(sleepers)
        )
        return EstimateResult(
            sleeper_ids=tuple(int(s) for s in sleepers), estimates=estimates, detail=detail
        )


def nearest_table(
    pos: np.ndarray, sleepers: np.ndarray, active: np.ndarray, k: int, distance_floor: float
) -> NeighborTable:
    """Each sleeper's k nearest active SBSs, ties broken by SBS id: one (1, sleepers, k) table.

    Equals the first k columns of a stable argsort of each row: the
    candidates are every distance up to the row's k-th smallest (found by
    partition), so ties at the boundary stay in, and a stable sort by
    (row, distance) keeps equal distances in column order, which is SBS id
    order. Rows are ranked in blocks of at most ``_NEAREST_BLOCK_DISTANCES``
    distances (at least one row); every step works row by row, so the
    table does not depend on the block size.
    """
    _check_active(k, active)
    ids = np.empty((1, sleepers.size, k), dtype=active.dtype)
    dists = np.empty((1, sleepers.size, k), dtype=pos.dtype)
    block = max(1, _NEAREST_BLOCK_DISTANCES // active.size)
    for r0 in range(0, sleepers.size, block):
        d = _distances(pos, sleepers[r0 : r0 + block], active)
        kth = np.take_along_axis(d, np.argpartition(d, k - 1, axis=1)[:, k - 1 : k], axis=1)
        rows, cols = np.nonzero(d <= kth)
        cand = d[rows, cols]
        order = np.lexsort((cand, rows))
        starts = np.searchsorted(rows, np.arange(d.shape[0]))
        first_k = order[starts[:, None] + np.arange(k)]
        ids[0, r0 : r0 + block] = active[cols[first_k]]
        np.maximum(cand[first_k], distance_floor, out=dists[0, r0 : r0 + block])
    return NeighborTable(ids, dists)


def random_table(
    pos: np.ndarray,
    sleepers: np.ndarray,
    active: np.ndarray,
    k: int,
    distance_floor: float,
    seeds: Sequence[int],
) -> NeighborTable:
    """One (len(seeds), sleepers, k) table: per seed, the first k of one ``rng.permutation(active)``
    per sleeper, in sleeper order, all from that seed's ``default_rng``."""
    _check_active(k, active)
    ids = np.empty((len(seeds), sleepers.size, k), dtype=active.dtype)
    for table, seed in zip(ids, seeds):
        rng = np.random.default_rng(seed)
        for row in table:
            row[:] = rng.permutation(active)[:k]
    return NeighborTable(ids, np.maximum(_distances(pos, sleepers, ids), distance_floor))


def distance_estimate(
    snapshot: LoadSnapshot, placements: Sequence[SbsPlacement], config: DistanceConfig
) -> EstimateResult:
    """Estimate each sleeper from its N nearest active SBSs.

    Neighbors are ranked by Euclidean distance (ties broken by SBS id) and
    combined by plain mean or inverse distance weighting per ``config``.
    """
    sleepers = snapshot.sleeping_ids
    pos = positions_array(placements, snapshot.n_sbs)
    table = nearest_table(pos, sleepers, snapshot.active_ids, config.neighbors, DISTANCE_FLOOR_M)
    return table.result(sleepers, snapshot.loads, config.neighbors, config.weighting)


def random_estimate(
    snapshot: LoadSnapshot, placements: Sequence[SbsPlacement], config: RandomConfig
) -> EstimateResult:
    """Estimate each sleeper from N active SBSs drawn uniformly.

    Draw procedure (replayable): one PCG64 generator seeded with
    ``config.seed``; sleepers are processed in ascending SBS id and each
    takes the first N entries of ``rng.permutation(active_ids)`` with active
    ids sorted ascending. The drawn set is combined exactly as in the
    distance variant.
    """
    sleepers = snapshot.sleeping_ids
    pos = positions_array(placements, snapshot.n_sbs)
    table = random_table(
        pos, sleepers, snapshot.active_ids, config.neighbors, DISTANCE_FLOOR_M, [config.seed]
    )
    return table.result(sleepers, snapshot.loads, config.neighbors, config.weighting)
