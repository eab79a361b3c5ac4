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
produce infinite weights.

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
ties at the K-th distance included, so ties break by SBS id. The actives
are bucketed on a square grid, each bucket holding (K + 4) / 2 of them on
average, and a sleeper is first ranked only against the actives of the
3 x 3 buckets around its own (a cell list). Its row is kept when the K-th
distance lies strictly below the distance to that region's edge (less a
rounding margin; a side on the outermost bucket is infinitely far): every
active outside is then farther than the K-th, so the region holds all of
the full row's candidates, ties included, with the same distances and,
listed in ascending active order, the same tie order. Other rows, and
every row of a call whose neighborhood would span a quarter of the
network (the desk profile's 90 actives at K = 60), are ranked against all
actives. At paper scale (500 sleepers x 4500 actives, K = 60) the
neighborhoods measure about a twelfth of the 2.25 M pairs. Either pass
runs in blocks of sleepers (at most 2^16 distances each), so the working
memory does not grow with sleepers x active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..traffic import LoadSnapshot, SbsPlacement
from .mlc import _check_integers
from .result import EstimateResult, NeighborDetail

DISTANCE_FLOOR_M = 1.0  # SBSs on distinct grid squares are 235 m apart or more


@dataclass(frozen=True)
class DistanceConfig:
    """Nearest-neighbor selection; ``weighting`` is the IDW exponent (None = plain mean)."""

    neighbors: int = 1
    weighting: int | None = None

    def __post_init__(self) -> None:
        _check_integers(self, ("neighbors", "weighting"), "weighting")
        if self.neighbors < 1:
            raise ValueError(f"neighbor count must be >= 1, got {self.neighbors!r}")
        if self.weighting is not None and self.weighting < 1:
            raise ValueError(f"weighting exponent must be a positive integer, got {self.weighting!r}")

    kind = "distance"


@dataclass(frozen=True)
class RandomConfig:
    """Seeded uniform neighbor draw; combination as in DistanceConfig."""

    neighbors: int = 1
    weighting: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        DistanceConfig.__post_init__(self)
        _check_integers(self, ("seed",))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")

    kind = "random"


def positions_array(placements: Sequence[SbsPlacement], n_sbs: int) -> np.ndarray:
    """Stack placements into an (n_sbs, 2) coordinate array indexed by sbs_id.

    The estimators take placements and the sweeps a dataset's positions
    (``experiments.Dataset``), which a measured-data sweep makes here once
    per network size and a synthetic one computes from its squares.
    """
    if len(placements) != n_sbs:
        raise ValueError(f"need placements for all {n_sbs} SBSs, got {len(placements)}")
    ids = np.array([p.sbs_id for p in placements], dtype=np.int64)
    unknown = (ids < 0) | (ids >= n_sbs)
    if unknown.any():
        raise ValueError(f"placement for unknown SBS id {ids[unknown][0]}")
    pos = np.full((n_sbs, 2), np.nan)
    pos[ids] = np.array([(p.x_m, p.y_m) for p in placements], dtype=float).reshape(-1, 2)
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
        self._weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def weights(self, exponent: int | None) -> tuple[np.ndarray, np.ndarray]:
        """IDW weights scaled by the row's first distance, and their prefix sums.

        A plain mean (None) weighs every neighbor 1.0, exponent 0.
        """
        exponent = exponent or 0
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
        call. Every point is ``cumsum(w * load)[N-1] / cumsum(w)[N-1]``
        along K: a plain mean has w = 1, so it is the N loads added left to
        right over N, and so is a weighted point whose first N distances are
        equal. Each exponent's prefix sums are computed once per call.
        """
        batch = np.atleast_2d(loads)
        near = batch[np.arange(batch.shape[0])[:, None, None], self.ids]  # (S, sleepers, K)
        ratios: dict[int | None, np.ndarray] = {}
        out = []
        for n, exponent in points:
            if exponent not in ratios:
                w, w_sum = self.weights(exponent)
                ratios[exponent] = np.cumsum(w * near, axis=-1) / w_sum
            out.append(ratios[exponent][..., n - 1].reshape(*loads.shape[:-1], -1))
        return out

    def result(
        self, sleepers: np.ndarray, loads: np.ndarray, neighbors: int, weighting: int | None
    ) -> EstimateResult:
        """One point's estimates from one slot's ``loads``, with the per-sleeper audit detail."""
        (estimates,) = self.estimates(loads, [(neighbors, weighting)])
        (ids,) = self.ids  # the single T = 1 table
        w, w_sum = self.weights(weighting)
        shares = w[0, :, :neighbors] / w_sum[0, :, neighbors - 1 : neighbors]
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


def _rank_rows(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first k columns of a stable argsort of each row of ``d``, their distances,
    and the row's k-th smallest distance.

    The candidates are every distance up to the row's k-th smallest (found
    by partition), so ties at the boundary stay in, and a stable sort by
    (row, distance) keeps equal distances in column order. Every step works
    row by row.
    """
    kth = np.take_along_axis(d, np.argpartition(d, k - 1, axis=1)[:, k - 1 : k], axis=1)
    rows, cols = np.nonzero(d <= kth)
    cand = d[rows, cols]
    order = np.lexsort((cand, rows))
    first_k = order[np.searchsorted(rows, np.arange(d.shape[0]))[:, None] + np.arange(k)]
    return cols[first_k], cand[first_k], kth[:, 0]


@dataclass(frozen=True)
class _Neighborhoods:
    """Each sleeper's gathered region: the actives in the 3 x 3 buckets around its own.

    ``order`` lists positions in ``active`` by bucket, ascending within one;
    a sleeper's region is three runs of it (one per bucket row), from
    ``starts`` with ``lengths`` (sleepers, 3). ``edge`` is the sleeper's
    distance to the region's edge, less a rounding margin, where a side on
    the outermost bucket counts as infinitely far.
    """

    order: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    edge: np.ndarray

    def candidates(self, rows: slice, width: int) -> np.ndarray:
        """(rows, width) positions in ``active`` of each row's region, ascending, each
        row padded with ``order.size`` (past every position) to at least ``width``."""
        parts = []
        for start, length in zip(self.starts[rows].T, self.lengths[rows].T):
            j = np.arange(length.max(initial=0))
            inside = j < length[:, None]
            parts.append(np.where(inside, self.order[np.where(inside, start[:, None] + j, 0)], self.order.size))
        cand = np.hstack(parts)
        if cand.shape[1] < width:
            cand = np.pad(cand, ((0, 0), (0, width - cand.shape[1])), constant_values=self.order.size)
        return np.sort(cand, axis=1)


def _neighborhoods(pos: np.ndarray, sleepers: np.ndarray, active: np.ndarray, k: int) -> _Neighborhoods | None:
    """The actives bucketed on a square grid over their bounding box, or None where a
    neighborhood would hold a quarter of the buckets or more, or the box has no area."""
    xy, sleeper_xy = pos[active], pos[sleepers]
    if not (np.isfinite(xy).all() and np.isfinite(sleeper_xy).all()):
        return None
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    # A bucket holds (k + 4) / 2 actives on average, so a sleeper's 3 x 3 buckets
    # about 4.5 k + 18: on a half-filled lattice (5000 of 10 000 squares, 500
    # sleepers) at most 4 rows in 500 fall back to all actives, for k = 1 to 60.
    side = np.sqrt((k + 4) / 2 * span[0] * span[1] / active.size)
    if not 0.0 < side < np.inf:
        return None
    n = (span // side).astype(np.intp) + 1  # buckets per axis; the outermost ones extend to infinity
    if 4 * min(n[0], 3) * min(n[1], 3) >= n[0] * n[1]:
        return None

    def bucket(points: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((points - lo) / side), 0, n - 1).astype(np.intp)

    b = bucket(xy)
    order = np.argsort(b[:, 1] * n[0] + b[:, 0], kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(b[:, 1] * n[0] + b[:, 0], minlength=n[0] * n[1]))])
    cell = bucket(sleeper_xy)
    first, last = np.maximum(cell - 1, 0), np.minimum(cell + 1, n - 1)  # the region's buckets per axis
    y = cell[:, 1, None] + np.arange(-1, 2)
    inside = (y >= 0) & (y < n[1])
    row0 = np.where(inside, y, 0) * n[0]
    starts = bounds[row0 + first[:, :1]]
    lengths = np.where(inside, bounds[row0 + last[:, :1] + 1] - starts, 0)
    low = np.where(first > 0, lo + first * side, -np.inf)
    high = np.where(last < n - 1, lo + (last + 1) * side, np.inf)
    margin = 1e-9 * (side + max(np.abs(xy).max(), np.abs(sleeper_xy).max()))
    edge = np.minimum(sleeper_xy - low, high - sleeper_xy).min(axis=1) - margin
    return _Neighborhoods(order, starts, lengths, edge)


def nearest_table(pos: np.ndarray, sleepers: np.ndarray, active: np.ndarray, k: int) -> NeighborTable:
    """Each sleeper's k nearest active SBSs, ties broken by SBS id: one (1, sleepers, k) table.

    Equals the first k columns of a stable argsort of each row of
    distances to ``active`` (``_rank_rows``, ties by position in
    ``active``). A row is first ranked among the actives of its
    neighborhood (``_neighborhoods``) and kept when its k-th distance lies
    strictly below the distance to the region's edge: every active outside
    is then farther than the k-th, so the region holds every candidate of
    the full row, ties at the k-th included, with the same distances. Any
    other row, and every row where no neighborhood is formed, is ranked
    against all actives. Either pass ranks blocks of at most
    ``_NEAREST_BLOCK_DISTANCES`` distances (at least one row), so the table
    does not depend on the block size.
    """
    _check_active(k, active)
    cols = np.empty((sleepers.size, k), dtype=np.intp)
    near = np.empty((sleepers.size, k), dtype=pos.dtype)
    rest = np.arange(sleepers.size)
    hoods = _neighborhoods(pos, sleepers, active, k) if sleepers.size else None
    if hoods is not None:
        kept = np.empty(sleepers.size, dtype=bool)
        block = max(1, _NEAREST_BLOCK_DISTANCES // max(k, int(hoods.lengths.max(axis=0).sum())))
        for r0 in range(0, sleepers.size, block):
            rows = slice(r0, r0 + block)
            cand = hoods.candidates(rows, k)
            d = _distances(pos, sleepers[rows], active.take(cand, mode="clip"))
            d[cand == active.size] = np.inf
            first_k, near[rows], kth = _rank_rows(d, k)
            cols[rows] = np.take_along_axis(cand, first_k, axis=1)
            kept[rows] = kth < hoods.edge[rows]
        rest = np.flatnonzero(~kept)
    block = max(1, _NEAREST_BLOCK_DISTANCES // active.size)
    for r0 in range(0, rest.size, block):
        rows = rest[r0 : r0 + block]
        cols[rows], near[rows], _ = _rank_rows(_distances(pos, sleepers[rows], active), k)
    return NeighborTable(active[cols][None], np.maximum(near, DISTANCE_FLOOR_M)[None])


def random_table(
    pos: np.ndarray,
    sleepers: np.ndarray,
    active: np.ndarray,
    k: int,
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
    return NeighborTable(ids, np.maximum(_distances(pos, sleepers, ids), DISTANCE_FLOOR_M))


def distance_estimate(
    snapshot: LoadSnapshot, placements: Sequence[SbsPlacement], config: DistanceConfig
) -> EstimateResult:
    """Estimate each sleeper from its N nearest active SBSs.

    Neighbors are ranked by Euclidean distance (ties broken by SBS id) and
    combined by plain mean or inverse distance weighting per ``config``.
    """
    sleepers = snapshot.sleeping_ids
    pos = positions_array(placements, snapshot.n_sbs)
    table = nearest_table(pos, sleepers, snapshot.active_ids, config.neighbors)
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
    table = random_table(pos, sleepers, snapshot.active_ids, config.neighbors, [config.seed])
    return table.result(sleepers, snapshot.loads, config.neighbors, config.weighting)
