"""Lloyd k-means with a within-cluster SSE trace and elbow selection.

The clustering feature here is usually the scalar per-SBS load, but the
fit accepts general vectors so tests can use multi-dimensional fixtures.
Seeding is "k-means++ style" greedy farthest point: the first centroid is
drawn by the seeded generator, each further centroid is the point farthest
from its nearest chosen centroid (first index on ties), so a fit is fully
determined by (points, k, seed). The argmax chain does not depend on k,
so the seeds for any k are the first k seeds for a larger k: ``elbow_fit``
seeds once for the largest k of its range and starts every smaller k from
a prefix, which gives each k the same fit as ``kmeans_fit``.

Each Lloyd step recomputes a centroid as its members' sum over their count,
like ``pts[members].mean(axis=0)``. The members are gathered by one stable
argsort of the assignments, so each cluster is a contiguous slice in index
order: the same array, in the same order, that a boolean mask selects, so
numpy's pairwise sum gives the same bits. A running sum (``np.add.reduceat``
or prefix sums) adds in another order and changes the last bit.

``_fit_cells`` is the layer-wide form for scalar features, which MLC uses:
it fits every (cell, k) problem of a clustering layer in one vectorized
pass and gives each problem the same assignments as ``kmeans_fit`` or
``elbow_fit`` on that cell alone. In 1-D every nearest-centroid cluster is
a run of the sorted features (Wang & Song 2011, *Ckmeans.1d.dp*, R Journal
3(2)), so ``_fit_cells`` takes every cell as a run of its caller's value
order (``_SortedCells``) and never sorts: MLC sorts each slot row once per
call, and a cluster of a cell's run is a run again. A Lloyd step is one
search for the k - 1 midpoints plus run sums read from float64 prefix sums
that restart at every slot row: O(k log n) per problem, with no distance
matrix; a cut that still holds from the step before is kept without a
search. The search runs over (run, feature) pairs as complex numbers,
which numpy orders lexicographically, so every midpoint of every cell is
placed by one ``searchsorted``. The step holds one column per problem, so
the per-problem reductions run over rows. A problem that has finished is
masked out of the step; the live arrays are compacted only once half of
them have finished. Those sums are not the exact loop's pairwise ones, but
their error is bounded (``_error_bounds``). A problem with a feature near
a midpoint, seeds near each other, an empty run or a movement near ``tol``
is fitted alone by ``_lloyd``; an elbow that the bound leaves open is
picked on the exact SSE. So every assignment keeps its bits. Seeds and
their ties, and the exact sums, stay in row order.

``_segment_sums`` gives those exact sums for many segments at once. It adds
each segment in numpy's pairwise order: below 8 elements one by one from
0.0; up to 128 in eight interleaved lanes combined as
((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order; longer
runs split at n//2 rounded down to a multiple of 8, left plus right.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

# Relative second-difference level below which an SSE curve counts as flat.
FLAT_CURVE_RTOL = 1e-12


@dataclass(frozen=True)
class ClusteringState:
    """Result of one k-means fit.

    ``sse`` is the within-cluster sum of squared distances to centroids;
    ``sse_trace`` records it after every Lloyd assignment step and is
    non-increasing. Every cluster is non-empty.
    """

    assignments: np.ndarray  # (n,) cluster index per point
    centroids: np.ndarray  # (k, d)
    sse: float
    sse_trace: tuple[float, ...]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def compute_sse(points, assignments, centroids) -> float:
    """Sum of squared distances of every point to its assigned centroid."""
    pts = _as_points(points)
    asg = np.asarray(assignments, dtype=int)
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim == 1:
        cents = cents[:, None]
    if asg.shape != (pts.shape[0],):
        raise ValueError("assignments must give one cluster index per point")
    if cents.shape[1] != pts.shape[1]:
        raise ValueError(
            f"centroid dimension {cents.shape[1]} does not match points ({pts.shape[1]})"
        )
    if asg.size and (asg.min() < 0 or asg.max() >= cents.shape[0]):
        raise ValueError("assignment index outside centroid range")
    return _sse(pts, asg, cents)


def _sse(pts: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> float:
    diff = pts - centroids[assignments]
    return float((diff * diff).sum())


def _seed_centroids(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))  # first index on ties
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen].copy()


def kmeans_fit(points, k: int, max_iter: int = 100, tol: float = 1e-9, seed: int = 0) -> ClusteringState:
    """Cluster points into k non-empty groups by Lloyd iteration.

    Stops when no centroid moves more than ``tol`` or after ``max_iter``
    rounds. Empty clusters are repaired by re-seeding their centroid at the
    point currently farthest from its assigned centroid (the point moves
    with it), which keeps the SSE trace non-increasing.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    return _lloyd(pts, _seed_centroids(pts, k, np.random.default_rng(seed)), max_iter, tol)


def _lloyd(pts: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float) -> ClusteringState:
    """Lloyd iteration from the given seed centroids (updated in place)."""
    n, k = pts.shape[0], centroids.shape[0]
    trace: list[float] = []
    for _ in range(max_iter):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignments = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        counts = np.bincount(assignments, minlength=k)

        # Each empty cluster in turn steals the worst-placed point from a
        # cluster that can spare one (as k <= n, one can; none is emptied).
        for cluster in np.flatnonzero(counts == 0).tolist():
            dist_own = d2[np.arange(n), assignments]
            worst = int(np.argmax(np.where(counts[assignments] > 1, dist_own, -np.inf)))
            centroids[cluster] = pts[worst]
            counts[assignments[worst]] -= 1
            counts[cluster] += 1
            assignments[worst] = cluster
            d2[:, cluster] = ((pts - centroids[cluster]) ** 2).sum(axis=1)

        trace.append(_sse(pts, assignments, centroids))

        # Each cluster's members, contiguous and in index order (the
        # pairwise sum of a slice equals that of a masked copy bit for bit).
        grouped = pts[np.argsort(assignments, kind="stable")]
        ends = np.cumsum(counts).tolist()
        new_centroids = np.empty_like(centroids)
        for cluster, (a, b) in enumerate(zip([0] + ends[:-1], ends)):
            new_centroids[cluster] = grouped[a:b].sum(axis=0) / (b - a)
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if movement <= tol:
            break

    sse = _sse(pts, assignments, centroids)
    trace.append(sse)
    return ClusteringState(
        assignments=assignments,
        centroids=centroids,
        sse=sse,
        sse_trace=tuple(trace),
    )


def elbow_select_k(
    points,
    k_range: tuple[int, int] = (1, 8),
    *,
    max_iter: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> int:
    """Pick the cluster count at the sharpest bend of the SSE-vs-k curve.

    Fits every k in the inclusive range and returns the interior k with the
    largest discrete second difference SSE(k-1) - 2*SSE(k) + SSE(k+1),
    smallest k on ties. A flat curve (second differences below
    ``FLAT_CURVE_RTOL`` of the SSE scale) falls back to k = 1 with a warning.

    Raises:
        ValueError: if the range leaves fewer than three candidate k values
            or extends beyond the number of points.
    """
    return elbow_fit(points, k_range, max_iter=max_iter, tol=tol, seed=seed).k


def elbow_fit(
    points,
    k_range: tuple[int, int] = (1, 8),
    *,
    max_iter: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> ClusteringState:
    """The fit at ``elbow_select_k``'s choice of k, the same as ``kmeans_fit`` gives.

    The seeding runs once, for the largest k; every smaller k starts Lloyd
    from the first k of those seeds.
    """
    pts = _as_points(points)
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi > pts.shape[0]:
        raise ValueError(f"k_range {k_range} must lie within 1..{pts.shape[0]}")
    ks = list(range(lo, hi + 1))
    if len(ks) < 3:
        raise ValueError(f"k_range {k_range} spans {len(ks)} values; need at least 3")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    seeds = _seed_centroids(pts, hi, np.random.default_rng(seed))
    fits = [_lloyd(pts, seeds[:k].copy(), max_iter, tol) for k in ks]
    pick = int(_elbow_choice(np.array([[fit.sse] for fit in fits]), np.array([len(ks)]))[0])
    if pick < 0:
        # stacklevel 3: attributed to the caller of elbow_select_k
        warnings.warn("flat SSE curve: no elbow found, falling back to k=1", stacklevel=3)
        return fits[0] if lo == 1 else _lloyd(pts, seeds[:1].copy(), max_iter, tol)
    return fits[pick]


def _elbow_curves(sse: np.ndarray, n_k: np.ndarray):
    """Column c's SSE(k) for n_k[c] >= 3 consecutive k (zeroed beyond), its second differences, its flat level.

    The second differences are -inf beyond the interior k, and a column
    whose largest one is at or below its flat level is flat.
    """
    rows = np.arange(sse.shape[0])[:, None]
    sse = np.where(rows < n_k, sse, 0.0)
    curvature = np.where(rows[:-2] < n_k - 2, sse[:-2] - 2.0 * sse[1:-1] + sse[2:], -np.inf)
    return sse, curvature, FLAT_CURVE_RTOL * np.maximum(sse.max(axis=0), 1e-300)


def _elbow_choice(sse: np.ndarray, n_k: np.ndarray) -> np.ndarray:
    """Per column (as ``_elbow_curves``), the index of the elbow's k, or -1 for a flat curve.

    The elbow is the interior k with the largest second difference (first on ties).
    """
    _, curvature, level = _elbow_curves(sse, n_k)
    return np.where(curvature.max(axis=0) <= level, -1, 1 + curvature.argmax(axis=0))


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each consecutive segment of ``values``, bit for bit as ``.sum()``.

    ``lengths`` tiles ``values``. Segments longer than 128 are split
    (iteratively, all at once) the way numpy's pairwise sum splits them;
    each leaf adds its 8-lane part with one ``bincount`` (sequential per
    lane) and its remainder with a second one that starts from the combined
    lanes. The splits are then added back up, left plus right.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    splits = []
    while (lens > 128).any():
        big = lens > 128
        half = lens // 2
        half -= half % 8
        width = 1 + big
        first = np.cumsum(width) - width
        parts = np.empty(int(width.sum()), dtype=np.int64)
        parts[first] = np.where(big, half, lens)
        parts[first[big] + 1] = lens[big] - half[big]
        splits.append((first, big))
        lens = parts

    n_leaf = lens.size
    leaf = np.repeat(np.arange(n_leaf), lens)
    offset = np.arange(values.size) - np.repeat(np.cumsum(lens) - lens, lens)
    lane = offset < np.repeat(lens & -8, lens)
    r = np.bincount((leaf * 8 + (offset & 7))[lane], weights=values[lane], minlength=8 * n_leaf).reshape(n_leaf, 8)
    combined = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    rest = ~lane
    sums = np.bincount(
        np.concatenate([np.arange(n_leaf), leaf[rest]]),
        weights=np.concatenate([combined, values[rest]]),
        minlength=n_leaf,
    )
    for first, big in reversed(splits):
        up = sums[first]
        up[big] += sums[first[big] + 1]
        sums = up
    return sums


@functools.lru_cache(maxsize=4096)
def _first_seed(size: int, seed: int) -> int:
    """The first seed index that ``kmeans_fit`` draws for ``size`` points."""
    return int(np.random.default_rng(seed).integers(size))


# The machine epsilon (twice the unit roundoff u) of the features and of
# their prefix sums, all float64.
_EPS = float(np.finfo(float).eps)
# Absolute floor of every guard margin. A distance above it has a normal
# square, so the relative rounding bounds below hold for it.
_TINY = 2.0**-400
# Centroid value of the ranks beyond a problem's k: its midpoints lie above
# every feature below 2^500, so those runs stay empty.
_PAD = 2.0**510


class _SortedCells:
    """Cells of scalar features, each in stable value order, with the prefix sums of its runs.

    ``x`` holds the cells back to back, ``sizes`` their lengths. Cell c
    takes a row of W + 1 positions (W the largest size), from first_c = c
    (W + 1): its features in value order, then +inf to the row's end;
    ``rank[i]`` is feature i's position. ``keys`` pairs every position's
    label with its value as a complex number, which numpy orders
    lexicographically. A feature's label is the first position of the run
    that holds it: its cell, or a group cut from the cell by ``regroup``.
    The label of +inf is its own position. So the keys are sorted, and a
    search for (label, v) lands inside that label's run. ``prefix[t]`` sums
    the features of t's cell that come before t, and ``square_prefix``
    their squares, so a run [a, b) sums to ``prefix[b] - prefix[a]``.
    """

    def __init__(self, x: np.ndarray, sizes: np.ndarray):
        self.x, self.width = x, int(sizes.max()) + 1
        self.first = np.arange(sizes.size) * self.width
        place = np.arange(x.size) + np.repeat(self.first - (np.cumsum(sizes) - sizes), sizes)
        grid = np.full(sizes.size * self.width, np.inf)
        grid[place] = x
        by_value = np.argsort(grid.reshape(sizes.size, self.width), axis=1, kind="stable") + self.first[:, None]
        position = np.empty(grid.size, dtype=np.int64)
        position[by_value.ravel()] = np.arange(grid.size)
        self.rank = position[place]
        self.keys = np.empty(grid.size, dtype=complex)
        self.keys.real = np.arange(grid.size)
        self.keys.real[self.rank] = np.repeat(self.first, sizes)
        self.keys.imag = grid[by_value.ravel()]
        self._sum_runs()

    def _sum_runs(self) -> None:
        rows = self.keys.imag.reshape(-1, self.width)[:, :-1]
        sums = np.zeros((2, rows.shape[0], self.width))
        np.cumsum(rows, axis=1, out=sums[0, :, 1:])
        np.cumsum(np.square(rows), axis=1, out=sums[1, :, 1:])
        self.prefix, self.square_prefix = sums.reshape(2, -1)

    def regroup(self, rows: np.ndarray, n_members: np.ndarray) -> np.ndarray:
        """Each group's first position, once every group of rows is a run.

        ``rows`` lists the features of whole cells in consecutive groups of
        ``n_members``, each group within one cell. A k-means cluster in 1-D
        holds an interval of values, but the empty-cluster repair of
        ``_lloyd`` can part equal features, and a group is a run only if
        its positions are consecutive. A cell with a group that is not
        (its rows still carry the cell's label) is laid out again: its
        groups in turn, each in its own position order, so in value order.
        Every group's positions then take its first position as their label.
        """
        pos = self.rank[rows]
        first = np.cumsum(n_members) - n_members
        lo = np.minimum.reduceat(pos, first)
        split = np.maximum.reduceat(pos, first) - lo + 1 != n_members
        if split.any():
            cell = self.keys.real[pos]
            group = np.repeat(np.arange(n_members.size), n_members)
            for c in np.unique(cell[first[split]]).tolist():
                mine = np.flatnonzero(cell == c)
                moved = rows[mine[np.lexsort((pos[mine], group[mine]))]]
                self.rank[moved] = pos[mine].min() + np.arange(mine.size)
                self.keys.imag[self.rank[moved]] = self.x[moved]
            self._sum_runs()
            pos = self.rank[rows]
            lo = np.minimum.reduceat(pos, first)
        self.keys.real[pos] = np.repeat(lo, n_members)
        return lo


def _error_bounds(x: np.ndarray, prefix: np.ndarray, runs: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Per cell: feature scale S, pairwise-sum depth h, Pmax, centroid bound delta, tie margin.

    S is the largest |x| of a cell of n features, u the unit roundoff of
    float64. The exact centroid is c = fl(s / m), with s the pairwise sum
    (in row order) of a run's m features and mu their exact mean.
    ``_segment_sums`` adds every feature through at most h = 25 +
    ceil(log2 n) roundings (a leaf of <= 128 takes <= 15 lane, 3 combining
    and 7 remainder steps; each halving of a longer segment adds one), so
    |s - m mu| <= gamma_h m S and
    |c - mu| <= (h + 2) u S (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 4). The sorted-run centroid c_run reads the
    run sum as P[b] - P[a] from the prefix sums P of the cell's slot row
    (``_SortedCells``). Each recursive step of P rounds by at most u |P|
    (ibid.), so the run sum is off by at most u m (Pmax + S), with Pmax a
    bound on |P| over the cell: at most the slot row's sum of |x|, so at
    most the row's length for loads in [0, 1]. The subtraction and the
    division add 2 u S. Hence
    |c_run - mu| + |c - mu| <= delta = (h + 3) eps S + 2 eps Pmax.

    The exact assignment is argmin_j fl(fl(x - c_j)^2), which is within
    3.01 u of (x - c_j)^2. It is the nearest centroid whenever every other
    centroid is farther by at least 6.1 u S. A feature at least ``margin`` =
    2 delta + 8 eps S + _TINY from a run midpoint (itself within delta + u S
    of the exact midpoint, and the search interval around it within 2 u S of
    its width), and centroids more than 2 ``margin`` apart, keep at least
    24 u S of that slack.
    """
    magnitude = np.abs(x)
    scale = np.maximum.reduceat(magnitude, starts)
    depth = 25 + np.ceil(np.log2(sizes))
    # |P| over a cell is at most its start value plus the cell's sum of |x|;
    # 1.001 covers the rounding of both for cells below 2^40 features.
    p_max = 1.001 * (np.abs(prefix[runs]) + np.add.reduceat(magnitude, starts))
    delta = (depth + 3) * _EPS * scale + 2 * _EPS * p_max
    return scale, depth, p_max, delta, 2 * delta + 8 * _EPS * scale + _TINY


def _elbow_settled(sse: np.ndarray, err: np.ndarray, n_k: np.ndarray) -> np.ndarray:
    """Columns whose ``_elbow_choice`` is the same for every curve within ``err`` (0 beyond n_k) of ``sse``."""
    sse, curvature, level = _elbow_curves(sse, n_k)
    # The SSE errors plus the second difference's rounding on either curve (finite: -inf stays -inf).
    spread = err[:-2] + 2.0 * err[1:-1] + err[2:]
    spread += 4 * _EPS * (np.abs(sse[:-2]) + 2.0 * np.abs(sse[1:-1]) + np.abs(sse[2:]) + spread)
    upper, lower = curvature + spread, curvature - spread
    level_err = FLAT_CURVE_RTOL * err.max(axis=0) + _EPS * level
    flat = upper.max(axis=0) < level - level_err
    pick = curvature.argmax(axis=0)
    rival = np.where(np.arange(upper.shape[0])[:, None] == pick, -np.inf, upper).max(axis=0)
    sharp = (lower.max(axis=0) > level + level_err) & (lower[pick, np.arange(pick.size)] > rival)
    return flat | sharp


def _fit_cells(
    order: _SortedCells,
    rows: np.ndarray,
    runs: np.ndarray,
    sizes: np.ndarray,
    k_hi: np.ndarray,
    *,
    elbow: bool,
    max_iter: int,
    tol: float,
    seed: int,
) -> np.ndarray:
    """Cluster assignments of every cell of a layer of scalar features.

    ``rows`` lists the features ``order.x[rows]`` of the cells back to back,
    each cell in row order, ``sizes`` their lengths (each >= 1); cell c is
    the run of ``order`` that starts at position ``runs[c]``. The features
    lie below 2^500 in magnitude, so no square overflows. With ``elbow`` a
    cell gets ``elbow_fit(cell, (1, k_hi))``'s assignments, otherwise
    ``kmeans_fit(cell, k_hi)``'s, bit for bit, for the same ``max_iter``,
    ``tol`` and ``seed``. Each (cell, k) is one problem; all problems take
    their Lloyd steps together on sorted runs, and each leaves the pass at
    its own stopping step. A problem that meets an empty run, or comes
    within the rounding bound of a tie or of ``tol``, is fitted alone by
    ``_lloyd``.
    """
    x = order.x[rows]
    n_cells = sizes.size
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes
    # Each feature's place in the cells' runs laid back to back.
    local = order.rank[rows] - np.repeat(runs - starts, sizes)

    # Farthest-point chains, one segment argmax (first index on ties) per
    # seed; the first seed is drawn once per distinct cell size.
    chosen = np.empty((n_cells, int(k_hi.max())), dtype=np.int64)
    distinct, size_of = np.unique(sizes, return_inverse=True)
    chosen[:, 0] = starts + np.array([_first_seed(m, seed) for m in distinct.tolist()])[size_of]
    d2 = (x - np.repeat(x[chosen[:, 0]], sizes)) ** 2
    for j in range(1, chosen.shape[1]):
        top = np.flatnonzero(d2 == np.repeat(np.maximum.reduceat(d2, starts), sizes))
        chosen[:, j] = top[np.searchsorted(top, starts)]
        if j + 1 < chosen.shape[1]:
            d2 = np.minimum(d2, (x - np.repeat(x[chosen[:, j]], sizes)) ** 2)

    # Problems: k = 1..k_hi of each cell under the elbow, else k_hi alone.
    n_k = k_hi if elbow else np.ones_like(k_hi)
    p_cell = np.repeat(np.arange(n_cells), n_k)
    first_problem = np.cumsum(n_k) - n_k
    p_k = np.arange(p_cell.size) - first_problem[p_cell] + 1 if elbow else k_hi.copy()
    kmax = int(p_k.max())
    slot = np.arange(kmax)
    prefix, keys = order.prefix, order.keys
    scale, depth, p_max, delta, margin = _error_bounds(x, prefix, runs, starts, sizes)

    # Each problem's final runs (one run until it has converged on runs) and
    # run means. A problem with k = 1 is one run at its mean: it takes no steps.
    lo, hi = runs[p_cell], runs[p_cell] + sizes[p_cell]
    run_edges = np.repeat(hi[None], kmax + 1, axis=0)
    run_edges[0] = lo
    run_means = np.zeros((kmax, p_cell.size))
    run_means[0] = (prefix[hi] - prefix[lo]) / sizes[p_cell]
    exact: dict[int, ClusteringState] = {}  # problems fitted by _lloyd

    # The Lloyd steps hold one column per live problem, so that the
    # per-problem reductions run over rows. Centroids in value order, _PAD
    # beyond k.
    live = np.flatnonzero(p_k > 1)
    in_k = slot < p_k[live, None]
    centroids = np.ascontiguousarray(np.sort(np.where(in_k, x[chosen[p_cell[live], :kmax]], _PAD), axis=1).T)
    real = in_k.T.copy()
    pad = np.where(real, 0.0, _PAD)  # added to the run means: _PAD stays beyond k
    lo, hi = lo[live][None], hi[live][None]
    slack0 = 2 * delta[p_cell[live]] + _TINY
    # Per midpoint, the tie margin; -inf beyond k, where no feature is near.
    tie_margin = np.where(real[1:], margin[p_cell[live]], -np.inf)
    values = keys.imag
    label = np.repeat(lo.astype(float), kmax - 1, axis=0)  # each midpoint's run label
    # A finished problem is recorded once and then only masked out; the live
    # arrays are compacted once at least half of them have finished.
    active = np.ones(live.size, dtype=bool)
    prev = None
    for step in range(max_iter if live.size else 0):
        # A midpoint's cut is the first run position above it less the
        # margin, searched (once, or where the last cut no longer holds)
        # for the midpoints within k. A feature at the cut within the margin
        # above is a near-tie. (A cut at the run's end reads past it, but
        # then a real run is empty.)
        mids = (centroids[:-1] + centroids[1:]) / 2
        below = mids - tie_margin
        if prev is None:
            cuts = np.repeat(hi, kmax - 1, axis=0)
            search = real[1:]
        else:
            cuts = prev.copy()
            search = real[1:] & ((values[cuts - 1] > below) | (below >= values[cuts]))
        if search.any():
            probe = np.empty(np.count_nonzero(search), dtype=complex)  # (run label, midpoint - margin)
            probe.real = label[search]
            probe.imag = below[search]
            cuts[search] = keys.searchsorted(probe, side="right")
        near_tie = (values[cuts] - mids <= tie_margin).any(axis=0)
        edges = np.concatenate([lo, cuts, hi])
        counts = edges[1:] - edges[:-1]
        at = prefix[edges]
        means = (at[1:] - at[:-1]) / np.maximum(counts, 1) + pad
        movement = np.abs(means - centroids).max(axis=0)
        # The exact movement lies within ``slack`` of ours. Runs equal to the
        # step before repeat the exact centroids bit for bit: movement 0.
        slack = slack0 + 4 * _EPS * movement
        off = movement - tol
        stop = off < -slack
        if step:
            stop |= (cuts == prev).all(axis=0)
        else:
            # Later centroids are means of runs split by margin-wide gaps,
            # so only the seeds can lie close together (or repeat).
            near_tie |= (centroids[1:] - centroids[:-1] <= 2 * tie_margin).any(axis=0)
        if step == max_iter - 1:
            stop[:] = True
        # An empty run within k, or (unless stopped, when off >= -slack) a
        # movement near tol, goes exact too.
        go_exact = near_tie | (counts < real).any(axis=0) | ((off <= slack) & ~stop)
        go_exact &= active
        done = (stop & active) | go_exact
        if done.any():
            ok = done & ~go_exact
            run_edges[:, live[ok]] = edges[:, ok]
            run_means[:, live[ok]] = means[:, ok]
            for p in live[go_exact].tolist():
                a, b = starts[p_cell[p]], ends[p_cell[p]]
                exact[p] = _lloyd(x[a:b, None], x[chosen[p_cell[p], : p_k[p]], None], max_iter, tol)
            active &= ~done
            n_active = np.count_nonzero(active)
            if n_active == 0:
                break
            if 2 * n_active <= active.size:
                live, slack0 = live[active], slack0[active]
                lo, hi, label, tie_margin, real, pad, means, cuts = (
                    a[:, active] for a in (lo, hi, label, tie_margin, real, pad, means, cuts)
                )
                active = active[active]
        centroids, prev = means, cuts

    is_exact = np.zeros(p_cell.size, dtype=bool)
    is_exact[list(exact)] = True
    if elbow:
        # Run SSEs from prefix sums of x and x^2 (Q). Besides the prefix
        # terms (as for the centroids), their arithmetic rounds by
        # < 43 u m S^2; centroids off by delta move them by < m delta^2;
        # and the exact loop's SSE is within (h + 4) u of the true one.
        squares = order.square_prefix
        left, right = run_edges[:-1], run_edges[1:]
        sum_x, sum_xx = prefix[right] - prefix[left], squares[right] - squares[left]
        est = (sum_xx - run_means * (2 * sum_x - (right - left) * run_means)).sum(axis=0)
        q_max = squares[runs + sizes]  # Q only grows along a cell
        rounding = (_EPS * sizes * (q_max + 2 * scale * p_max + 24 * scale**2) + 2 * sizes * delta**2)[p_cell]
        sse, err = np.zeros((kmax, n_cells)), np.zeros((kmax, n_cells))
        sse[p_k - 1, p_cell] = est
        err[p_k - 1, p_cell] = rounding + ((depth + 5) * _EPS)[p_cell] * (np.abs(est) + rounding)
        for p, fit in exact.items():
            sse[p_k[p] - 1, p_cell[p]], err[p_k[p] - 1, p_cell[p]] = fit.sse, 0.0

        # Where the estimates leave the elbow open, the exact SSE decides:
        # each run's members in row order give its exact centroid.
        for p in np.flatnonzero(~_elbow_settled(sse, err, k_hi)[p_cell] & ~is_exact).tolist():
            a, b = starts[p_cell[p]], ends[p_cell[p]]
            ranks = np.repeat(slot, np.diff(run_edges[:, p]))[local[a:b] - a]
            cents = np.array([[x[a:b][ranks == r].mean()] for r in range(p_k[p])])
            sse[p_k[p] - 1, p_cell[p]] = _sse(x[a:b, None], ranks, cents)
        best = first_problem + np.maximum(_elbow_choice(sse, k_hi), 0)  # flat: k = 1
    else:
        best = first_problem

    # perm[c, r] is the seed label of rank r in cell c's chosen fit.
    seeds = np.where(slot < p_k[best][:, None], x[chosen[:, :kmax]], np.inf)
    perm = np.argsort(seeds, axis=1, kind="stable")
    out = np.repeat(perm.ravel(), np.diff(run_edges[:, best], axis=0).T.ravel())[local]
    for p in best[is_exact[best]].tolist():
        out[starts[p_cell[p]] : ends[p_cell[p]]] = exact[p].assignments
    return out
