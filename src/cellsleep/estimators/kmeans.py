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
Lloyd pass and gives each problem the same assignments and SSE as
``kmeans_fit`` or ``elbow_fit`` on that cell alone. Its sums go through
``_segment_sums``, which adds each segment in numpy's pairwise order:
below 8 elements one by one from 0.0; up to 128 in eight interleaved lanes
combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in
order; longer runs split at n//2 rounded down to a multiple of 8, left
plus right.
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

        if not counts.all():
            for cluster in range(k):
                if (assignments == cluster).any():
                    continue
                # Steal the worst-placed point from a cluster that can spare one.
                dist_own = d2[np.arange(n), assignments]
                counts = np.bincount(assignments, minlength=k)
                movable = counts[assignments] > 1
                if not movable.any():
                    continue
                worst = int(np.argmax(np.where(movable, dist_own, -np.inf)))
                centroids[cluster] = pts[worst]
                assignments[worst] = cluster
                d2[:, cluster] = ((pts - centroids[cluster]) ** 2).sum(axis=1)
            counts = np.bincount(assignments, minlength=k)

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
    warn_on_flat: bool = True,
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
    return elbow_fit(
        points, k_range, max_iter=max_iter, tol=tol, seed=seed, warn_on_flat=warn_on_flat
    ).k


def elbow_fit(
    points,
    k_range: tuple[int, int] = (1, 8),
    *,
    max_iter: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
    warn_on_flat: bool = True,
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
    pick = int(_elbow_choice(np.array([[fit.sse for fit in fits]]), np.array([len(ks)]))[0])
    if pick < 0:
        if warn_on_flat:
            # stacklevel 3: attributed to the caller of elbow_select_k
            warnings.warn("flat SSE curve: no elbow found, falling back to k=1", stacklevel=3)
        return fits[0] if lo == 1 else _lloyd(pts, seeds[:1].copy(), max_iter, tol)
    return fits[pick]


def _elbow_choice(sse: np.ndarray, n_k: np.ndarray) -> np.ndarray:
    """Per row of SSE curves, the index of the elbow's k, or -1 for a flat curve.

    Row r holds SSE(k) for n_k[r] >= 3 consecutive k values; the entries
    beyond them are ignored. The elbow is the interior k with the largest
    second difference (first on ties).
    """
    cols = np.arange(sse.shape[1])
    sse = np.where(cols < n_k[:, None], sse, 0.0)
    curvature = sse[:, :-2] - 2.0 * sse[:, 1:-1] + sse[:, 2:]
    curvature = np.where(cols[:-2] < (n_k - 2)[:, None], curvature, -np.inf)
    scale = np.maximum(sse.max(axis=1), 1e-300)
    flat = curvature.max(axis=1) <= FLAT_CURVE_RTOL * scale
    return np.where(flat, -1, 1 + curvature.argmax(axis=1))


# Centroid value for the table slots beyond a problem's k: far from every
# feature, so it never wins an argmin, yet its squared distance stays finite.
_FAR = 1e150


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
    lane = offset < (lens - lens % 8)[leaf]
    r = np.bincount(
        leaf[lane] * 8 + offset[lane] % 8, weights=values[lane], minlength=8 * n_leaf
    ).reshape(n_leaf, 8)
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


def _fit_cells(
    x: np.ndarray, sizes: np.ndarray, k_hi: np.ndarray, *, elbow: bool, max_iter: int, tol: float, seed: int
) -> np.ndarray:
    """Cluster assignments of every cell of a layer of scalar features.

    ``x`` holds the cells back to back, ``sizes`` their lengths (each >= 1).
    With ``elbow`` a cell gets ``elbow_fit(cell, (1, k_hi))``'s assignments,
    otherwise ``kmeans_fit(cell, k_hi)``'s, bit for bit, for the same
    ``max_iter``, ``tol`` and ``seed``. Each (cell, k) is one problem; all
    problems take their Lloyd steps together, and each leaves the pass at
    its own stopping step. A problem that meets an empty cluster is fitted
    alone by ``_lloyd``, which repairs it.
    """
    n_cells = sizes.size
    starts = np.cumsum(sizes) - sizes
    cell = np.repeat(np.arange(n_cells), sizes)
    index = np.arange(x.size)

    # Farthest-point chains, one segment argmax (first index on ties) per seed.
    chosen = np.empty((n_cells, int(k_hi.max())), dtype=np.int64)
    chosen[:, 0] = starts + [_first_seed(m, seed) for m in sizes.tolist()]
    d2 = (x - x[chosen[cell, 0]]) ** 2
    for j in range(1, chosen.shape[1]):
        top = np.maximum.reduceat(d2, starts)
        chosen[:, j] = np.minimum.reduceat(np.where(d2 == top[cell], index, x.size), starts)
        d2 = np.minimum(d2, (x - x[chosen[cell, j]]) ** 2)

    # Problems: k = 1..k_hi of each cell under the elbow, else k_hi alone.
    n_k = k_hi if elbow else np.ones_like(k_hi)
    p_cell = np.repeat(np.arange(n_cells), n_k)
    first_problem = np.cumsum(n_k) - n_k
    p_k = np.arange(p_cell.size) - first_problem[p_cell] + 1 if elbow else k_hi.copy()
    p_size = sizes[p_cell]
    p_start = np.cumsum(p_size) - p_size
    e_problem = np.repeat(np.arange(p_cell.size), p_size)
    e_offset = np.arange(e_problem.size) - p_start[e_problem]
    xe = x[starts[p_cell][e_problem] + e_offset]

    kmax = int(p_k.max())
    slot = np.arange(kmax)
    centroids = np.where(slot < p_k[:, None], x[chosen[p_cell, :kmax]], _FAR)
    assignments = np.zeros(xe.size, dtype=np.int64)
    final = np.full_like(centroids, _FAR)

    # The live problems, their elements, and each element's live problem.
    live, live_k, pos, xl, el = np.arange(p_cell.size), p_k, np.arange(xe.size), xe, e_problem
    for step in range(max_iter):
        asg = ((xl[:, None] - centroids[el]) ** 2).argmin(axis=1)  # ties: lowest index
        key = el * kmax + asg
        counts = np.bincount(key, minlength=centroids.size).reshape(centroids.shape)
        real = slot < live_k[:, None]
        empty = ((counts == 0) & real).any(axis=1)
        sums = _segment_sums(xl[np.argsort(key, kind="stable")], counts.ravel()).reshape(counts.shape)
        new = np.where(real, sums / np.maximum(counts, 1), _FAR)
        movement = np.sqrt((new - centroids) ** 2).max(axis=1)
        done = (movement <= tol) | empty | (step == max_iter - 1)
        stop = done & ~empty
        stopped = stop[el]
        assignments[pos[stopped]] = asg[stopped]
        final[live[stop]] = new[stop]
        for p in live[empty].tolist():
            c, k = p_cell[p], p_k[p]
            a, b = starts[c], starts[c] + sizes[c]
            fit = _lloyd(x[a:b, None], x[chosen[c, :k], None], max_iter, tol)
            assignments[p_start[p] : p_start[p] + sizes[c]] = fit.assignments
            final[p, :k] = fit.centroids[:, 0]
        if done.all():
            break
        keep = ~done
        kept = keep[el]
        renumber = np.cumsum(keep) - 1
        live, live_k, centroids = live[keep], live_k[keep], new[keep]
        pos, xl, el = pos[kept], xl[kept], renumber[el[kept]]

    if elbow:
        diff = xe - final[e_problem, assignments]
        sse = np.zeros((n_cells, kmax))
        sse[p_cell, p_k - 1] = _segment_sums(diff * diff, p_size)
        best = first_problem + np.maximum(_elbow_choice(sse, k_hi), 0)  # flat: k = 1
    else:
        best = first_problem
    return assignments[p_start[best][cell] + index - starts[cell]]
