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
"""

from __future__ import annotations

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

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == cluster)


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
    sse = np.array([fit.sse for fit in fits])
    curvature = sse[:-2] - 2.0 * sse[1:-1] + sse[2:]
    scale = max(float(sse.max()), 1e-300)
    if curvature.max() <= FLAT_CURVE_RTOL * scale:
        if warn_on_flat:
            # stacklevel 3: attributed to the caller of elbow_select_k
            warnings.warn("flat SSE curve: no elbow found, falling back to k=1", stacklevel=3)
        return fits[0] if lo == 1 else _lloyd(pts, seeds[:1].copy(), max_iter, tol)
    return fits[1 + int(np.argmax(curvature))]
