"""Reference k-means, elbow and MLC for the clustering tests.

Shares no code with the package. ``kmeans_fit`` and ``elbow_select_k``
keep the original Lloyd loop: a boolean mask and ``mean`` per cluster, the
SSE through the validating ``compute_sse``, and a fresh seeding for every
k of an elbow. ``mlc_layers`` is the original MLC layer loop on top of
them: it selects k by the elbow, then fits that k again. The package must
reproduce all of it bit for bit.
"""

import warnings
from typing import NamedTuple

import numpy as np

FLAT_CURVE_RTOL = 1e-12


class NaiveFit(NamedTuple):
    assignments: np.ndarray
    centroids: np.ndarray
    sse: float
    sse_trace: tuple

    @property
    def k(self):
        return self.centroids.shape[0]

    def members(self, cluster):
        return np.flatnonzero(self.assignments == cluster)


def _as_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def compute_sse(points, assignments, centroids):
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
    diff = pts - cents[asg]
    return float((diff * diff).sum())


def _seed_centroids(pts, k, rng):
    n = pts.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))  # first index on ties
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen].copy()


def kmeans_fit(points, k, max_iter=100, tol=1e-9, seed=0):
    pts = _as_points(points)
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(pts, k, rng)

    assignments = np.zeros(n, dtype=int)
    trace = []
    for _ in range(max_iter):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignments = np.argmin(d2, axis=1)  # ties resolve to the lowest index

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

        trace.append(compute_sse(pts, assignments, centroids))

        new_centroids = centroids.copy()
        for cluster in range(k):
            members = assignments == cluster
            if members.any():
                new_centroids[cluster] = pts[members].mean(axis=0)
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if movement <= tol:
            break

    sse = compute_sse(pts, assignments, centroids)
    trace.append(sse)
    return NaiveFit(assignments=assignments, centroids=centroids, sse=sse, sse_trace=tuple(trace))


def elbow_select_k(points, k_range=(1, 8), *, max_iter=100, tol=1e-9, seed=0, warn_on_flat=True):
    pts = _as_points(points)
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi > pts.shape[0]:
        raise ValueError(f"k_range {k_range} must lie within 1..{pts.shape[0]}")
    ks = list(range(lo, hi + 1))
    if len(ks) < 3:
        raise ValueError(f"k_range {k_range} spans {len(ks)} values; need at least 3")

    sse = np.array([kmeans_fit(pts, k, max_iter=max_iter, tol=tol, seed=seed).sse for k in ks])
    curvature = sse[:-2] - 2.0 * sse[1:-1] + sse[2:]
    scale = max(float(sse.max()), 1e-300)
    if curvature.max() <= FLAT_CURVE_RTOL * scale:
        if warn_on_flat:
            warnings.warn("flat SSE curve: no elbow found, falling back to k=1", stacklevel=2)
        return 1
    return ks[1 + int(np.argmax(curvature))]


def mlc_layers(loads, active_mask, history, layers, k_override=None, elbow_k_max=8, seed=0, max_iter=100):
    """Per-layer sleeper estimates (layers, n_sleepers) and final contributor ids."""
    loads = np.asarray(loads, dtype=float)
    active = np.flatnonzero(active_mask)
    sleepers = np.flatnonzero(~active_mask)
    hist_sleep = np.asarray(history, dtype=float)[sleepers]
    finite = np.isfinite(hist_sleep)
    features = np.where(active_mask, loads, 0.0)
    features[sleepers] = np.where(finite, hist_sleep, float(loads[active].mean()))

    estimates = features[sleepers].copy()
    contributors = [() for _ in sleepers]
    sleeper_pos = {int(s): i for i, s in enumerate(sleepers)}
    cells = [np.arange(loads.size)]
    layer_trace = np.empty((layers, sleepers.size))
    for layer in range(layers):
        next_cells = []
        for cell in cells:
            pts = features[cell][:, None]
            if cell.size < 3 or np.ptp(pts) == 0.0:
                k = 1
            elif k_override is not None:
                k = min(k_override, cell.size)
            else:
                k = elbow_select_k(
                    pts, (1, min(elbow_k_max, cell.size)), max_iter=max_iter, seed=seed, warn_on_flat=False
                )
            state = kmeans_fit(pts, k, max_iter=max_iter, seed=seed)
            for cluster in range(state.k):
                sub = cell[state.members(cluster)]
                sub_active = sub[active_mask[sub]]
                sub_sleep = sub[~active_mask[sub]]
                if sub_sleep.size == 0:
                    continue
                if sub_active.size:
                    mu = float(loads[sub_active].mean())
                    ids = tuple(int(a) for a in sub_active)
                    for s in sub_sleep:
                        estimates[sleeper_pos[int(s)]] = mu
                        contributors[sleeper_pos[int(s)]] = ids
                next_cells.append(sub)
        cells = next_cells
        layer_trace[layer] = estimates
    return layer_trace, contributors
