"""Reference k-means, elbow and MLC for the clustering tests.

Shares no code with the package. ``kmeans_fit`` and ``elbow_select_k``
keep the original Lloyd loop: a boolean mask and ``mean`` per cluster, the
SSE through the validating ``compute_sse``, and a fresh seeding for every
k of an elbow. The package's ``kmeans_fit`` and ``elbow_select_k`` must
reproduce them bit for bit.

``sorted_run_fit`` is the oracle of MLC's clustering rule, the sorted-run
Lloyd on float64 prefix sums (the ``cellsleep.estimators.kmeans``
docstring states it). It fits one cell at a time, in plain Python floats,
with the prefix sums of the cell's slot row added one by one, in
``np.cumsum``'s order (``sorted_row``). ``mlc_layers`` is the original MLC
layer loop on that rule; the package's ``mlc_layers`` must reproduce it
bit for bit. Its Lloyd settings stay parameters here, while the package
holds them as ``kmeans`` constants, which the tests patch to reach other
values.
"""

import bisect
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


class SortedRow(NamedTuple):
    values: list  # the slot row's features, ascending
    prefix: list  # prefix[t] = values[0] + ... + values[t - 1], added one by one
    squares: list  # the same for the squared values


def sorted_row(features):
    values = sorted(float(v) for v in features)
    prefix, squares = [0.0], [0.0]
    for v in values:
        prefix.append(prefix[-1] + v)
        squares.append(squares[-1] + v * v)
    return SortedRow(values, prefix, squares)


class RunFit(NamedTuple):
    labels: np.ndarray  # per feature of the cell (row order), the rank of its run
    k: int
    empty_runs: int  # steps, over every problem fitted, that left a run within k empty
    closest: float  # smallest distance of a feature to a midpoint, over every step and problem
    movements: tuple  # the chosen problem's movement per step


def _farthest_point_chain(xs, k, seed):
    first = int(np.random.default_rng(seed).integers(len(xs)))
    chosen = [first]
    d2 = [(v - xs[first]) * (v - xs[first]) for v in xs]
    while len(chosen) < k:
        nxt = max(range(len(xs)), key=d2.__getitem__)  # first index on ties
        chosen.append(nxt)
        d2 = [min(d, (v - xs[nxt]) * (v - xs[nxt])) for d, v in zip(d2, xs)]
    return [xs[i] for i in chosen]


def _runs_lloyd(row, a, b, seeds, max_iter, tol):
    """One problem: its final run edges and centroids, empty-run steps, closest midpoint distance, movements."""
    centroids = sorted(seeds)
    k = len(centroids)
    edges, means = [a, b], [(row.prefix[b] - row.prefix[a]) / (b - a)]
    empty, closest, movements = 0, np.inf, []
    for _ in range(max_iter if k > 1 else 0):
        mids = [(centroids[j] + centroids[j + 1]) / 2 for j in range(k - 1)]
        cuts = [bisect.bisect_right(row.values, m, a, b) for m in mids]
        for m, e in zip(mids, cuts):
            if e > a:
                closest = min(closest, m - row.values[e - 1])
            if e < b:
                closest = min(closest, row.values[e] - m)
        edges = [a] + cuts + [b]
        means = []
        for j in range(k):
            n = edges[j + 1] - edges[j]
            means.append((row.prefix[edges[j + 1]] - row.prefix[edges[j]]) / n if n else centroids[j])
        empty += any(edges[j + 1] == edges[j] for j in range(k))
        movements.append(max(abs(new - old) for new, old in zip(means, centroids)))
        centroids = sorted(means)
        if movements[-1] <= tol:
            break
    return edges, means, empty, closest, tuple(movements)


def _runs_sse(row, edges, means):
    total = None
    for j, mu in enumerate(means):
        lo, hi = edges[j], edges[j + 1]
        sum_x, sum_xx = row.prefix[hi] - row.prefix[lo], row.squares[hi] - row.squares[lo]
        term = sum_xx - mu * (2 * sum_x - (hi - lo) * mu)
        total = term if total is None else total + term
    return total


def sorted_run_fit(row, cell, k, *, elbow, max_iter=100, tol=1e-9, seed=0):
    """The sorted-run Lloyd on one cell: at k, or with ``elbow`` at the elbow of 1..k.

    ``cell`` holds the cell's features in row order, and the cell is the run
    of ``row`` that holds exactly its values.
    """
    xs = [float(v) for v in cell]
    a = bisect.bisect_left(row.values, min(xs))
    b = a + len(xs)
    assert row.values[a:b] == sorted(xs), "the cell is not a run of its slot row"
    seeds = _farthest_point_chain(xs, k, seed)
    ks = range(1, k + 1) if elbow else [k]
    fits = {j: _runs_lloyd(row, a, b, seeds[:j], max_iter, tol) for j in ks}
    pick = k
    if elbow:
        sse = [_runs_sse(row, fits[j][0], fits[j][1]) for j in ks]
        curvature = [sse[i] - 2.0 * sse[i + 1] + sse[i + 2] for i in range(len(sse) - 2)]
        top = max(curvature)
        pick = 1 if top <= FLAT_CURVE_RTOL * max(max(sse), 1e-300) else 2 + curvature.index(top)
    edges, _, _, _, movements = fits[pick]
    cuts = edges[1:-1]
    labels = np.array([bisect.bisect_right(cuts, bisect.bisect_left(row.values, v)) for v in xs])
    return RunFit(
        labels=labels,
        k=pick,
        empty_runs=sum(fit[2] for fit in fits.values()),
        closest=min(fit[3] for fit in fits.values()),
        movements=movements,
    )


def mlc_layers(
    loads, active_mask, history, layers, k_override=None, elbow_k_max=8, seed=0, max_iter=100, tol=1e-9, fits=None
):
    """Per-layer sleeper estimates (layers, n_sleepers) and final contributor ids.

    Each fitted cell's ``RunFit`` is appended to ``fits`` when given.
    """
    loads = np.asarray(loads, dtype=float)
    active = np.flatnonzero(active_mask)
    sleepers = np.flatnonzero(~active_mask)
    hist_sleep = np.asarray(history, dtype=float)[sleepers]
    finite = np.isfinite(hist_sleep)
    features = np.where(active_mask, loads, 0.0)
    active_sum = 0.0  # left to right in id order
    for a in active:
        active_sum += float(loads[a])
    features[sleepers] = np.where(finite, hist_sleep, active_sum / active.size)
    row = sorted_row(features)
    # Each group is a run of the row's stable value order; its active sum is
    # a difference of the prefix sums of active loads in that order, each
    # sleeper adding 0.0.
    by_value = sorted(range(loads.size), key=lambda i: features[i])
    position = {i: t for t, i in enumerate(by_value)}
    active_prefix = [0.0]
    for i in by_value:
        active_prefix.append(active_prefix[-1] + (float(loads[i]) if active_mask[i] else 0.0))

    estimates = features[sleepers].copy()
    contributors = [() for _ in sleepers]
    sleeper_pos = {int(s): i for i, s in enumerate(sleepers)}
    cells = [np.arange(loads.size)]
    layer_trace = np.empty((layers, sleepers.size))
    for layer in range(layers):
        next_cells = []
        for cell in cells:
            if cell.size < 3 or np.ptp(features[cell]) == 0.0:
                labels, k = np.zeros(cell.size, dtype=int), 1
            else:
                elbow = k_override is None
                k = min(elbow_k_max if elbow else k_override, cell.size)
                fit = sorted_run_fit(row, features[cell], k, elbow=elbow, max_iter=max_iter, tol=tol, seed=seed)
                labels = fit.labels
                if fits is not None:
                    fits.append(fit)
            for cluster in range(k):
                sub = cell[labels == cluster]
                sub_active = sub[active_mask[sub]]
                sub_sleep = sub[~active_mask[sub]]
                if sub_sleep.size == 0:
                    continue
                if sub_active.size:
                    first = min(position[int(i)] for i in sub)
                    assert max(position[int(i)] for i in sub) == first + sub.size - 1, "not a run"
                    mu = (active_prefix[first + sub.size] - active_prefix[first]) / sub_active.size
                    ids = tuple(int(a) for a in sub_active)
                    for s in sub_sleep:
                        estimates[sleeper_pos[int(s)]] = mu
                        contributors[sleeper_pos[int(s)]] = ids
                next_cells.append(sub)
        cells = next_cells
        layer_trace[layer] = estimates
    return layer_trace, contributors
