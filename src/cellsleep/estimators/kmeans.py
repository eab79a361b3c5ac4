"""Lloyd k-means with a within-cluster SSE trace and elbow selection.

The clustering feature here is usually the scalar per-SBS load, but the
fit accepts general vectors so tests can use multi-dimensional fixtures.
Seeding is "k-means++ style" greedy farthest point: the first centroid is
drawn by the seeded generator, each further centroid is the point farthest
from its nearest chosen centroid (first index on ties), so a fit is fully
determined by (points, k, seed). ``elbow_select_k`` fits every k of its
range with ``kmeans_fit`` and picks k from the SSE curve
(``_elbow_choice``).

Each Lloyd step of ``kmeans_fit`` recomputes a centroid as its members' sum
over their count, like ``pts[members].mean(axis=0)``. The members are
gathered by one stable argsort of the assignments, so each cluster is a
contiguous slice in index order: the same array, in the same order, that a
boolean mask selects, so numpy's pairwise sum gives the same bits.

``_fit_cells`` is MLC's clustering of scalar features, and its rule is the
sorted-run Lloyd on float64 prefix sums. In 1-D every nearest-centroid
cluster is a run of the sorted features (Wang & Song 2011, *Ckmeans.1d.dp*,
R Journal 3(2)), so a cell is a run [a, b) of its slot row in stable value
order (``_SortedCells``), and P and Q are that row's prefix sums of x and
x^2, added one by one from the row's start (``np.cumsum``). The rule has no
free settings: ``LLOYD_MAX_ITER``, ``LLOYD_TOL``, ``LLOYD_SEED`` and
``ELBOW_K_MAX`` below are its values, and the defaults of ``kmeans_fit``
and ``elbow_select_k``. One (cell, k) problem:

- Its seeds are the first k of the cell's farthest-point chain, drawn as
  ``kmeans_fit`` draws them, with ``default_rng(LLOYD_SEED)`` (seed 0),
  and become its centroids in ascending order.
- A step cuts the cell at each midpoint m_j = (c_j + c_{j+1}) / 2 of
  consecutive centroids: e_j is the first position of [a, b) whose feature
  exceeds m_j (``searchsorted(side="right")``), so a feature exactly at a
  midpoint joins the lower-valued cluster. Run j is [e_{j-1}, e_j), with
  e_{-1} = a and e_{k-1} = b.
- Run j's new centroid is (P[e_j] - P[e_{j-1}]) / (e_j - e_{j-1}). An empty
  run (coinciding seeds leave one) keeps its centroid; this is the one
  repair. The movement is the largest |new - old| centroid change, and the
  new centroids are put in ascending order for the next step.
- The problem stops after the first step whose movement is <= ``LLOYD_TOL``
  (1e-9), or after ``LLOYD_MAX_ITER`` (100) steps. Its clusters are that
  step's runs, labelled by rank 0..k-1 in value order (an empty run labels
  nothing).
- The elbow runs over k = 1..``ELBOW_K_MAX`` (8), or up to the cell's size
  if smaller. It reads SSE(k) as the sum over runs, in rank order, of
  (Q[e_j] - Q[e_{j-1}]) - mu_j (2 (P[e_j] - P[e_{j-1}]) - n_j mu_j), with
  mu_j the last step's new centroid and n_j the run's size, and picks k
  from that curve as ``elbow_select_k`` does (``_elbow_choice``).

Wherever no feature lies near a midpoint this finds ``kmeans_fit``'s
partition; the centroid bits differ (prefix-sum differences, not pairwise
sums). ``tests/naive_kmeans.py`` holds a pure-Python oracle of the rule.

``_fit_cells`` runs every problem of a clustering layer in one vectorized
pass with no distance matrix: O(k log n) per step and problem. The search
runs over (slot row, feature) pairs as complex numbers, which numpy orders
lexicographically, so every midpoint of every cell is placed in its slot
row by one ``searchsorted``. A run holds every feature of its row between
its ends, so the row's cut, clamped to the run, is the run's cut. A cut
that still holds from the step before is kept without a search. A problem
that has stopped is masked out of the step; the live arrays are compacted
only once half of them have stopped.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Relative second-difference level below which an SSE curve counts as flat.
FLAT_CURVE_RTOL = 1e-12

# The values of MLC's clustering rule (module docstring).
LLOYD_MAX_ITER = 100  # Lloyd steps at most
LLOYD_TOL = 1e-9  # a step that moves no centroid further stops
LLOYD_SEED = 0  # of the generator that draws the first seed
ELBOW_K_MAX = 8  # the elbow's largest k


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


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


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


def kmeans_fit(
    points, k: int, max_iter: int = LLOYD_MAX_ITER, tol: float = LLOYD_TOL, seed: int = LLOYD_SEED
) -> ClusteringState:
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
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")  # like NaN, it would run every step
    centroids = _seed_centroids(pts, k, np.random.default_rng(seed))
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
    k_range: tuple[int, int] = (1, ELBOW_K_MAX),
    *,
    max_iter: int = LLOYD_MAX_ITER,
    tol: float = LLOYD_TOL,
    seed: int = LLOYD_SEED,
) -> int:
    """Pick the cluster count at the sharpest bend of the SSE-vs-k curve.

    Fits every k in the inclusive range with ``kmeans_fit`` and returns the
    interior k with the largest discrete second difference
    SSE(k-1) - 2*SSE(k) + SSE(k+1), smallest k on ties. A flat curve (second
    differences below ``FLAT_CURVE_RTOL`` of the SSE scale) falls back to
    k = 1 with a warning.

    Raises:
        ValueError: if the range leaves fewer than three candidate k values
            or extends beyond the number of points.
    """
    pts = _as_points(points)
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi > pts.shape[0]:
        raise ValueError(f"k_range {k_range} must lie within 1..{pts.shape[0]}")
    ks = list(range(lo, hi + 1))
    if len(ks) < 3:
        raise ValueError(f"k_range {k_range} spans {len(ks)} values; need at least 3")
    sse = np.array([[kmeans_fit(pts, k, max_iter=max_iter, tol=tol, seed=seed).sse] for k in ks])
    pick = int(_elbow_choice(sse, np.array([len(ks)]))[0])
    if pick < 0:
        warnings.warn("flat SSE curve: no elbow found, falling back to k=1", stacklevel=2)
        return 1
    return ks[pick]


def _elbow_choice(sse: np.ndarray, n_k: np.ndarray) -> np.ndarray:
    """Per column, the index of the elbow's k in SSE(k) for n_k >= 3 consecutive k, or -1 for a flat curve.

    Column c holds its curve in rows 0..n_k[c] - 1 (rows beyond are read as
    0). The elbow is the interior k with the largest second difference
    (first on ties); a curve whose largest one is at or below
    ``FLAT_CURVE_RTOL`` of its largest SSE is flat.
    """
    rows = np.arange(sse.shape[0])[:, None]
    sse = np.where(rows < n_k, sse, 0.0)
    curvature = np.where(rows[:-2] < n_k - 2, sse[:-2] - 2.0 * sse[1:-1] + sse[2:], -np.inf)
    level = FLAT_CURVE_RTOL * np.maximum(sse.max(axis=0), 1e-300)
    return np.where(curvature.max(axis=0) <= level, -1, 1 + curvature.argmax(axis=0))


@functools.lru_cache(maxsize=4096)
def _first_seed(size: int, seed: int) -> int:
    """The first seed index that ``kmeans_fit`` draws for ``size`` points."""
    return int(np.random.default_rng(seed).integers(size))


# Centroid value of the ranks beyond a problem's k: its midpoints lie above
# every feature below 2^500, so those runs stay empty.
_PAD = 2.0**510


class _SortedCells:
    """Rows of scalar features, each in stable value order, with its prefix sums; read-only.

    ``x`` holds the rows back to back, ``sizes`` their lengths. Row c takes
    W + 1 positions (W the largest size), from first_c = c (W + 1): its
    features in value order, equal ones in row order, then +inf to the
    row's end; ``rank[i]`` is feature i's position. ``keys`` pairs every
    position's row label first_c with its value as a complex number, which
    numpy orders lexicographically, so the keys are sorted and a search for
    (first_c, v) lands in row c. ``prefix[t]`` sums the features of t's row
    that come before t, one by one (``prefix_of``), and ``square_prefix``
    their squares, so a run [a, b) sums to ``prefix[b] - prefix[a]``. Built
    once, the arrays are never written again.
    """

    def __init__(self, x: np.ndarray, sizes: np.ndarray):
        self.x, self.width = x.view(), int(sizes.max()) + 1
        self.first = np.arange(sizes.size) * self.width
        place = np.arange(x.size) + np.repeat(self.first - (np.cumsum(sizes) - sizes), sizes)
        grid = np.full(sizes.size * self.width, np.inf)
        grid[place] = x
        rows = grid.reshape(sizes.size, self.width)
        by_value = np.argsort(rows, axis=1)
        values = np.take_along_axis(rows, by_value, axis=1)
        # The unstable sort may leave equal features out of row order: sort
        # each run of them by column, through the key (run, column). The
        # +inf padding keeps any order, as no feature's rank points into it.
        tied = (values[:, 1:] == values[:, :-1]) & (values[:, 1:] < np.inf)
        if tied.any():
            by_value[:, 1:] += np.cumsum(~tied, axis=1) * self.width
            by_value = np.sort(by_value, axis=1) % self.width
        position = np.empty(grid.size, dtype=np.int64)
        position[(by_value + self.first[:, None]).ravel()] = np.arange(grid.size)
        self.rank = position[place]
        self.keys = np.empty(grid.size, dtype=complex)
        self.keys.real = np.repeat(self.first, self.width)
        self.keys.imag = values.ravel()
        self.prefix, self.square_prefix = self.prefix_of(x), self.prefix_of(x * x)
        for array in (self.x, self.first, self.rank, self.keys, self.prefix, self.square_prefix):
            array.flags.writeable = False

    def prefix_of(self, v: np.ndarray) -> np.ndarray:
        """Per position t, the sum of ``v`` (one value per feature) over the
        features of t's row that come before t, added one by one in value
        order from 0.0 (``np.cumsum``); +inf past the row's last feature."""
        grid = np.full(self.keys.size, np.inf)
        grid[self.rank] = v
        sums = np.zeros_like(grid).reshape(-1, self.width)
        np.cumsum(grid.reshape(-1, self.width)[:, :-1], axis=1, out=sums[:, 1:])
        return sums.ravel()


def _fit_cells(
    order: _SortedCells,
    rows: np.ndarray,
    runs: np.ndarray,
    sizes: np.ndarray,
    k_hi: np.ndarray,
    *,
    elbow: bool,
) -> np.ndarray:
    """Cluster labels of every cell of a layer of scalar features, by the sorted-run Lloyd.

    ``rows`` lists the features ``order.x[rows]`` of the cells back to back,
    each cell in row order, ``sizes`` their lengths (each >= 1); cell c is
    the run of ``order`` that starts at position ``runs[c]``. The features
    lie below 2^500 in magnitude, so no square overflows. A cell is fitted
    at k = ``k_hi``, or with ``elbow`` at the elbow of k = 1..``k_hi``, by
    the rule in the module docstring, and each feature gets the rank of its
    run (0 for the lowest values). Each (cell, k) is one problem; all
    problems take their steps together, and each leaves at its own
    stopping step.
    """
    x = order.x[rows]
    n_cells = sizes.size
    starts = np.cumsum(sizes) - sizes
    # Each feature's place in the cells' runs laid back to back.
    local = order.rank[rows] - np.repeat(runs - starts, sizes)

    # Farthest-point chains, one segment argmax (first index on ties) per
    # seed; the first seed is drawn once per distinct cell size.
    chosen = np.empty((n_cells, int(k_hi.max())), dtype=np.int64)
    distinct, size_of = np.unique(sizes, return_inverse=True)
    chosen[:, 0] = starts + np.array([_first_seed(m, LLOYD_SEED) for m in distinct.tolist()])[size_of]
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
    prefix, keys = order.prefix, order.keys

    # Each problem's final runs: one run until it stops (a problem with
    # k = 1 takes no steps).
    lo, hi = runs[p_cell], runs[p_cell] + sizes[p_cell]
    run_edges = np.repeat(hi[None], kmax + 1, axis=0)
    run_edges[0] = lo

    # The steps hold one column per live problem, so that the per-problem
    # reductions run over rows. Centroids ascending, _PAD beyond k.
    live = np.flatnonzero(p_k > 1)
    in_k = np.arange(kmax) < p_k[live, None]
    centroids = np.ascontiguousarray(np.sort(np.where(in_k, x[chosen[p_cell[live], :kmax]], _PAD), axis=1).T)
    real = in_k.T[1:].copy()  # the midpoints within k
    lo, hi = lo[live][None], hi[live][None]
    values = keys.imag
    label = np.repeat((lo - lo % order.width).astype(float), kmax - 1, axis=0)  # each midpoint's row label
    # A stopped problem is recorded once and then only masked out; the live
    # arrays are compacted once at least half of them have stopped.
    active = np.ones(live.size, dtype=bool)
    prev = None
    for step in range(LLOYD_MAX_ITER if live.size else 0):
        # A cut is the first run position above its midpoint, searched on the
        # first step and then only where the last step's cut no longer holds.
        # (At a run's start or end the test reads a position of another run
        # or +inf, which can only ask for a needless search.)
        mids = (centroids[:-1] + centroids[1:]) / 2
        if prev is None:
            cuts = np.repeat(hi, kmax - 1, axis=0)
            search = real
        else:
            cuts = prev
            search = real & ((values[cuts - 1] > mids) | (mids >= values[cuts]))
        if search.any():
            # The first position of the slot row above the midpoint, clamped
            # to the run (where a kept cut lies already).
            probe = np.empty(np.count_nonzero(search), dtype=complex)  # (row label, midpoint)
            probe.real = label[search]
            probe.imag = mids[search]
            cuts[search] = keys.searchsorted(probe, side="right")
            np.clip(cuts, lo, hi, out=cuts)
        edges = np.concatenate([lo, cuts, hi])
        counts = edges[1:] - edges[:-1]
        at = prefix[edges]
        # An empty run (and every rank beyond k) keeps its centroid.
        means = np.divide(at[1:] - at[:-1], counts, out=centroids.copy(), where=counts > 0)
        stop = np.abs(means - centroids).max(axis=0) <= LLOYD_TOL
        if step == LLOYD_MAX_ITER - 1:
            stop[:] = True
        done = stop & active
        if done.any():
            run_edges[:, live[done]] = edges[:, done]
            active &= ~done
            n_active = np.count_nonzero(active)
            if n_active == 0:
                break
            if 2 * n_active <= active.size:
                live = live[active]
                lo, hi, label, real, means, cuts = (a[:, active] for a in (lo, hi, label, real, means, cuts))
                active = active[active]
        if (means[1:] < means[:-1]).any():  # rounding or a kept centroid broke the order
            means = np.sort(means, axis=0)
        centroids, prev = means, cuts

    if elbow:
        # SSE(k) from prefix sums of x and x^2, added run by run in rank
        # order. The last step's new centroids are the runs' means again
        # (an empty run adds 0 whatever its centroid).
        squares = order.square_prefix
        left, right = run_edges[:-1], run_edges[1:]
        sum_x, sum_xx = prefix[right] - prefix[left], squares[right] - squares[left]
        mean = sum_x / np.maximum(right - left, 1)
        terms = sum_xx - mean * (2 * sum_x - (right - left) * mean)
        sse = np.zeros((kmax, n_cells))
        sse[p_k - 1, p_cell] = np.cumsum(terms, axis=0)[-1]
        best = first_problem + np.maximum(_elbow_choice(sse, k_hi), 0)  # flat: k = 1
    else:
        best = first_problem
    ranks = np.tile(np.arange(kmax), n_cells)
    return np.repeat(ranks, np.diff(run_edges[:, best], axis=0).T.ravel())[local]
