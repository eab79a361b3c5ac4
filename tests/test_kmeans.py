import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cellsleep.estimators import kmeans
from cellsleep.estimators.kmeans import _SortedCells, _fit_cells, elbow_select_k, kmeans_fit
from cellsleep.estimators.mlc import MlcConfig, mlc_layers

import naive_kmeans
from conftest import mlc_rule


def brute_force_sse(points, assignments, centroids):
    """Plain double-loop recomputation, independent of the vectorized path."""
    total = 0.0
    for x, a in zip(points, assignments):
        c = centroids[a]
        for xd, cd in zip(np.atleast_1d(x), np.atleast_1d(c)):
            total += (xd - cd) ** 2
    return total


def best_partition_cost(points, k):
    """Exhaustive minimum SSE over every assignment (centroids = cluster means)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    best = np.inf
    for assignment in itertools.product(range(k), repeat=len(pts)):
        asg = np.array(assignment)
        if len(set(assignment)) < k:
            continue
        cost = 0.0
        for c in range(k):
            members = pts[asg == c]
            cost += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, cost)
    return best


def three_blobs(rng, spread=0.05, per_blob=6):
    """Tight 2-D blobs at the corners of an equilateral triangle of side 10."""
    corners = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 10.0 * np.sqrt(3) / 2]])
    pts = np.concatenate([c + rng.normal(0, spread, size=(per_blob, 2)) for c in corners])
    labels = np.repeat(np.arange(3), per_blob)
    return pts, labels


class TestKmeansFit:
    def test_k1_centroid_is_mean(self, rng):
        pts = rng.uniform(0, 1, size=(20, 2))
        state = kmeans_fit(pts, 1)
        assert np.allclose(state.centroids[0], pts.mean(axis=0))

    def test_two_points_two_clusters(self):
        state = kmeans_fit([0.0, 5.0], 2)
        assert state.sse == 0.0
        assert sorted(state.assignments.tolist()) == [0, 1]

    def test_three_blob_assignments_match_membership(self, rng):
        pts, labels = three_blobs(rng, per_blob=3)  # 9 points, oracle enumerates 3^9 partitions
        state = kmeans_fit(pts, 3)
        # assignments must be a relabeling of blob membership
        mapping = {}
        for a, l in zip(state.assignments, labels):
            mapping.setdefault(l, a)
            assert mapping[l] == a
        assert len(set(mapping.values())) == 3
        # and the fit reaches the exhaustive optimum over all partitions
        assert state.sse == pytest.approx(best_partition_cost(pts, 3), rel=1e-9)

    def test_sse_matches_brute_force(self, rng):
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(int(rng.integers(4, 30)), int(rng.integers(1, 4))))
            k = int(rng.integers(1, min(6, len(pts)) + 1))
            state = kmeans_fit(pts, k, seed=int(rng.integers(1000)))
            assert state.sse == pytest.approx(brute_force_sse(pts, state.assignments, state.centroids), rel=1e-9)

    def test_trace_non_increasing(self, rng):
        for trial in range(100):
            pts = rng.uniform(0, 1, size=(int(rng.integers(5, 40)), 1))
            k = int(rng.integers(1, 6))
            state = kmeans_fit(pts, min(k, len(pts)), seed=trial)
            trace = np.array(state.sse_trace)
            assert (np.diff(trace) <= 1e-12).all(), f"trial {trial}: {trace}"

    def test_every_cluster_non_empty(self, rng):
        for trial in range(50):
            pts = rng.uniform(0, 1, size=(int(rng.integers(3, 15)), 1))
            k = int(rng.integers(1, len(pts) + 1))
            state = kmeans_fit(pts, k, seed=trial)
            assert len(set(state.assignments.tolist())) == k

    def test_identical_points_stay_valid(self):
        state = kmeans_fit(np.zeros((4, 1)), 2)
        assert state.sse == 0.0
        assert len(set(state.assignments.tolist())) == 2

    def test_deterministic_for_seed(self, rng):
        pts = rng.uniform(0, 1, size=(25, 1))
        a = kmeans_fit(pts, 4, seed=11)
        b = kmeans_fit(pts, 4, seed=11)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.sse == b.sse

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            kmeans_fit([], 1)
        with pytest.raises(ValueError):
            kmeans_fit([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            kmeans_fit([1.0], 0)

    @pytest.mark.parametrize("fit", [lambda tol: kmeans_fit([0.1, 0.5, 0.9], 2, tol=tol),
                                     lambda tol: elbow_select_k([0.1, 0.5, 0.9], (1, 3), tol=tol)],
                             ids=["kmeans_fit", "elbow_select_k"])
    def test_nan_tol_rejected(self, fit):
        # A NaN tol never compares true, so every fit would run all max_iter steps.
        with pytest.raises(ValueError, match="tol must not be NaN"):
            fit(np.nan)

    @pytest.mark.parametrize("entry", ["kmeans_fit", "elbow_select_k"])
    @pytest.mark.parametrize("setting, value, message",
                             [("max_iter", 0, "max_iter must be >= 1"), ("tol", -1.0, "tol must be >= 0")])
    def test_bad_lloyd_setting_rejected(self, entry, setting, value, message):
        # Zero steps leave no clusters, and a negative tol, like NaN, runs every step.
        fit = {"kmeans_fit": lambda **kw: kmeans_fit([0.1, 0.5, 0.9], 2, **kw),
               "elbow_select_k": lambda **kw: elbow_select_k([0.1, 0.5, 0.9], (1, 3), **kw)}[entry]
        with pytest.raises(ValueError, match=message):
            fit(**{setting: value})


class TestRuleConstants:
    """MLC's clustering rule has fixed values, which the public fits default to."""

    def test_documented_values(self):
        # The kmeans module docstring and the README state these.
        assert (kmeans.LLOYD_MAX_ITER, kmeans.LLOYD_TOL, kmeans.LLOYD_SEED, kmeans.ELBOW_K_MAX) == (100, 1e-9, 0, 8)

    def test_fits_default_to_the_rule(self):
        rule = {"max_iter": kmeans.LLOYD_MAX_ITER, "tol": kmeans.LLOYD_TOL, "seed": kmeans.LLOYD_SEED}
        for fit in (kmeans_fit, elbow_select_k):
            defaults = {name: p.default for name, p in inspect.signature(fit).parameters.items()}
            assert {name: defaults[name] for name in rule} == rule, fit.__name__
        assert inspect.signature(elbow_select_k).parameters["k_range"].default == (1, kmeans.ELBOW_K_MAX)


class TestElbow:
    def test_three_blob_fixture_elects_three(self, rng):
        pts, _ = three_blobs(rng, per_blob=8)
        assert elbow_select_k(pts, (1, 8)) == 3

    def test_second_difference_peak_confirmed_by_direct_curve(self, rng):
        # Independent confirmation: rebuild the SSE curve and locate the peak.
        pts, _ = three_blobs(rng, per_blob=8)
        sse = [kmeans_fit(pts, k, seed=0).sse for k in range(1, 9)]
        d2 = [sse[i - 1] - 2 * sse[i] + sse[i + 1] for i in range(1, 7)]
        assert int(np.argmax(d2)) + 2 == 3

    def test_identical_points_fall_back_to_one(self):
        # k = 1 also when the range starts above it.
        for lo in (1, 2):
            with pytest.warns(UserWarning, match="flat"):
                assert elbow_select_k(np.zeros((10, 1)), (lo, 5)) == 1

    def test_short_span_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            elbow_select_k(np.arange(10.0), (2, 3))

    def test_range_beyond_points_rejected(self):
        with pytest.raises(ValueError):
            elbow_select_k(np.arange(4.0), (1, 8))

    def test_deterministic(self, rng):
        pts = rng.uniform(0, 1, size=(40, 1))
        assert elbow_select_k(pts, (1, 8), seed=5) == elbow_select_k(pts, (1, 8), seed=5)


def assert_same_fit(fit, ref):
    assert np.array_equal(fit.assignments, ref.assignments)
    assert np.array_equal(fit.centroids, ref.centroids)
    assert fit.sse == ref.sse
    assert fit.sse_trace == ref.sse_trace


def tied_points(rng, n, d):
    """Points on a 0.1 grid, so duplicates and equidistant ties are common."""
    return np.round(rng.uniform(0, 1, size=(n, d)) * rng.choice([0.3, 1.0, 3.0]), 1)


class TestMatchesOriginalLloyd:
    """Bit-for-bit agreement with the original loop in ``naive_kmeans``."""

    def test_random_fits(self, rng):
        repaired = 0
        for trial in range(600):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            pts = tied_points(rng, n, d)
            k = int(rng.integers(1, n + 1))
            max_iter = int(rng.choice([1, 2, 5, 100]))
            fit = kmeans_fit(pts, k, max_iter=max_iter, seed=trial)
            assert_same_fit(fit, naive_kmeans.kmeans_fit(pts, k, max_iter=max_iter, seed=trial))
            # Fewer distinct points than clusters seeds duplicate centroids,
            # so the first step leaves a cluster empty and repairs it.
            repaired += len(np.unique(pts, axis=0)) < k
        assert repaired >= 100

    def test_forced_repairs(self, rng):
        for trial in range(100):
            distinct = tied_points(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            pts = distinct[rng.integers(0, len(distinct), size=int(rng.integers(6, 25)))]
            k = int(rng.integers(len(np.unique(pts, axis=0)) + 1, len(pts) + 1))
            fit = kmeans_fit(pts, k, seed=trial)
            assert_same_fit(fit, naive_kmeans.kmeans_fit(pts, k, seed=trial))
            assert len(set(fit.assignments.tolist())) == k

    def test_elbow_choice_and_fit(self, rng):
        for trial in range(150):
            n, d = int(rng.integers(3, 40)), int(rng.integers(1, 4))
            pts = tied_points(rng, n, d)
            lo = int(rng.integers(1, 3)) if n >= 4 else 1
            hi = int(rng.integers(lo + 2, n + 1))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                k = naive_kmeans.elbow_select_k(pts, (lo, hi), seed=trial)
                assert elbow_select_k(pts, (lo, hi), seed=trial) == k
            assert_same_fit(kmeans_fit(pts, k, seed=trial), naive_kmeans.kmeans_fit(pts, k, seed=trial))

    def test_flat_elbow_fit_is_k1(self):
        pts = np.zeros((6, 1))
        for lo in (1, 2):
            with pytest.warns(UserWarning, match="flat"):
                k = elbow_select_k(pts, (lo, 5))
            assert k == 1
            assert_same_fit(kmeans_fit(pts, k), naive_kmeans.kmeans_fit(pts, 1))


def fit_cells(order, rows, runs, sizes, k_hi, *, elbow, max_iter=100, tol=1e-9, seed=0):
    """``_fit_cells`` with the rule's constants set to the given values."""
    with mlc_rule(seed=seed, max_iter=max_iter, tol=tol):
        return _fit_cells(order, rows, runs, sizes, k_hi, elbow=elbow)


def fit_alone(x, sizes, k_hi, **fit):
    """``fit_cells`` on cells laid out in their own value order."""
    order = _SortedCells(x, sizes)
    return fit_cells(order, np.arange(x.size), order.first, sizes, k_hi, **fit)


def oracle_alone(x, k, **fit):
    """The sorted-run oracle on a cell that is its own slot row."""
    return naive_kmeans.sorted_run_fit(naive_kmeans.sorted_row(x), x, k, **fit)


def same_partition(a, b):
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


class TestSortedRunFit:
    """``_fit_cells`` follows the sorted-run rule bit for bit where rounding decides."""

    @pytest.mark.parametrize(
        "cell, seed, max_iter",
        [([0.8, 1.0, 0.9, 0.9], 80, 5), ([5.0, 6.0, 4.0, 5.0], 34, 100), ([5.0, 4.0, 6.0, 5.0], 73, 3)],
    )
    def test_elbow_near_a_curvature_tie(self, cell, seed, max_iter):
        # Two second differences of the SSE curve agree to the last bits, so
        # the pick rests on the prefix-sum SSE added in the rule's order (the
        # second cell picks k = 2 where the exact pairwise SSE picks 3).
        x = np.array(cell)
        ref = oracle_alone(x, 4, elbow=True, max_iter=max_iter, tol=1e-9, seed=seed)
        got = fit_alone(x, np.array([4]), np.array([4]), elbow=True, max_iter=max_iter, tol=1e-9, seed=seed)
        assert np.array_equal(got, ref.labels)

    def test_movement_at_tol(self, rng):
        # tol set to the first step's movement, as the rule computes it, and
        # one ulp either side: the problem stops after that step exactly when
        # the movement is at or below tol.
        stopped_elsewhere = 0
        size, k = np.array([40]), np.array([3])
        for seed in range(10):
            x = rng.uniform(0, 1, 40)
            movement = oracle_alone(x, 3, elbow=False, max_iter=1, seed=seed).movements[0]
            fits = {}
            for tol in (np.nextafter(movement, 0.0), movement, np.nextafter(movement, 1.0)):
                ref = oracle_alone(x, 3, elbow=False, tol=tol, seed=seed)
                assert (len(ref.movements) == 1) == (tol >= movement)
                got = fit_alone(x, size, k, elbow=False, max_iter=100, tol=tol, seed=seed)
                assert np.array_equal(got, ref.labels)
                fits[tol >= movement] = got
            stopped_elsewhere += not np.array_equal(fits[True], fits[False])
        assert stopped_elsewhere >= 5  # the stopping step changes the partition

    def test_centroids_reordered_by_rounding(self, rng):
        # Float neighbours of 0.51 deep in their slot row (prefix sums near
        # 65) with coinciding seeds: a run mean rounds past a kept centroid,
        # and the midpoints of the unordered centroids would cut out of order.
        v = 0.51
        x = np.array([v, np.nextafter(v, 1), np.nextafter(v, 1), 0.96, 0.96])
        for trial in range(20):
            below = rng.uniform(0, 0.05, int(rng.integers(2000, 3000)))
            features = np.concatenate([below, x])
            order = _SortedCells(features, np.array([features.size]))
            # The cell x is the run of the row's top x.size positions.
            runs = order.first + below.size
            rows = below.size + np.arange(x.size)
            for seed, max_iter in itertools.product(range(4), (2, 3, 100)):
                # tol 0: the step after the reordering runs.
                fit = dict(elbow=False, max_iter=max_iter, tol=0.0, seed=seed)
                got = fit_cells(order, rows, runs, np.array([5]), np.array([5]), **fit)
                ref = naive_kmeans.sorted_run_fit(naive_kmeans.sorted_row(features), x, 5, **fit)
                assert np.array_equal(got, ref.labels)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 120),
        k=st.integers(2, 8),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_partition_of_kmeans_fit_away_from_ties(self, seed, n, k, scale):
        # Where no feature comes near a midpoint, no run empties and no
        # movement comes near tol on any step, the exact loop takes the same
        # steps: its centroids differ from the prefix-sum ones by rounding only.
        x = np.random.default_rng(seed).uniform(0, scale, n)
        ref = oracle_alone(x, min(k, n), elbow=False, seed=seed % 11)
        assume(ref.closest > 1e-9 * scale and ref.empty_runs == 0)
        assume(all(abs(m - 1e-9) > 1e-12 * scale for m in ref.movements))
        got = fit_alone(x, np.array([n]), np.array([min(k, n)]), elbow=False, max_iter=100, tol=1e-9, seed=seed % 11)
        assert np.array_equal(got, ref.labels)
        assert same_partition(got, kmeans_fit(x, min(k, n), seed=seed % 11).assignments)


def stable_layout(x, sizes):
    """``_SortedCells``' rank, keys and prefix sums from one stable argsort per row."""
    width = int(sizes.max()) + 1
    first = np.arange(sizes.size) * width
    place = np.arange(x.size) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
    grid = np.full(sizes.size * width, np.inf)
    grid[place] = x
    by_value = (np.argsort(grid.reshape(-1, width), axis=1, kind="stable") + first[:, None]).ravel()
    position = np.empty(grid.size, dtype=np.int64)
    position[by_value] = np.arange(grid.size)
    rank = position[place]
    label = np.repeat(first, width).astype(float)  # every position of a row: the row's first
    values = grid[by_value].reshape(-1, width)
    prefix = np.zeros((sizes.size, width))
    prefix[:, 1:] = np.cumsum(values[:, :-1], axis=1)
    squares = np.zeros((sizes.size, width))
    squares[:, 1:] = np.cumsum(values[:, :-1] ** 2, axis=1)
    return rank, label, values.ravel(), prefix.ravel(), squares.ravel()


ORDER_ARRAYS = ("x", "first", "rank", "keys", "prefix", "square_prefix")


class TestSortedCells:
    """The value order of slot rows, and groups cut from it as runs."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 80), min_size=1, max_size=6),
        kind=st.sampled_from(["1 decimal", "2 decimals", "all equal", "continuous"]),
    )
    def test_value_order_matches_stable_argsort(self, seed, sizes, kind):
        # Unequal sizes pad the shorter rows with +inf.
        rng = np.random.default_rng(seed)
        sizes = np.array(sizes)
        x = rng.uniform(0, 1, int(sizes.sum()))
        if kind == "all equal":
            x = np.repeat(np.round(rng.uniform(0, 1, sizes.size), 2), sizes)
        elif kind != "continuous":
            x = np.round(x, 1 if kind == "1 decimal" else 2)
        order = _SortedCells(x, sizes)
        rank, label, values, prefix, squares = stable_layout(x, sizes)
        assert np.array_equal(order.rank, rank)
        assert np.array_equal(order.keys.real, label)
        assert np.array_equal(order.keys.imag, values)
        assert np.array_equal(order.prefix, prefix)
        assert np.array_equal(order.square_prefix, squares)

    def test_groups_cut_at_thresholds_are_runs(self, rng):
        for trial in range(40):
            sizes = rng.integers(1, 40, int(rng.integers(1, 6)))
            x = np.round(rng.uniform(0, 1, sizes.sum()), 1)
            cell = np.repeat(np.arange(sizes.size), sizes)
            order = _SortedCells(x, sizes)
            # Labels that cut the values at thresholds, as clusters do: each
            # group is a run, and equal features share it.
            labels = np.searchsorted(np.sort(rng.uniform(0, 1, 3)), x)
            rows = np.lexsort((labels, cell))
            n_members = np.unique(cell[rows] * 4 + labels[rows], return_counts=True)[1]
            starts = np.cumsum(n_members) - n_members
            runs = np.minimum.reduceat(order.rank[rows], starts)  # as mlc_layers takes them
            for start, m, run in zip(starts.tolist(), n_members.tolist(), runs.tolist()):
                members = rows[start : start + m]
                assert np.array_equal(np.sort(order.rank[members]), run + np.arange(m))
                # Stable value order: by value, then by row.
                by_value = members[np.lexsort((members, x[members]))]
                assert np.array_equal(by_value, members[np.argsort(order.rank[members])])

            # The groups, fitted as cells of the shared order, read the prefix
            # sums of their cell's row: the oracle's fits on that row.
            fit = dict(elbow=False, max_iter=100, tol=1e-9, seed=trial)
            k = np.minimum(3, n_members)
            got = fit_cells(order, rows, runs, n_members, k, **fit)
            for start, m, k_group in zip(starts.tolist(), n_members.tolist(), k.tolist()):
                members = rows[start : start + m]
                row = naive_kmeans.sorted_row(x[cell == cell[members[0]]])
                ref = naive_kmeans.sorted_run_fit(row, x[members], k_group, **fit)
                assert np.array_equal(got[start : start + m], ref.labels)

    def test_mlc_layers_leaves_the_order_untouched(self, rng, monkeypatch):
        # One order per call, read-only once built, and every layer of both
        # clustering modes reads it as built.
        built = []

        def recorded(x, sizes):
            order = _SortedCells(x, sizes)
            built.append((order, {name: getattr(order, name).copy() for name in ORDER_ARRAYS}))
            return order

        monkeypatch.setattr(kmeans, "_SortedCells", recorded)
        n = 80
        loads = np.round(rng.uniform(0, 1, (3, n)), 2)
        history = np.clip(loads + rng.normal(0, 0.05, (3, n)), 0, 1)
        known = np.ones(n, dtype=bool)
        known[rng.choice(n, size=15, replace=False)] = False
        for k_override in (None, 3):
            mlc_layers(loads, history, known, MlcConfig(5, k_override=k_override))
        assert len(built) == 2
        for order, arrays in built:
            for name, before in arrays.items():
                assert not getattr(order, name).flags.writeable, name
                assert np.array_equal(getattr(order, name), before), name
        with pytest.raises(ValueError, match="read-only"):
            order.keys.real[0] = 1.0
        x = rng.uniform(0, 1, 10)
        _SortedCells(x, np.array([10]))
        x[0] = 0.5  # the caller's features stay writeable


U = 2.0**-53  # float64 unit roundoff


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u), which bounds the relative error of m roundings."""
    return m * U / (1 - m * U)


def prefix_sse_bound(prefix, squares, edges):
    """A bound on |prefix SSE - exact SSE| for the runs [edges[j], edges[j + 1]) of one row.

    ``prefix`` and ``squares`` are the row's prefix sums of its nonnegative
    features and of their squares, with ``prefix[0]`` at the row's start,
    so entry t adds t values (squares rounded first) from 0.0 one by one
    and lies within gamma(t + 1) of itself, relative (Higham 2002, Accuracy
    and Stability of Numerical Algorithms, eq. 4.4). A run's S = P[b] - P[a]
    and T = Q[b] - Q[a] are then off by at most e_S = gamma(b + 2) (P[a] +
    P[b]) and e_T, the same of Q, the subtraction included. With mu =
    fl(S / n), T - mu (2 S - n mu) = T - S^2 / n + n (mu - S / n)^2, so the
    run's term is off by e_T + e_S (2 S + e_S) / n + n (u mu)^2, plus its
    three other roundings, at most 8 u (T + mu S). The terms' sum over at
    most 8 runs and the two-pass ``math.fsum`` reference add 16 u T.
    """
    bound, total = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b == a:
            continue
        n, g = b - a, gamma(b + 2)
        s, t = prefix[b] - prefix[a], squares[b] - squares[a]
        e_s, e_t = g * (prefix[a] + prefix[b]), g * (squares[a] + squares[b])
        mu = s / n
        bound += e_t + e_s * (2 * s + e_s) / n + n * (U * mu) ** 2 + 8 * U * (t + mu * s)
        total += t
    return bound + 16 * U * total


def two_pass_sse(x, labels):
    """Within-run SSE, each run's mean and squared deviations summed by ``math.fsum``."""
    deviations = []
    for run in np.unique(labels).tolist():
        xs = x[labels == run].tolist()
        mean = math.fsum(xs) / len(xs)
        deviations += [(v - mean) ** 2 for v in xs]
    return math.fsum(deviations)


class TestElbowSse:
    """MLC's prefix-sum SSE curve against a two-pass SSE: worked cells, and at paper scale."""

    @staticmethod
    def curve_alone(x, monkeypatch):
        """The elbow's SSE(k) for x as one cell of its own row, k = 1..min(ELBOW_K_MAX, x.size)."""
        curves = []
        choice = kmeans._elbow_choice

        def recorded(sse, n_k):
            curves.append(sse.copy())
            return choice(sse, n_k)

        monkeypatch.setattr(kmeans, "_elbow_choice", recorded)
        x = np.asarray(x, dtype=float)
        sizes = np.array([x.size])
        k_hi = np.minimum(kmeans.ELBOW_K_MAX, sizes)
        order = _SortedCells(x, sizes)
        _fit_cells(order, np.arange(x.size), order.first, sizes, k_hi, elbow=True)
        (curve,) = curves
        return curve[: k_hi[0], 0]

    # Features with few binary digits, so every prefix sum and SSE is exact.

    def test_equal_features_have_zero_sse(self, monkeypatch):
        assert np.array_equal(self.curve_alone([0.75] * 6, monkeypatch), np.zeros(6))

    def test_two_values_one_cluster(self, monkeypatch):
        # k = 1: (0 - 1)^2 twice and (2 - 1)^2 twice; each further k splits the values.
        assert np.array_equal(self.curve_alone([2.0, 0.0, 2.0, 0.0], monkeypatch), [4.0, 0.0, 0.0, 0.0])

    def test_each_feature_its_own_cluster(self, monkeypatch):
        x = np.array([6.25, 0.5, 3.0, 1.5])
        curve = self.curve_alone(x, monkeypatch)
        assert curve[0] == two_pass_sse(x, np.zeros(4, dtype=int)) == 18.921875
        assert curve[-1] == 0.0

    def test_prefix_sse_within_its_bound_and_same_elbow(self, rng, monkeypatch):
        # 16 slot rows of 5000 features in [0, 1], each in 100 clumps of
        # random sizes, cut into cells of 3..300 consecutive values from the
        # row's middle on, where the prefix sums are large.
        n, n_rows = 5000, 16

        def clumped_row():
            counts = rng.multinomial(n, rng.dirichlet(np.full(100, 0.3)))
            return np.clip(np.repeat(rng.uniform(0, 1, 100), counts) + rng.normal(0, 0.001, n), 0, 1)

        x = np.concatenate([clumped_row() for _ in range(n_rows)])
        order = _SortedCells(x, np.full(n_rows, n))
        feature_at = np.empty(order.keys.size, dtype=np.int64)
        feature_at[order.rank] = np.arange(x.size)
        runs, sizes = [], []
        for first in order.first.tolist():
            a = n // 2
            while True:
                size = int(rng.integers(3, 301))
                if a + size > n:
                    break
                runs.append(first + a)
                sizes.append(size)
                a += size + int(rng.integers(0, 20))
        runs, sizes = np.array(runs), np.array(sizes)
        rows = np.concatenate([np.sort(feature_at[r : r + m]) for r, m in zip(runs.tolist(), sizes.tolist())])
        starts = np.cumsum(sizes) - sizes
        k_hi = np.minimum(kmeans.ELBOW_K_MAX, sizes)

        curves = []
        choice = kmeans._elbow_choice

        def recorded(sse, n_k):
            curves.append(sse.copy())
            return choice(sse, n_k)

        monkeypatch.setattr(kmeans, "_elbow_choice", recorded)
        _fit_cells(order, rows, runs, sizes, k_hi, elbow=True)
        (curve,) = curves
        picks = np.maximum(choice(curve, k_hi), 0) + 1

        # Each k's partition, the one its elbow problem ends in.
        labels = {k: _fit_cells(order, rows, runs, sizes, np.minimum(k, sizes), elbow=False)
                  for k in range(1, kmeans.ELBOW_K_MAX + 1)}
        checked, worst = 0, 0.0
        for c, (run, size, start) in enumerate(zip(runs.tolist(), sizes.tolist(), starts.tolist())):
            first = run - run % order.width
            prefix, squares = order.prefix[first : first + n + 1], order.square_prefix[first : first + n + 1]
            xs = x[rows[start : start + size]]
            exact, bounds = [], []
            for k in range(1, int(k_hi[c]) + 1):
                cell_labels = labels[k][start : start + size]
                edges = run - first + np.concatenate([[0], np.cumsum(np.bincount(cell_labels, minlength=k))])
                exact.append(two_pass_sse(xs, cell_labels))
                bounds.append(prefix_sse_bound(prefix, squares, edges.tolist()))
                difference = abs(curve[k - 1, c] - exact[-1])
                assert difference <= bounds[-1], (c, k, difference, bounds[-1])
                worst = max(worst, difference)
            # The pick from the exact curve, wherever rounding cannot move
            # it: a second difference is off by at most 4 of the bounds.
            margin = 4 * max(bounds)
            curvature = sorted((exact[j - 1] - 2 * exact[j] + exact[j + 1], j) for j in range(1, len(exact) - 1))
            (top, j), runner_up = curvature[-1], curvature[-2][0] if len(curvature) > 1 else -np.inf
            level = kmeans.FLAT_CURVE_RTOL * max(exact)
            if top - runner_up > margin and abs(top - level) > margin:
                checked += 1
                assert picks[c] == (1 if top <= level else j + 1), c
        assert runs.size >= 200 and checked >= 0.9 * runs.size
        assert set(picks.tolist()) >= {2, 3}
        assert worst > 0.0  # the prefix formula does round here
