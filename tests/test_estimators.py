import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cellsleep.estimators import (
    DistanceConfig,
    ErrorUndefined,
    MlcConfig,
    RandomConfig,
    estimate,
    estimation_error,
    neighbors,
)
from cellsleep.estimators.neighbors import (
    distance_estimate,
    nearest_table,
    positions_array,
    random_estimate,
    random_table,
)
from cellsleep.traffic import LoadSnapshot, SbsPlacement

from conftest import grid_placements, snapshot_of


def line_placements(xs):
    """SBSs strung along the x axis at the given coordinates."""
    return tuple(
        SbsPlacement(sbs_id=i, square_id=i + 1, x_m=float(x), y_m=0.0) for i, x in enumerate(xs)
    )


class TestDistanceEstimate:
    def test_equal_distance_neighbors_reduce_to_mean(self):
        # sleeper at the center of a cross, four neighbors all at distance 100
        placements = (
            SbsPlacement(0, 1, 0.0, 0.0),
            SbsPlacement(1, 2, 100.0, 0.0),
            SbsPlacement(2, 3, -100.0, 0.0),
            SbsPlacement(3, 4, 0.0, 100.0),
            SbsPlacement(4, 5, 0.0, -100.0),
        )
        snap = snapshot_of([0.0, 0.1, 0.2, 0.3, 0.4], sleeping=[0])
        for exponent in (None, 1, 2, 10):
            res = distance_estimate(snap, placements, DistanceConfig(neighbors=4, weighting=exponent))
            assert res.estimates[0] == np.mean([0.1, 0.2, 0.3, 0.4])  # exact

    def test_two_neighbor_weighted_hand_value(self):
        # distances {1, 2}, loads {1.0, 0.0}, n=1: (1*2/1 + 0*2/2) / (2 + 1) = 2/3
        placements = line_placements([0.0, 1.0, 2.0])
        snap = snapshot_of([0.0, 1.0, 0.0], sleeping=[0])
        cfg = DistanceConfig(neighbors=2, weighting=1)
        res = distance_estimate(snap, placements, cfg)
        assert res.estimates[0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_large_exponent_collapses_on_nearest(self):
        placements = line_placements([0.0, 1.0, 2.0])
        snap = snapshot_of([0.0, 1.0, 0.0], sleeping=[0])
        cfg = DistanceConfig(neighbors=2, weighting=10)
        res = distance_estimate(snap, placements, cfg)
        assert res.estimates[0] >= 0.999

    def test_single_neighbor_is_nearest_active_load(self):
        placements = line_placements([0.0, 10.0, 500.0, 1000.0])
        snap = snapshot_of([0.0, 0.8, 0.2, 0.4], sleeping=[0])
        res = distance_estimate(snap, placements, DistanceConfig(neighbors=1))
        assert res.estimates[0] == 0.8
        assert res.detail[0].neighbor_ids == (1,)

    def test_too_few_actives_rejected(self):
        snap = snapshot_of([0.1, 0.2, 0.3], sleeping=[0, 1])
        with pytest.raises(ValueError, match="active"):
            distance_estimate(snap, grid_placements(3), DistanceConfig(neighbors=2))

    def test_known_entries_untouched_and_empty_when_no_sleepers(self):
        snap = snapshot_of([0.1, 0.2, 0.3], sleeping=[])
        res = distance_estimate(snap, grid_placements(3), DistanceConfig(neighbors=1))
        assert res.n_sleepers == 0 and res.estimates.size == 0

    def test_dmax_cancels_in_the_estimate(self):
        # Rescaling all weights by any positive constant leaves the estimate
        # unchanged, so the d_max convention only affects reported weights.
        placements = line_placements([0.0, 3.0, 7.0, 19.0])
        snap = snapshot_of([0.0, 0.9, 0.3, 0.6], sleeping=[0])
        res = distance_estimate(snap, placements, DistanceConfig(neighbors=3, weighting=2))
        d = np.array([3.0, 7.0, 19.0])
        loads = np.array([0.9, 0.3, 0.6])
        for dmax in (1.0, d.max(), 1e6):
            w = dmax / d**2
            assert res.estimates[0] == pytest.approx((loads * w).sum() / w.sum(), rel=1e-12)

    def test_detail_weights_sum_to_one(self, rng):
        placements = grid_placements(25)
        loads = rng.uniform(0, 1, 25)
        snap = snapshot_of(loads, sleeping=[2, 11])
        res = distance_estimate(snap, placements, DistanceConfig(neighbors=6, weighting=3))
        for det in res.detail:
            assert sum(det.weights) == pytest.approx(1.0, rel=1e-9)


class TestRandomEstimate:
    def test_full_active_set_is_global_mean(self, rng):
        loads = rng.uniform(0, 1, 10)
        snap = snapshot_of(loads, sleeping=[4])
        active = np.delete(loads, 4)
        for seed in (0, 1, 99):
            res = random_estimate(snap, grid_placements(10), RandomConfig(neighbors=9, seed=seed))
            assert res.estimates[0] == pytest.approx(active.mean(), rel=1e-12)

    def test_same_seed_same_draw(self, rng):
        loads = rng.uniform(0, 1, 20)
        snap = snapshot_of(loads, sleeping=[3, 8])
        a = random_estimate(snap, grid_placements(20), RandomConfig(neighbors=5, seed=42))
        b = random_estimate(snap, grid_placements(20), RandomConfig(neighbors=5, seed=42))
        assert np.array_equal(a.estimates, b.estimates)
        assert a.detail == b.detail

    def test_seeded_draw_replay(self):
        # Replay the documented procedure: one generator, sleepers in
        # ascending id order, first N of rng.permutation(active_ids).
        placements = line_placements([0.0, 5.0, 11.0, 23.0])
        loads = np.array([0.0, 0.9, 0.3, 0.6])
        snap = snapshot_of(loads, sleeping=[0])
        res = random_estimate(snap, placements, RandomConfig(neighbors=2, weighting=1, seed=7))

        rng = np.random.default_rng(7)
        drawn = rng.permutation(np.array([1, 2, 3]))[:2]
        d = np.array([abs(placements[j].x_m) for j in drawn])
        w = d.max() / d
        expected = (loads[drawn] * w).sum() / w.sum()
        assert res.detail[0].neighbor_ids == tuple(int(j) for j in drawn)
        assert res.estimates[0] == pytest.approx(expected, rel=1e-12)


def naive_estimates(pos, loads, sleepers, active, n, exponent, floor, seed=None):
    """Per-sleeper neighbor ids and estimates by the plain per-sleeper formula:
    the n nearest (stable sort by distance) or, with a seed, the first n of
    one ``rng.permutation(active)`` per sleeper; then the mean, or
    sum(w * l) / sum(w) with w = d_max / d**n."""
    rng = None if seed is None else np.random.default_rng(seed)
    out = []
    for sleeper in sleepers:
        d_all = np.sqrt(((pos[active] - pos[sleeper]) ** 2).sum(axis=1))
        if rng is None:
            ids = active[np.argsort(d_all, kind="stable")[:n]]
        else:
            ids = rng.permutation(active)[:n]
        d = np.maximum(np.sqrt(((pos[ids] - pos[sleeper]) ** 2).sum(axis=1)), floor)
        if exponent is None or np.all(d == d[0]):
            est = loads[ids].mean()
        else:
            w = d.max() / d**exponent
            est = (loads[ids] * w).sum() / w.sum()
        out.append((tuple(int(i) for i in ids), est))
    return out


def python_sum(values):
    """The values' sum added left to right in plain Python floats."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def awkward_placements(rng, n_sbs):
    """Integer-metre placements with duplicate coordinates, stations closer
    than a 1 m floor, and two rings of stations at one distance from SBS 14."""
    xy = rng.integers(0, 3000, (n_sbs, 2)).astype(float)
    xy[1] = xy[0]                                    # duplicates
    xy[2] = xy[0] + [0.0, 0.5]                       # inside the floor
    xy[3] = xy[4] = xy[5]
    offsets = [(50, 0), (-50, 0), (0, 50), (0, -50), (30, 40), (-40, 30), (200, 0), (0, -200)]
    xy[6:14] = xy[14] + np.array(offsets, dtype=float)   # 6 at exactly 50 m, 2 at 200 m
    return tuple(SbsPlacement(i, i + 1, float(x), float(y)) for i, (x, y) in enumerate(xy))


class TestSharedNeighborPath:
    N_VALUES = (1, 2, 3, 4, 7, 12, 20)
    EXPONENTS = (None, 1, 3, 10)

    @pytest.mark.parametrize("builder", ["nearest", "random"])
    def test_tables_floor_a_co_located_active_at_one_metre(self, builder):
        # SBS 1 shares the sleeper's position; SBS 2 is a 3-4-5 triangle away.
        pos = np.array([[10.0, 20.0], [10.0, 20.0], [310.0, 420.0]])
        sleepers, active = np.array([0]), np.array([1, 2])
        if builder == "nearest":
            table = nearest_table(pos, sleepers, active, 2)
        else:
            table = random_table(pos, sleepers, active, 2, [3, 4])
        expected = {1: neighbors.DISTANCE_FLOOR_M, 2: 500.0}
        assert neighbors.DISTANCE_FLOOR_M == 1.0
        assert [expected[i] for i in table.ids.ravel().tolist()] == table.dists.ravel().tolist()

    def test_one_table_matches_per_call_estimates(self, rng, monkeypatch):
        for trial in range(24):
            n_sbs = int(rng.integers(40, 70))
            placements = awkward_placements(rng, n_sbs)
            pos = positions_array(placements, n_sbs)
            loads = rng.uniform(0.0, 1.0, n_sbs)
            sleeping = rng.choice(n_sbs, size=int(rng.integers(1, 10)), replace=False)
            if trial % 2:
                sleeping = np.union1d(sleeping, [0, 3, 14])  # duplicates and the ring center
            snap = snapshot_of(loads, sleeping)
            sleepers, active = snap.sleeping_ids, snap.active_ids
            floor = [1.0, 0.25, 60.0][trial % 3]             # 60 m floors a whole ring
            monkeypatch.setattr(neighbors, "DISTANCE_FLOOR_M", floor)  # what the table builders floor at
            points = [(n, e) for n in self.N_VALUES for e in self.EXPONENTS]
            seed = int(rng.integers(1 << 31))
            k = max(self.N_VALUES)
            near_table = nearest_table(pos, sleepers, active, k)
            drawn_table = random_table(pos, sleepers, active, k, [seed])
            shared = zip(near_table.estimates(snap.loads, points), drawn_table.estimates(snap.loads, points))
            for (n, e), (near_est, drawn_est) in zip(points, shared):
                for est, single, naive in (
                    (near_est, distance_estimate(snap, placements, DistanceConfig(n, e)),
                     naive_estimates(pos, loads, sleepers, active, n, e, floor)),
                    (drawn_est, random_estimate(snap, placements, RandomConfig(n, e, seed)),
                     naive_estimates(pos, loads, sleepers, active, n, e, floor, seed)),
                ):
                    np.testing.assert_allclose(est, single.estimates, rtol=1e-12, atol=0)
                    assert [det.neighbor_ids for det in single.detail] == [ids for ids, _ in naive]
                    np.testing.assert_allclose(est, [v for _, v in naive], rtol=1e-12, atol=0)

    def test_equal_distance_prefix_is_exact_mean(self, rng, monkeypatch):
        # SBS 0 sleeps at the origin. Eight actives sit at exactly 50 m (the
        # 3-4-5 ring), twelve more at irrational distances within 60 m, and
        # ten further out.
        ring = [(50, 0), (-50, 0), (0, 50), (0, -50), (30, 40), (-40, 30), (-30, -40), (40, -30)]
        angles = 0.1 + np.arange(12) * (2 * np.pi / 12)
        xy = np.vstack([[0.0, 0.0], ring, np.column_stack([55 * np.cos(angles), 55 * np.sin(angles)]),
                        rng.uniform(200.0, 900.0, (10, 2))])
        placements = tuple(SbsPlacement(i, i + 1, float(x), float(y)) for i, (x, y) in enumerate(xy))
        pos = positions_array(placements, xy.shape[0])
        loads = rng.uniform(0.0, 1.0, xy.shape[0])
        snap = snapshot_of(loads, sleeping=[0])
        points = [(n, e) for n in range(1, 21) for e in self.EXPONENTS]
        for floor, equal_up_to in ((1.0, 8), (60.0, 20)):
            monkeypatch.setattr(neighbors, "DISTANCE_FLOOR_M", floor)
            for table in (
                nearest_table(pos, snap.sleeping_ids, snap.active_ids, 20),
                random_table(pos, snap.sleeping_ids, np.arange(1, equal_up_to + 1), equal_up_to, [3]),
            ):
                near = loads[table.ids[0, 0]]
                prefixes = [(n, e) for n, e in points if n <= equal_up_to]
                for (n, _), est in zip(prefixes, table.estimates(snap.loads, prefixes)):
                    assert est[0] == python_sum(near[:n]) / n

    def test_every_prefix_adds_left_to_right(self, rng):
        # Every N <= K of every exponent is sum(w * load) / sum(w) over the
        # first N columns, both sums added left to right, and w = 1 for a
        # plain mean, against a plain-Python loop over each row.
        n_sbs, k = 120, 40
        pos = positions_array(awkward_placements(rng, n_sbs), n_sbs)
        sleepers = np.array([0, 3, 14, 50, 99])
        active = np.setdiff1d(np.arange(n_sbs), sleepers)
        loads = rng.uniform(0.0, 1.0, n_sbs)
        points = [(n, e) for n in range(1, k + 1) for e in self.EXPONENTS]
        tables = (nearest_table(pos, sleepers, active, k), random_table(pos, sleepers, active, k, [9]))
        for table in tables:
            for (n, e), est in zip(points, table.estimates(loads, points)):
                for i, ids in enumerate(table.ids[0]):
                    row_w = [1.0] * k if e is None else table.weights(e)[0][0, i].tolist()
                    num = python_sum(row_w[j] * float(loads[ids[j]]) for j in range(n))
                    assert est[i] == num / python_sum(row_w[:n]), (n, e, i)

    def test_batch_of_slots_matches_one_slot_calls(self, rng):
        # (S, n) loads give each slot's one-row estimates bit for bit, plain
        # means at N >= 8 included: a 3-D mean sums those in another order.
        # The nearest table serves every slot; a random table over S seeds
        # reads slot s through seed s's draw, which is that seed's own table.
        n_sbs, k = 300, 60
        pos = positions_array(awkward_placements(rng, n_sbs), n_sbs)
        sleepers = np.union1d(rng.choice(n_sbs, size=40, replace=False), [0, 3, 14])
        active = np.setdiff1d(np.arange(n_sbs), sleepers)
        loads = rng.uniform(0.0, 1.0, (6, n_sbs))
        points = [(n, e) for n in (1, 3, 8, 10, 17, 33, k) for e in self.EXPONENTS]
        seeds = [5, 500_000, 500_001, 7, 7, 12]
        near = nearest_table(pos, sleepers, active, k)
        drawn = random_table(pos, sleepers, active, k, seeds)
        assert near.ids.shape == (1, sleepers.size, k)
        assert drawn.ids.shape == drawn.dists.shape == (len(seeds), sleepers.size, k)
        for table, per_slot in ((near, [near] * len(seeds)),
                                (drawn, [random_table(pos, sleepers, active, k, [s]) for s in seeds])):
            batch = table.estimates(loads, points)
            for s, (row, alone) in enumerate(zip(loads, per_slot)):
                t = s % len(table.ids)  # the one nearest table, or slot s's draw
                assert np.array_equal(table.ids[t], alone.ids[0])
                assert np.array_equal(table.dists[t].view(np.int64), alone.dists[0].view(np.int64))
                for got, want in zip(batch, alone.estimates(row, points), strict=True):
                    assert got.shape == (6, sleepers.size)
                    assert np.array_equal(got[s], want)

    @staticmethod
    def stable_argsort_table(pos, sleepers, active, k, floor):
        """Per sleeper: the first k of a stable argsort of its distances to ``active``."""
        ids, dists = [], []
        for sleeper in sleepers:
            dx = pos[active, 0] - pos[sleeper, 0]
            dy = pos[active, 1] - pos[sleeper, 1]
            d = np.sqrt(dx * dx + dy * dy)
            order = np.argsort(d, kind="stable")[:k]
            ids.append(active[order])
            dists.append(np.maximum(d[order], floor))
        return np.array(ids).reshape(len(sleepers), k), np.array(dists).reshape(len(sleepers), k)

    def assert_nearest_matches_reference(self, pos, sleepers, active, k, floor):
        with mock.patch.object(neighbors, "DISTANCE_FLOOR_M", floor):
            table = nearest_table(pos, sleepers, active, k)
        ids, dists = self.stable_argsort_table(pos, sleepers, active, k, floor)
        assert np.array_equal(table.ids[0], ids), (k, floor)
        assert np.array_equal(table.dists[0].view(np.int64), dists.view(np.int64)), (k, floor)

    def test_nearest_table_matches_stable_argsort_on_grids(self, rng):
        # On a grid every sleeper has rings of 4 or 8 actives at one distance,
        # so most k cut through a ring of ties.
        for n_sbs in (49, 100, 150):
            pos = positions_array(grid_placements(n_sbs), n_sbs)
            for _ in range(4):
                sleepers = np.sort(rng.choice(n_sbs, size=int(rng.integers(1, n_sbs // 2)), replace=False))
                active = np.setdiff1d(np.arange(n_sbs), sleepers)
                for k in (1, 2, 3, 4, 5, 6, 9, 13, 21, active.size - 1, active.size):
                    for floor in (0.25, 1.0, 60.0, 300.0):
                        self.assert_nearest_matches_reference(pos, sleepers, active, k, floor)

    def test_nearest_table_keeps_id_order_within_equal_rings(self, rng):
        # Sleepers 0 and 1 each sit inside a ring of 8 actives at exactly 50 m
        # (axis points and 30-40-50) and a ring of 12 at exactly 65 m (axis
        # points, 16-63-65, 33-56-65, 25-60-65, 39-52-65); ids are shuffled.
        r50 = [(50, 0), (-50, 0), (0, 50), (0, -50), (30, 40), (-40, 30), (-30, -40), (40, -30)]
        r65 = [(65, 0), (0, -65), (25, 60), (-60, 25), (39, -52), (-52, -39),
               (16, 63), (-63, 16), (33, -56), (-56, -33), (-25, -60), (60, -25)]
        centers = [(0.0, 0.0), (1000.0, 0.0)]
        xy = list(centers) + [(cx + x, cy + y) for cx, cy in centers for x, y in r50 + r65]
        xy = np.array(xy + [tuple(p) for p in rng.uniform(300.0, 700.0, (6, 2))], dtype=float)
        perm = np.concatenate([[0, 1], 2 + rng.permutation(xy.shape[0] - 2)])
        pos = xy[np.argsort(perm)]  # SBS perm[i] sits at xy[i]
        sleepers = np.array([0, 1])
        active = np.arange(2, xy.shape[0])
        for k in (1, 5, 8, 9, 15, 20, 21, active.size):
            for floor in (0.25, 60.0):
                self.assert_nearest_matches_reference(pos, sleepers, active, k, floor)
        ring_ids = np.sort(np.flatnonzero(np.hypot(*(pos[2:] - pos[0]).T) == 50.0) + 2)
        assert np.array_equal(nearest_table(pos, sleepers, active, 8).ids[0, 0], ring_ids)

    def test_nearest_table_in_sleeper_blocks_matches_stable_argsort(self, rng, monkeypatch):
        # Budgets of one distance (still one row per block), exactly 3 rows
        # and one distance short of 8 rows (7 rows) cut the sleepers of a
        # grid into blocks, where most k cut through a ring of equal distances.
        n_sbs = 100
        pos = positions_array(grid_placements(n_sbs), n_sbs)
        sleepers = np.sort(rng.choice(n_sbs, size=31, replace=False))
        active = np.setdiff1d(np.arange(n_sbs), sleepers)
        whole = {k: nearest_table(pos, sleepers, active, k) for k in (1, 4, 9, active.size)}
        for budget in (1, 3 * active.size, 8 * active.size - 1):
            monkeypatch.setattr(neighbors, "_NEAREST_BLOCK_DISTANCES", budget)
            for k, table in whole.items():
                self.assert_nearest_matches_reference(pos, sleepers, active, k, 1.0)
                blocked = nearest_table(pos, sleepers, active, k)
                assert np.array_equal(blocked.ids, table.ids)
                assert np.array_equal(blocked.dists.view(np.int64), table.dists.view(np.int64))

    @staticmethod
    def paper_layouts(rng, n_sbs):
        """n_sbs SBSs on the paper's 100 x 100 grid of 235 m squares: at square
        centres (rings of equal distances), moved uniformly within their
        squares, and in 6 clusters of whole metres with a fifth of the SBSs
        co-located with another."""
        squares = rng.permutation(10_000)[:n_sbs]
        lattice = np.column_stack([squares % 100 + 0.5, squares // 100 + 0.5]) * 235.0
        clustered = np.round(rng.uniform(0.0, 23_500.0, (6, 2))[rng.integers(0, 6, n_sbs)]
                             + rng.normal(0.0, 900.0, (n_sbs, 2)))
        clustered[rng.choice(n_sbs, n_sbs // 5, replace=False)] = clustered[rng.choice(n_sbs, n_sbs // 5)]
        return {
            "lattice": lattice,
            "jittered": lattice + rng.uniform(-117.5, 117.5, lattice.shape),
            "clustered": clustered,
        }

    @staticmethod
    def count_distances(monkeypatch) -> list[tuple[int, int]]:
        """Record (distances measured, dimensions of ``others``) per ``_distances`` call:
        the neighborhood pass measures (rows, width) regions, the all-pairs pass whole rows."""
        calls = []
        distances = neighbors._distances

        def counted(pos, sleepers, others):
            d = distances(pos, sleepers, others)
            calls.append((d.size, others.ndim))
            return d

        monkeypatch.setattr(neighbors, "_distances", counted)
        return calls

    @pytest.mark.parametrize("n_sbs", [2000, 5000])
    @pytest.mark.parametrize("layout", ["lattice", "jittered", "clustered"])
    def test_neighborhood_ranking_matches_stable_argsort(self, rng, monkeypatch, layout, n_sbs):
        # At 2000-5000 SBSs with a tenth asleep, k < active count ranks each
        # sleeper within its neighborhood; at paper scale that measures under
        # a fifth of all sleeper-to-active pairs on the grid layouts. At k =
        # active count the neighborhood would cover the network: all pairs.
        pos = self.paper_layouts(rng, n_sbs)[layout]
        sleepers = np.sort(rng.choice(n_sbs, size=n_sbs // 10, replace=False))
        active = np.setdiff1d(np.arange(n_sbs), sleepers)
        ids, dists = self.stable_argsort_table(pos, sleepers, active, active.size, 1.0)
        calls = self.count_distances(monkeypatch)
        all_pairs = sleepers.size * active.size
        for k in (1, 5, 60, active.size):
            calls.clear()
            table = nearest_table(pos, sleepers, active, k)
            assert np.array_equal(table.ids[0], ids[:, :k]), k
            assert np.array_equal(table.dists[0].view(np.int64), dists[:, :k].view(np.int64)), k
            measured = sum(size for size, _ in calls)
            if k == active.size:
                assert measured == all_pairs and {ndim for _, ndim in calls} == {1}
            else:
                assert any(ndim == 2 for _, ndim in calls)
                if n_sbs == 5000 and layout != "clustered":
                    assert measured < all_pairs / 5, (k, measured / all_pairs)

    def test_neighborhood_ranking_at_edge_and_corner_buckets(self, rng, monkeypatch):
        # 5000 SBSs on the paper grid around an empty disc of 8 squares'
        # radius. The sleepers: every SBS on the grid's border (edge and
        # corner buckets, whose outer sides count as infinitely far), one
        # at the disc's centre, whose k-th nearest lies beyond its
        # neighborhood, so it falls back to all pairs, and two moved outside
        # the grid past a corner and an edge.
        col, row = np.divmod(np.arange(10_000), 100)
        outside_hole = np.hypot(col - 49.5, row - 49.5) > 8
        squares = np.sort(rng.choice(np.flatnonzero(outside_hole), size=4999, replace=False))
        pos = np.vstack([np.column_stack([squares % 100 + 0.5, squares // 100 + 0.5]) * 235.0,
                         [[50 * 235.0, 50 * 235.0]]])
        border = np.flatnonzero((pos.min(axis=1) < 235.0) | (pos.max(axis=1) > 99 * 235.0))
        moved = rng.choice(np.setdiff1d(np.arange(4999), border), size=2, replace=False)
        pos[moved] = [[-900.0, -400.0], [12_000.0, 24_000.0]]
        sleepers = np.union1d(np.union1d(border, moved), [4999])
        active = np.setdiff1d(np.arange(5000), sleepers)
        calls = self.count_distances(monkeypatch)
        for k in (1, 5, 60):
            calls.clear()
            self.assert_nearest_matches_reference(pos, sleepers, active, k, 1.0)
            fallback_rows = sum(size for size, ndim in calls if ndim == 1) // active.size
            assert any(ndim == 2 for _, ndim in calls) and fallback_rows >= 1, k

    def test_nearest_table_memory_is_bounded_at_paper_scale(self, rng):
        # 500 sleepers x 4500 active SBSs: the three full (500, 4500)
        # matrices of an unblocked ranking took 34 MB under tracemalloc,
        # to which numpy reports its buffers.
        pos = rng.uniform(0.0, 10_000.0, (5000, 2))
        sleepers = np.sort(rng.choice(5000, size=500, replace=False))
        active = np.setdiff1d(np.arange(5000), sleepers)
        tracemalloc.start()
        try:
            table = nearest_table(pos, sleepers, active, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.ids.shape == (1, 500, 60)
        assert peak < 8e6

    def test_random_draw_is_prefix_of_widest_draw(self, rng):
        pos = positions_array(grid_placements(64), 64)
        snap = snapshot_of(rng.uniform(0.0, 1.0, 64), sleeping=[3, 17, 40, 41])
        widest = random_table(pos, snap.sleeping_ids, snap.active_ids, 30, [11, 12])
        for n in (1, 5, 29, 30):
            narrow = random_table(pos, snap.sleeping_ids, snap.active_ids, n, [11, 12])
            assert np.array_equal(narrow.ids, widest.ids[..., :n])
            assert np.array_equal(narrow.dists, widest.dists[..., :n])


class TestDispatch:
    def test_zero_sleepers_empty_result(self, rng):
        snap = snapshot_of(rng.uniform(0, 1, 6), sleeping=[])
        res = estimate(DistanceConfig(neighbors=2), snap, grid_placements(6))
        assert res.n_sleepers == 0

    def test_all_unknown_rejected(self):
        snap = LoadSnapshot(loads=np.full(3, np.nan), known_mask=np.zeros(3, bool))
        with pytest.raises(ValueError, match="no active"):
            estimate(DistanceConfig(neighbors=1), snap, grid_placements(3))

    def test_mlc_requires_history(self, rng):
        snap = snapshot_of(rng.uniform(0, 1, 6), sleeping=[1])
        with pytest.raises(ValueError, match="history"):
            estimate(MlcConfig(layers=1), snap, grid_placements(6), history=None)

    def test_unknown_config_type(self, rng):
        snap = snapshot_of(rng.uniform(0, 1, 6), sleeping=[1])
        with pytest.raises(TypeError):
            estimate(object(), snap, grid_placements(6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistanceConfig(neighbors=0)
        with pytest.raises(ValueError):
            RandomConfig(weighting=0)
        with pytest.raises(ValueError):
            MlcConfig(layers=0)

    @pytest.mark.parametrize(
        "config, name, value",
        [
            (config, name, value)
            for config in (DistanceConfig, RandomConfig)
            for name, value in (("neighbors", 2.5), ("neighbors", True), ("weighting", True), ("weighting", 2.0))
        ]
        + [(RandomConfig, "seed", value) for value in (-1, 1.5, True)],
    )
    def test_neighbor_config_rejects_bad_setting_naming_it(self, config, name, value):
        # Each used to pass construction; neighbors=2.5 then failed inside
        # nearest_table with a numpy TypeError naming no setting.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            config(**{name: value})

    def test_neighbor_configs_take_numpy_integers(self):
        assert DistanceConfig(np.int64(3), np.int32(2)) == DistanceConfig(3, 2)
        assert RandomConfig(np.int64(3), None, np.uint32(7)).seed == 7


class TestPositionsArray:
    def test_every_sbs_needs_one_placement(self):
        placements = grid_placements(4)
        assert positions_array(placements, 4).shape == (4, 2)
        with pytest.raises(ValueError, match=r"need placements for all 4 SBSs, got 3"):
            positions_array(placements[:3], 4)
        stray = placements[:3] + (SbsPlacement(4, 5, 0.0, 0.0),)
        with pytest.raises(ValueError, match=r"placement for unknown SBS id 4"):
            positions_array(stray, 4)
        repeated = placements[:3] + (placements[1],)
        with pytest.raises(ValueError, match=r"missing placements for SBS ids \[3\]"):
            positions_array(repeated, 4)


class TestInvariants:
    def test_convex_combination_bounds(self, rng):
        placements = grid_placements(16)
        for _ in range(300):
            loads = rng.uniform(0, 1, 16)
            sleeping = rng.choice(16, size=3, replace=False)
            snap = snapshot_of(loads, sleeping=sleeping)
            n = int(rng.integers(1, 12))
            exponent = [None, 1, 2, 5][int(rng.integers(4))]
            cfg = [
                DistanceConfig(neighbors=n, weighting=exponent),
                RandomConfig(neighbors=n, weighting=exponent, seed=int(rng.integers(1000))),
            ][int(rng.integers(2))]
            res = estimate(cfg, snap, placements)
            for det, est in zip(res.detail, res.estimates):
                neighbor_loads = loads[list(det.neighbor_ids)]
                assert neighbor_loads.min() - 1e-12 <= est <= neighbor_loads.max() + 1e-12

    def test_nearest_neighbor_limit_in_exponent(self, rng):
        # With distinct distances and loads varying monotonically with
        # distance, a larger exponent always lands closer to the nearest
        # neighbor's load.
        for trial in range(100):
            n_sbs = int(rng.integers(4, 12))
            xs = np.cumsum(rng.uniform(50.0, 400.0, n_sbs))
            placements = line_placements(np.concatenate([[0.0], xs[:-1]]))
            base = rng.uniform(0.2, 0.8)
            slope = rng.uniform(-0.3, 0.3)
            loads = np.clip(base + slope * np.linspace(0, 1, n_sbs) + rng.normal(0, 0.01, n_sbs), 0, 1)
            loads[0] = 0.0
            snap = snapshot_of(loads, sleeping=[0])
            n = int(rng.integers(2, n_sbs))
            est1 = distance_estimate(snap, placements, DistanceConfig(n, weighting=1)).estimates[0]
            est10 = distance_estimate(snap, placements, DistanceConfig(n, weighting=10)).estimates[0]
            nearest = loads[1]
            assert abs(est10 - nearest) <= abs(est1 - nearest) + 1e-12

    def test_scale_equivariance(self, rng):
        placements = grid_placements(12)
        loads = rng.uniform(0.1, 1.0, 12)
        for c in (0.25, 0.5, 1.0):
            for cfg in (
                DistanceConfig(neighbors=4, weighting=2),
                RandomConfig(neighbors=4, weighting=1, seed=3),
                DistanceConfig(neighbors=4),
            ):
                a = estimate(cfg, snapshot_of(loads, [5]), placements)
                b = estimate(cfg, snapshot_of(c * loads, [5]), placements)
                assert b.estimates[0] == pytest.approx(c * a.estimates[0], rel=1e-12)


class TestEstimationError:
    def test_perfect_estimate(self):
        summary = estimation_error([0.5, 0.2], [0.5, 0.2])
        assert summary.mean_error == 0.0
        assert summary.n_included == 2 and summary.n_excluded == 0

    def test_hand_value(self):
        assert estimation_error([0.5], [0.25]).mean_error == pytest.approx(0.5)

    def test_below_epsilon_excluded(self):
        summary = estimation_error([0.5, 1e-6], [0.25, 0.9], epsilon=1e-3)
        assert summary.n_excluded == 1
        assert summary.mean_error == pytest.approx(0.5)

    def test_all_excluded_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            estimation_error([1e-9, 0.0], [0.1, 0.1], epsilon=1e-3)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            estimation_error([0.1, 0.2], [0.1])

    @pytest.mark.parametrize("epsilon", [-1.0, float("inf"), float("nan")])
    def test_bad_epsilon_rejected(self, epsilon):
        # A negative epsilon used to include a zero load and return inf.
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            estimation_error([0.0, 0.5], [0.1, 0.5], epsilon=epsilon)

    def test_rows_match_one_row_calls_bit_for_bit(self, rng):
        # 3 estimators x 5 slots x 300 sleepers, long enough that a pairwise
        # sum would round differently from the left-to-right one.
        actual = rng.uniform(0.0, 1.0, (5, 300))
        actual[1, :200] = 0.0
        estimated = rng.uniform(0.0, 1.0, (3, 5, 300))
        summary = estimation_error(actual, estimated, epsilon=0.05)
        assert summary.mean_error.shape == (3, 5) and summary.n_included.shape == (5,)
        for p in range(3):
            for s in range(5):
                row = estimation_error(actual[s], estimated[p, s], epsilon=0.05)
                assert summary.mean_error[p, s] == row.mean_error
                assert (summary.n_included[s], summary.n_excluded[s]) == (row.n_included, row.n_excluded)
        keep = actual[2] >= 0.05
        rel = (np.abs(actual[2] - estimated[0, 2]) / actual[2])[keep]
        assert summary.mean_error[0, 2] == python_sum(rel) / rel.size

    def test_row_sums_add_included_errors_left_to_right(self, rng):
        # Exclusions at the first, a middle and the last sleeper, and at all
        # three in one row, against a plain-Python loop in sleeper order.
        actual = rng.uniform(0.01, 1.0, (4, 200))
        actual[0, 0] = 0.0
        actual[1, 100] = 1e-5
        actual[2, -1] = 0.0
        actual[3, [0, 100, 199]] = 0.0
        estimated = rng.uniform(0.0, 1.0, (2, 4, 200))
        summary = estimation_error(actual, estimated, epsilon=1e-3)
        assert summary.n_included.tolist() == [199, 199, 199, 197]
        for p in range(2):
            for s in range(4):
                kept = [(a, e) for a, e in zip(actual[s].tolist(), estimated[p, s].tolist()) if a >= 1e-3]
                total = python_sum(abs(a - e) / a for a, e in kept)
                assert summary.total_error[p, s] == total
                assert summary.mean_error[p, s] == total / len(kept)

    def test_undefined_row_is_named(self):
        actual = np.array([[0.5, 0.2], [1e-4, 0.0], [0.0, 0.0]])
        with pytest.raises(ErrorUndefined, match="all 2 sleepers fall below epsilon=0.001") as info:
            estimation_error(actual, np.zeros((4, 3, 2)))
        assert info.value.row == 1

    def test_estimates_must_end_in_the_actual_shape(self):
        with pytest.raises(ValueError, match="shape"):
            estimation_error(np.ones((2, 3)), np.ones(3))
