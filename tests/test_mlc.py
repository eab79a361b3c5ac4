import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellsleep import experiments
from cellsleep.config import desk_profile
from cellsleep.estimators import MlcConfig, estimate, estimation_error, kmeans
from cellsleep.estimators.mlc import _group_layout, mlc_estimate, mlc_layers
from cellsleep.experiments import layers_axis, neighbors_axis, run_error_sweep
from cellsleep.traffic import daily_average, mask_sleepers, synthesize_traffic

import naive_kmeans
from conftest import grid_placements, mlc_rule, snapshot_of


class TestSingleLayer:
    def test_uniform_actives_one_sleeper_without_history(self):
        # No history: the sleeper enters at the global active mean v and
        # every cluster's active mean is v.
        snap = snapshot_of([0.4, 0.4, 0.4, 0.4, 0.0], sleeping=[4])
        res = mlc_estimate(snap, np.full(5, np.nan), MlcConfig(layers=1))
        assert res.estimates[0] == pytest.approx(0.4, rel=1e-12)

    def test_uniform_actives_one_sleeper_with_matching_history(self):
        snap = snapshot_of([0.4, 0.4, 0.4, 0.4, 0.0], sleeping=[4])
        history = np.array([np.nan, np.nan, np.nan, np.nan, 0.4])
        res = mlc_estimate(snap, history, MlcConfig(layers=1))
        assert res.estimates[0] == pytest.approx(0.4, rel=1e-12)

    def test_history_matching_one_active_with_full_k(self):
        # Four SBSs, distinct active loads; the sleeper's history equals one
        # active exactly and k equals the number of distinct values, so the
        # sleeper clusters with that active alone and inherits its load.
        snap = snapshot_of([0.2, 0.5, 0.8, 0.0], sleeping=[3])
        history = np.array([np.nan, np.nan, np.nan, 0.5])
        res = mlc_estimate(snap, history, MlcConfig(layers=1, k_override=3))
        assert res.estimates[0] == pytest.approx(0.5, rel=1e-12)
        assert res.detail[0].neighbor_ids == (1,)

    def test_sleeper_isolated_cluster_keeps_history(self):
        # History far from every active and k large enough to isolate it:
        # its cluster has no active member, so the estimate stays put.
        snap = snapshot_of([0.1, 0.12, 0.14, 0.0], sleeping=[3])
        history = np.array([np.nan, np.nan, np.nan, 0.9])
        res = mlc_estimate(snap, history, MlcConfig(layers=1, k_override=2))
        assert res.estimates[0] == pytest.approx(0.9)
        assert res.detail[0].neighbor_ids == ()


class TestLayering:
    def test_fixed_point_when_everything_equals_v(self):
        v = 0.3
        snap = snapshot_of([v, v, v, v, 0.0, 0.0], sleeping=[4, 5])
        history = np.array([np.nan] * 4 + [v, v])
        for layers in (1, 3, 7):
            res = mlc_estimate(snap, history, MlcConfig(layers=layers))
            assert np.allclose(res.estimates, v, atol=1e-12)

    def test_layer_estimates_prefix_property(self, rng):
        loads = rng.uniform(0, 1, 40)
        history = np.clip(loads + rng.normal(0, 0.02, 40), 0, 1)
        snap = snapshot_of(loads, sleeping=rng.choice(40, 6, replace=False))
        deep = mlc_estimate(snap, history, MlcConfig(layers=5))
        for layers in (1, 2, 3, 4, 5):
            shallow = mlc_estimate(snap, history, MlcConfig(layers=layers))
            assert np.array_equal(shallow.estimates, deep.layer_estimates[layers - 1])

    def test_deeper_layers_reduce_error_on_correlated_data(self):
        n_days, n_sbs = 5, 80
        series, placements = synthesize_traffic(
            seed=5, n_sbs=n_sbs, grid_side=9, correlation_length_m=700.0,
            n_days=n_days, noise_std=0.01, field_floor=0.3,
        )
        day = daily_average(series)
        spd = series.slots_per_day
        history_all = series.loads[:, (n_days - 1) * spd:]
        errs = {1: [], 7: []}
        for it in range(10):
            sleepers = np.random.default_rng(100 + it).permutation(n_sbs)[:8]
            for slot in (36, 72, 108):
                snap, actual = mask_sleepers(day.loads[:, slot], sleepers)
                res = mlc_estimate(snap, history_all[:, slot], MlcConfig(layers=7))
                ids = list(res.sleeper_ids)
                for layers in (1, 7):
                    est = res.layer_estimates[layers - 1]
                    errs[layers].append(estimation_error(actual[ids], est).mean_error)
        assert np.mean(errs[7]) < np.mean(errs[1])

    def test_estimates_stay_in_unit_interval(self, rng):
        for trial in range(30):
            n = int(rng.integers(6, 30))
            loads = rng.uniform(0, 1, n)
            history = np.clip(loads + rng.normal(0, 0.1, n), 0, 1)
            sleepers = rng.choice(n, size=max(1, n // 5), replace=False)
            snap = snapshot_of(loads, sleeping=sleepers)
            with mlc_rule(seed=trial):
                res = mlc_estimate(snap, history, MlcConfig(layers=int(rng.integers(1, 6))))
            assert (res.estimates >= 0).all() and (res.estimates <= 1).all()

    def test_scale_equivariance(self, rng):
        # Clustering structure is scale-invariant (same seeding, assignments
        # converge before the movement tolerance bites), so estimates scale
        # linearly with the loads.
        loads = rng.uniform(0.1, 1.0, 30)
        history = np.clip(loads + rng.normal(0, 0.03, 30), 0.05, 1.0)
        sleepers = [3, 12, 25]
        base = mlc_estimate(snapshot_of(loads, sleepers), history, MlcConfig(layers=3))
        for c in (0.25, 0.5):
            scaled = mlc_estimate(snapshot_of(c * loads, sleepers), c * history, MlcConfig(layers=3))
            assert np.allclose(scaled.estimates, c * base.estimates, rtol=1e-9)

    def test_estimate_is_mean_of_reported_contributors(self, rng):
        loads = rng.uniform(0, 1, 30)
        history = np.clip(loads + rng.normal(0, 0.05, 30), 0, 1)
        sleepers = [4, 9, 20]
        snap = snapshot_of(loads, sleeping=sleepers)
        res = mlc_estimate(snap, history, MlcConfig(layers=3))
        for det, est in zip(res.detail, res.estimates):
            if det.neighbor_ids:
                assert est == pytest.approx(loads[list(det.neighbor_ids)].mean(), rel=1e-12)
                assert sum(det.weights) == pytest.approx(1.0, rel=1e-12)


class TestDispatchAndValidation:
    def test_dispatch_carries_layer_estimates(self, rng):
        loads = rng.uniform(0, 1, 20)
        history = np.clip(loads + rng.normal(0, 0.02, 20), 0, 1)
        snap = snapshot_of(loads, sleeping=[2, 7])
        res = estimate(MlcConfig(layers=4), snap, grid_placements(20), history)
        assert res.layer_estimates.shape == (4, 2)
        assert np.array_equal(res.layer_estimates[3], res.estimates)

    def test_zero_sleepers(self):
        snap = snapshot_of([0.1, 0.2], sleeping=[])
        res = mlc_estimate(snap, np.array([0.1, 0.2]), MlcConfig(layers=2))
        assert res.n_sleepers == 0
        assert res.layer_estimates.shape == (2, 0)

    @pytest.mark.parametrize("layers", [1, 3, 7])
    def test_zero_slot_rows(self, layers):
        known = np.array([True, True, False, True, False])
        trace, (source_layer, source_group, groups) = mlc_layers(
            np.empty((0, 5)), np.empty((0, 5)), known, MlcConfig(layers)
        )
        assert trace.shape == (0, layers, 2)
        assert source_layer.size == source_group.size == 0 and groups == []

    def test_bad_layers(self):
        snap = snapshot_of([0.1, 0.2], sleeping=[1])
        with pytest.raises(ValueError):
            mlc_estimate(snap, np.array([0.1, 0.2]), MlcConfig(layers=0))

    @pytest.mark.parametrize("kwargs", [{"layers": 0}, {"k_override": 0}])
    def test_config_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            MlcConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("layers", 2.0), ("layers", True), ("k_override", 2.5), ("k_override", False)],
    )
    def test_config_rejects_bad_setting_naming_it(self, name, value):
        # Each used to pass construction and fail inside mlc_layers with a
        # numpy error naming no setting.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            MlcConfig(**{name: value})

    def test_config_takes_numpy_integers(self):
        cfg = MlcConfig(layers=np.int64(3), k_override=np.int32(2))
        assert cfg.layers == 3 and cfg.k_override == 2

    def test_bad_history_shape(self):
        snap = snapshot_of([0.1, 0.2], sleeping=[1])
        with pytest.raises(ValueError, match="history"):
            mlc_estimate(snap, np.array([0.1]), MlcConfig(layers=1))

    def test_history_out_of_range(self):
        snap = snapshot_of([0.1, 0.2], sleeping=[1])
        with pytest.raises(ValueError, match="history"):
            mlc_estimate(snap, np.array([0.1, 1.7]), MlcConfig(layers=1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_history_rejected(self, bad):
        # Only NaN means "no history"; an infinite feature is out of range
        # and must not fall back to the active mean.
        snap = snapshot_of([0.3, 0.3, 0.3, 0.3, 0.0], sleeping=[4])
        assert mlc_estimate(snap, [np.nan] * 5, MlcConfig(layers=1)).estimates[0] == pytest.approx(0.3)
        with pytest.raises(ValueError, match=r"history features must lie in \[0, 1\]"):
            mlc_estimate(snap, [np.nan] * 4 + [bad], MlcConfig(layers=1))
        history = np.full((3, 5), 0.3)
        history[2, 4] = bad
        with pytest.raises(ValueError, match=r"history features must lie in \[0, 1\]"):
            mlc_layers(np.full((3, 5), 0.3), history, snap.known_mask, MlcConfig(2))


class TestMatchesOriginalMlc:
    """Bit-for-bit agreement with the original layer loop on the sorted-run oracle's fits."""

    @staticmethod
    def assert_matches(loads, sleepers, history, layers, k_override, seed, max_iter=100, fits=None):
        snap = snapshot_of(loads, sleeping=sleepers)
        with mlc_rule(seed=seed, max_iter=max_iter):
            res = mlc_estimate(snap, history, MlcConfig(layers, k_override=k_override))
        ref_layers, ref_ids = naive_kmeans.mlc_layers(
            snap.loads, snap.known_mask, history, layers, k_override=k_override, seed=seed, max_iter=max_iter,
            fits=fits,
        )
        assert np.array_equal(res.layer_estimates, ref_layers)
        assert [d.neighbor_ids for d in res.detail] == ref_ids

    @staticmethod
    def random_inputs(rng, n):
        loads = np.round(rng.uniform(0, 1, n), int(rng.choice([1, 2, 6])))
        sleepers = rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)
        history = np.clip(loads + rng.normal(0, 0.05, n), 0, 1)
        history[rng.uniform(size=n) < 0.2] = np.nan
        return loads, sleepers, history

    def test_random_snapshots(self, rng):
        for trial in range(60):
            inputs = self.random_inputs(rng, int(rng.integers(3, 60)))
            layers = int(rng.integers(1, 6))
            k_override = None if trial % 3 else int(rng.integers(1, 5))
            self.assert_matches(*inputs, layers, k_override, seed=trial)

    def test_large_cells_and_short_lloyd(self, rng):
        # Cells past 128 SBSs, where a pairwise sum would split; a small
        # max_iter stops problems before they converge.
        for trial in range(40):
            inputs = self.random_inputs(rng, int(rng.integers(129, 400)))
            layers = int(rng.integers(1, 6))
            k_override = None if trial % 2 else int(rng.integers(1, 6))
            self.assert_matches(*inputs, layers, k_override, seed=trial, max_iter=(1, 2, 5, 100)[trial % 4])

    def test_paper_like_snapshot(self, rng):
        n = 1500
        loads = rng.uniform(0, 1, n)
        history = np.clip(loads + rng.normal(0, 0.05, n), 0, 1)
        self.assert_matches(loads, rng.choice(n, size=150, replace=False), history, 7, 3, seed=3)


class TestBatchedSlots:
    """Stacked slots sharing one sleeper set match the original loop slot by slot."""

    @staticmethod
    def assert_matches(loads, history, known, layers, k_override, seed, max_iter=100, elbow_k_max=8):
        with mlc_rule(seed=seed, max_iter=max_iter, elbow_k_max=elbow_k_max):
            trace, sources = mlc_layers(loads, history, known, MlcConfig(layers, k_override=k_override))
        m = np.count_nonzero(~known)
        assert trace.shape == (loads.shape[0], layers, m)
        mates = contributors(sources, loads.shape[1])
        for s in range(loads.shape[0]):
            ref, ref_ids = naive_kmeans.mlc_layers(
                loads[s], known, history[s], layers, k_override=k_override, seed=seed, max_iter=max_iter,
                elbow_k_max=elbow_k_max,
            )
            assert np.array_equal(trace[s], ref)
            assert mates[s * m : (s + 1) * m] == ref_ids

    @staticmethod
    def random_stack(rng, n_slots, n):
        known = np.ones(n, dtype=bool)
        known[rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)] = False
        loads = np.round(rng.uniform(0, 1, (n_slots, n)), int(rng.choice([1, 2, 6])))
        history = np.clip(loads + rng.normal(0, 0.05, (n_slots, n)), 0, 1)
        history[rng.uniform(size=(n_slots, n)) < 0.2] = np.nan
        if n_slots >= 3:
            loads[0], history[0] = 0.5, np.nan  # flat: every feature equal
            history[1] = np.nan  # no history: sleepers enter at the active mean
        return loads, history, known

    def test_random_stacks(self, rng):
        for trial in range(40):
            inputs = self.random_stack(rng, int(rng.integers(1, 7)), int(rng.integers(3, 60)))
            layers = int(rng.integers(1, 6))
            k_override = None if trial % 3 else int(rng.integers(1, 5))
            self.assert_matches(*inputs, layers, k_override, seed=trial)

    def test_large_cells_and_short_lloyd(self, rng):
        for trial in range(16):
            inputs = self.random_stack(rng, int(rng.integers(2, 5)), int(rng.integers(129, 300)))
            layers = int(rng.integers(1, 5))
            k_override = None if trial % 2 else int(rng.integers(1, 6))
            self.assert_matches(*inputs, layers, k_override, seed=trial, max_iter=(1, 2, 5, 100)[trial % 4])

    def test_continuous_stacks(self, rng):
        # Continuous features up to n = 400, so ties are rare and almost every
        # problem converges on sorted runs; a small max_iter stops them early.
        for trial in range(12):
            n_slots, n = int(rng.integers(1, 4)), int(rng.integers(3, 401))
            known = np.ones(n, dtype=bool)
            known[rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)] = False
            loads = rng.beta(2, 5, (n_slots, n)) if trial % 2 else rng.uniform(0, 1, (n_slots, n))
            history = np.clip(loads + rng.normal(0, 0.05, (n_slots, n)), 0, 1)
            history[rng.uniform(size=(n_slots, n)) < 0.2] = np.nan
            layers, k_override = int(rng.integers(1, 6)), None if trial % 3 else int(rng.integers(2, 6))
            max_iter = (1, 2, 5, 100)[trial % 4]
            self.assert_matches(loads, history, known, layers, k_override, seed=trial, max_iter=max_iter)

    def test_sweep_batches_match_slot_by_slot(self, monkeypatch):
        # 6 slots in batches of 4 and 2, per iteration and MLC setting; the
        # CSV of every estimator family is the one of a single batch per
        # iteration and of one slot per batch.
        cfg = desk_profile(n_iterations=2, slot_stride=24)
        points = (
            layers_axis([1, 4]) + layers_axis([2], k_override=3)
            + neighbors_axis("distance", [1, 10, 20])
            + neighbors_axis("distance", [10], weighting=1) + neighbors_axis("distance", [10], weighting=3)
            + neighbors_axis("random", [1, 10], weighting=1)
        )
        whole = run_error_sweep(cfg, points).csv_text()
        monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", cfg.n_sbs)
        assert run_error_sweep(cfg, points).csv_text() == whole
        calls = []

        def recorded(loads, history, known_mask, config):
            out = mlc_layers(loads, history, known_mask, config)
            calls.append((loads, history, known_mask, config, out[0]))
            return out

        monkeypatch.setattr(experiments, "mlc_layers", recorded)
        monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", 4 * cfg.n_sbs)
        assert run_error_sweep(cfg, points).csv_text() == whole
        assert sorted(call[0].shape[0] for call in calls) == [2] * 4 + [4] * 4
        for loads, history, known, cfg, trace in calls:
            for s in range(loads.shape[0]):
                ref, _ = naive_kmeans.mlc_layers(
                    loads[s], np.broadcast_to(known, loads.shape)[s], history[s], cfg.layers,
                    k_override=cfg.k_override,
                )
                assert np.array_equal(trace[s], ref)


class TestGroupLayout:
    @pytest.mark.parametrize("labels", ["dense", "gaps"])
    def test_counting_scatter_is_the_stable_argsort(self, rng, labels):
        # One-row cells, label gaps (an empty run leaves its rank unused)
        # and up to 3000 cells.
        for trial in range(40):
            n_cells = int(rng.integers(1, 3001)) if trial % 4 == 0 else int(rng.integers(1, 40))
            sizes = rng.integers(1, 3 if trial % 3 == 0 else 30, n_cells)
            cell = np.repeat(np.arange(n_cells), sizes)
            k = int(rng.integers(1, 9))
            pool = np.arange(k) if labels == "dense" else np.sort(rng.choice(20, size=k, replace=False))
            clusters = rng.choice(pool, size=cell.size)
            order, group_sizes = _group_layout(cell, clusters, n_cells)
            key = cell * 20 + clusters  # any multiplier above the largest label
            assert np.array_equal(order, np.argsort(key, kind="stable"))
            assert np.array_equal(group_sizes, np.unique(key, return_counts=True)[1])


def contributors(sources, n_sbs):
    """Per sleeper (slot-major), the ids of the active SBSs its estimate averages."""
    source_layer, source_group, groups = sources
    out = []
    for layer, g in zip(source_layer.tolist(), source_group.tolist()):
        if layer < 0:
            out.append(())
            continue
        known_rows, first, count = groups[layer]
        out.append(tuple((known_rows[first[g] : first[g] + count[g]] % n_sbs).tolist()))
    return out


class TestPerRowMasks:
    """Slots with different sleeper sets in one call, each as it would be alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_slots=st.integers(1, 5),
        n=st.integers(3, 150),
        layers=st.integers(1, 5),
        k_override=st.sampled_from([None, None, 1, 2, 3, 5]),
        decimals=st.sampled_from([1, 2, 6]),
    )
    def test_each_row_matches_its_own_call(self, seed, n_slots, n, layers, k_override, decimals):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, n))
        known = np.ones((n_slots, n), dtype=bool)
        for row in known:
            row[rng.choice(n, size=m, replace=False)] = False
        loads = np.round(rng.uniform(0, 1, (n_slots, n)), decimals)
        history = np.clip(loads + rng.normal(0, 0.05, (n_slots, n)), 0, 1)
        history[rng.uniform(size=(n_slots, n)) < 0.2] = np.nan
        history[0] = np.nan  # a slot without history: its sleepers enter at the active mean
        cfg = MlcConfig(layers, k_override=k_override)

        with mlc_rule(seed=seed % 7):
            trace, sources = mlc_layers(loads, history, known, cfg)
            assert trace.shape == (n_slots, layers, m)
            mates = contributors(sources, n)
            for s in range(n_slots):
                alone, alone_sources = mlc_layers(loads[s : s + 1], history[s : s + 1], known[s], cfg)
                assert np.array_equal(trace[s], alone[0])
                assert mates[s * m : (s + 1) * m] == contributors(alone_sources, n)

    def test_shared_mask_equals_its_broadcast(self, rng):
        known = np.ones(40, dtype=bool)
        known[[3, 17, 30]] = False
        loads = rng.uniform(0, 1, (4, 40))
        history = np.full((4, 40), np.nan)
        cfg = MlcConfig(3)
        shared = mlc_layers(loads, history, known, cfg)[0]
        assert np.array_equal(shared, mlc_layers(loads, history, np.tile(known, (4, 1)), cfg)[0])

    def test_unequal_sleeper_counts_rejected(self):
        known = np.ones((2, 6), dtype=bool)
        known[0, 1] = known[1, [1, 2]] = False
        with pytest.raises(ValueError, match=r"same number of sleepers, got \[1, 2\]"):
            mlc_layers(np.full((2, 6), 0.3), np.full((2, 6), np.nan), known, MlcConfig(1))

    def test_row_without_active_sbs_rejected(self):
        known = np.zeros((2, 4), dtype=bool)
        known[0, 2] = True
        with pytest.raises(ValueError, match="no active SBS"):
            mlc_layers(np.full((2, 4), 0.3), np.full((2, 4), np.nan), known, MlcConfig(1))

    @pytest.mark.parametrize("layers", [1, 4])
    def test_no_sleepers_give_the_empty_trace(self, layers):
        trace, (source_layer, source_group, groups) = mlc_layers(
            np.full((3, 5), 0.3), np.full((3, 5), np.nan), np.ones((3, 5), dtype=bool), MlcConfig(layers)
        )
        assert trace.shape == (3, layers, 0)
        assert source_layer.size == source_group.size == 0 and groups == []


@pytest.fixture
def no_exact_loop(monkeypatch):
    """Fail any call of the exact Lloyd loop: MLC's clustering is the sorted-run rule alone."""

    def refused(*args, **kwargs):
        raise AssertionError("_fit_cells called the exact Lloyd loop")

    monkeypatch.setattr(kmeans, "kmeans_fit", refused)


@pytest.mark.usefixtures("no_exact_loop")
class TestSortedRunGuard:
    """Ties, repairs and stopping steps follow the sorted-run rule, with the oracle's bits."""

    def test_sleeper_at_the_midpoint_of_two_clusters(self):
        # The NaN-history sleeper enters at the active mean 0.5, exactly the
        # midpoint of the k = 2 centroids 0.25 and 0.75 of two equal halves.
        # (argmin in kmeans_fit gives it to the lower seed label, on either
        # side.) The rule's cut puts it in the lower-valued cluster for every
        # seed that does not start the chain at the sleeper itself.
        snap = snapshot_of([0.25] * 8 + [0.75] * 8 + [0.0], sleeping=[16])
        history = np.full(17, np.nan)
        at_tie = 0
        for seed in range(12):
            with mlc_rule(seed=seed):
                res = mlc_estimate(snap, history, MlcConfig(1, k_override=2))
            ref, ref_ids = naive_kmeans.mlc_layers(snap.loads, snap.known_mask, history, 1, k_override=2, seed=seed)
            assert np.array_equal(res.layer_estimates, ref)
            assert [d.neighbor_ids for d in res.detail] == ref_ids
            if kmeans._first_seed(17, seed) != 16:
                at_tie += 1
                assert res.estimates[0] == 0.25 and res.detail[0].neighbor_ids == tuple(range(8))
        assert at_tie >= 10

    def test_sleeper_just_above_the_midpoint_joins_the_upper_cluster(self):
        # The sleeper's history lies 1e-13 above the midpoint 0.5, in each of
        # 40 stacked slots, whose prefix sums restart at every slot row.
        n_slots = 40
        loads = np.tile([0.25] * 8 + [0.75] * 8 + [0.0], (n_slots, 1))
        history = np.full_like(loads, np.nan)
        history[:, 16] = 0.5 + 1e-13
        known = np.arange(17) < 16
        ref, _ = naive_kmeans.mlc_layers(loads[0], known, history[0], 1, k_override=2)
        assert ref[0, 0] == 0.75
        trace, _ = mlc_layers(loads, history, known, MlcConfig(1, k_override=2))
        assert all(np.array_equal(row, ref) for row in trace)

    @pytest.mark.parametrize("k_override", [None, 3])
    def test_continuous_features_stay_on_sorted_runs(self, rng, k_override):
        # Without ties every problem of every layer runs on its runs: the
        # shared value order, its run labels and the kept cuts are what
        # placed every midpoint, and the exact loop is never called.
        n_slots, n = 4, 300
        loads = rng.uniform(0.2, 0.8, (n_slots, n))
        history = loads + rng.normal(0, 0.02, (n_slots, n))
        known = np.ones(n, dtype=bool)
        known[rng.choice(n, size=40, replace=False)] = False
        TestBatchedSlots.assert_matches(loads, history, known, 6, k_override, seed=5)

    @pytest.mark.parametrize("max_iter", [1, 2, 100])
    def test_repaired_clusters_through_deeper_layers(self, rng, max_iter):
        # One-decimal features leave sub-cells with fewer distinct values
        # than k = 4, so coinciding seeds leave runs empty below layer 1; an
        # empty run keeps its centroid, and the next layer's cells are runs
        # of the value order again.
        n = 60
        fits = []
        for trial in range(12):
            loads = np.round(rng.uniform(0, 1, n), 1)
            history = np.round(np.clip(loads + rng.normal(0, 0.1, n), 0, 1), 1)
            sleepers = rng.choice(n, size=int(rng.integers(5, 20)), replace=False)
            TestMatchesOriginalMlc.assert_matches(
                loads, sleepers, history, 6, 4, seed=trial, max_iter=max_iter, fits=fits
            )
        assert any(fit.empty_runs and fit.labels.size < n for fit in fits)


class TestSortedRunOracle:
    """``mlc_layers`` against the sorted-run oracle over MLC's whole input range."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_slots=st.integers(1, 3),
        n=st.integers(3, 120),
        layers=st.integers(1, 6),
        k_override=st.one_of(st.none(), st.integers(1, 9)),
        elbow_k_max=st.integers(3, 12),
        decimals=st.sampled_from([1, 2, 6]),
        max_iter=st.sampled_from([1, 2, 5, 100]),
    )
    def test_every_setting(self, seed, n_slots, n, layers, k_override, elbow_k_max, decimals, max_iter):
        # 1 and 2 decimals give ties at midpoints and cells with fewer
        # distinct values than k (coinciding seeds, empty runs).
        rng = np.random.default_rng(seed)
        known = np.ones(n, dtype=bool)
        known[rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)] = False
        loads = np.round(rng.uniform(0, 1, (n_slots, n)), decimals)
        history = np.round(np.clip(loads + rng.normal(0, 0.05, (n_slots, n)), 0, 1), decimals)
        history[rng.uniform(size=(n_slots, n)) < 0.2] = np.nan
        TestBatchedSlots.assert_matches(
            loads, history, known, layers, k_override, seed=seed % 13, max_iter=max_iter, elbow_k_max=elbow_k_max
        )
