import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cellsleep import experiments, switching
from cellsleep.config import ExperimentConfig, config_from_dict, config_hash, desk_profile, paper_profile
from cellsleep.dataio import read_loads_csv, write_loads_csv, write_placements_json
from cellsleep.errors import ConfigError, DataFormatError, GridError
from cellsleep.estimators import MlcConfig, estimate, positions_array
from cellsleep.experiments import (
    build_dataset,
    layers_axis,
    neighbors_axis,
    report_basename,
    run_decision_sweep,
    run_error_sweep,
    run_figure,
    run_power_sweep,
    write_report,
)
from cellsleep.traffic import SYNTH_BLOCK_ROWS, LoadSeries, daily_average, mask_sleepers, synthesize_traffic


def small_config(**overrides):
    values = dict(
        n_sbs=30,
        n_days=3,
        n_iterations=5,
        slot_stride=36,
        grid_side=6,
        correlation_length_m=500.0,
        profile="test",
        base_seed=7,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


class TestConfig:
    def test_zero_sleep_fraction_rejected(self):
        with pytest.raises(ConfigError, match="sleep_fraction"):
            ExperimentConfig(sleep_fraction=0.0)

    @pytest.mark.parametrize("key", ["offload_to_mbs", "offload_to_haps", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-9])
    def test_non_finite_or_negative_scale_and_epsilon_rejected(self, key, value):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            ExperimentConfig(**{key: value})

    def test_negative_base_seed_rejected(self):
        assert ExperimentConfig(base_seed=0).base_seed == 0
        with pytest.raises(ConfigError, match="base_seed must be >= 0"):
            config_from_dict({"base_seed": -1})

    INTEGER_KEYS = ("n_sbs", "n_days", "n_iterations", "slot_stride", "slots_per_day", "slot_minutes",
                    "grid_side", "n_field_bumps", "base_seed", "exhaustive_cap", "mlc_k_override")

    @pytest.mark.parametrize("key", INTEGER_KEYS)
    @pytest.mark.parametrize("value", [12.5, 1.0, True, "3"])
    def test_non_integer_counts_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {re.escape(repr(value))}$"):
            config_from_dict({key: value})

    def test_exhaustive_cap_above_search_limit_rejected(self):
        assert ExperimentConfig(exhaustive_cap=20).exhaustive_cap == 20
        with pytest.raises(ConfigError, match="exhaustive_cap"):
            ExperimentConfig(exhaustive_cap=21)

    def test_profiles_match_reference_scale(self):
        paper = paper_profile()
        assert (paper.n_sbs, paper.slots_per_day, paper.slot_minutes) == (5000, 144, 10)
        assert (paper.n_days, paper.n_iterations) == (30, 300)
        assert paper.mlc_k_override == 3
        desk = desk_profile()
        assert desk.n_sbs == 100 and desk.n_iterations == 50

    def test_hash_is_stable_and_sensitive(self):
        a = small_config()
        assert config_hash(a) == config_hash(small_config())
        assert config_hash(a) != config_hash(small_config(base_seed=8))

    def test_unknown_data_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(data_source="csv")

    @staticmethod
    def shipped(name):
        doc = json.loads((Path(__file__).parents[1] / "configs" / name).read_text())
        return doc["experiment"]

    def test_default_json_is_the_resolved_default(self):
        def strip(doc):
            return {k: strip(v) if isinstance(v, dict) else v for k, v in doc.items() if not k.startswith("_")}

        assert strip(self.shipped("default.json")) == ExperimentConfig().to_dict()

    def test_desk_json_resolves_to_the_desk_profile(self):
        assert config_from_dict(self.shipped("desk.json")) == desk_profile()


class TestBuildDataset:
    def test_shapes_and_determinism(self):
        cfg = small_config()
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert cfg.eval_slots() == (0, 36, 72, 108)
        assert a.loads.shape == a.history.shape == (30, 4)
        assert a.history.base is None  # a copy: a view would pin all 3 days
        assert not (a.loads.flags.writeable or a.history.flags.writeable or a.positions.flags.writeable)
        assert a.loads.tobytes() == b.loads.tobytes()
        assert a.positions.shape == (30, 2)

    def test_milan_source_roundtrip(self, tmp_path):
        series, placements = synthesize_traffic(
            seed=3, n_sbs=12, grid_side=4, correlation_length_m=300.0, n_days=2
        )
        write_loads_csv(series, tmp_path / "loads.csv")
        write_placements_json(placements, tmp_path / "placements.json", grid_side=4)
        cfg = small_config(
            n_sbs=12,
            n_days=2,
            data_source="milan",
            loads_csv=str(tmp_path / "loads.csv"),
            placements_json=str(tmp_path / "placements.json"),
        )
        data = build_dataset(cfg)
        assert data.loads.shape == (12, 4)
        assert np.array_equal(data.positions, positions_array(placements, 12))
        assert not data.positions.flags.writeable
        assert np.allclose(
            data.history, series.loads[:, 144::36], atol=1e-15
        )  # history = last raw day at the evaluated slots

    @staticmethod
    def milan_config(tmp_path, series, placements, **overrides):
        write_loads_csv(series, tmp_path / "loads.csv")
        write_placements_json(placements, tmp_path / "placements.json", grid_side=7)
        values = dict(n_sbs=series.n_sbs, n_days=2, data_source="milan", grid_side=7,
                      loads_csv=str(tmp_path / "loads.csv"), placements_json=str(tmp_path / "placements.json"))
        values.update(overrides)
        return small_config(**values)

    def test_milan_source_reads_at_most_n_days(self, tmp_path):
        # A 2-day file read with n_days 1 is the file cut to its first day.
        series, placements = synthesize_traffic(
            seed=3, n_sbs=12, grid_side=7, correlation_length_m=300.0, n_days=2
        )
        first_day = LoadSeries(loads=series.loads[:, :144], slot_minutes=10)
        (tmp_path / "cut").mkdir()
        data = build_dataset(self.milan_config(tmp_path, series, placements, n_days=1))
        cut = build_dataset(self.milan_config(tmp_path / "cut", first_day, placements, n_days=1))
        assert np.array_equal(data.loads, cut.loads)
        assert np.array_equal(data.history, cut.history)
        assert np.array_equal(data.history, series.loads[:, :144:36])
        assert np.array_equal(data.positions, cut.positions)
        whole = build_dataset(self.milan_config(tmp_path, series, placements))
        assert not np.array_equal(whole.loads, data.loads)

    def test_milan_source_needs_whole_days(self, tmp_path):
        series, placements = synthesize_traffic(
            seed=3, n_sbs=12, grid_side=7, correlation_length_m=300.0, n_days=2
        )
        cut = LoadSeries(loads=series.loads[:, :150], slot_minutes=10)
        with pytest.raises(DataFormatError, match="150 slots is not a whole number of days"):
            build_dataset(self.milan_config(tmp_path, cut, placements))

    def test_milan_source_needs_the_configured_sbs_count(self, tmp_path):
        series, placements = synthesize_traffic(seed=3, n_sbs=40, grid_side=7, correlation_length_m=300.0, n_days=2)
        cfg = self.milan_config(tmp_path, series, placements, n_sbs=41)
        with pytest.raises(DataFormatError, match="has 40 SBSs, config asks for 41"):
            build_dataset(cfg)


    @staticmethod
    def assert_evaluated_slots_of(data, series, cfg):
        """``data`` holds the evaluated slots of ``series``' ``daily_average`` and last day, bit for bit."""
        slots = list(cfg.eval_slots())
        day = daily_average(series).loads[:, slots]
        last_day = series.loads[:, -series.slots_per_day :][:, slots]
        assert np.array_equal(data.loads.view(np.int64), day.view(np.int64))
        assert np.array_equal(data.history.view(np.int64), last_day.view(np.int64))

    STRIDES = (1, 12, 144)  # the whole day, 12 slots, one slot

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_blocks_match_full_series_bit_for_bit(self, seed):
        # A strided selection of a few of the 144 slots folds its days in
        # day order, as the full-width mean does, not pairwise.
        sizes = (10, SYNTH_BLOCK_ROWS, 2 * SYNTH_BLOCK_ROWS + 22)  # below, one, not a multiple
        for n_sbs in sizes:
            for n_days in (1, 2, 30):
                cfg = small_config(n_sbs=n_sbs, n_days=n_days, grid_side=20, base_seed=seed)
                series, placements = synthesize_traffic(
                    seed=seed, n_sbs=n_sbs, grid_side=cfg.grid_side,
                    correlation_length_m=cfg.correlation_length_m, n_days=n_days,
                    n_bumps=cfg.n_field_bumps, noise_std=cfg.noise_std, field_floor=cfg.field_floor,
                )
                for stride in self.STRIDES:
                    cfg = dataclasses.replace(cfg, slot_stride=stride)
                    data = build_dataset(cfg)
                    self.assert_evaluated_slots_of(data, series, cfg)
                    assert np.array_equal(data.positions, positions_array(placements, n_sbs))

    @pytest.mark.parametrize("n_days", [1, 2, 30])
    def test_milan_source_matches_full_series_bit_for_bit(self, tmp_path, n_days):
        series, placements = synthesize_traffic(
            seed=n_days, n_sbs=12, grid_side=7, correlation_length_m=300.0, n_days=n_days
        )
        cfg = self.milan_config(tmp_path, series, placements, n_days=n_days)
        assert np.array_equal(read_loads_csv(cfg.loads_csv).loads, series.loads)  # repr round-trips
        for stride in self.STRIDES:
            cfg = dataclasses.replace(cfg, slot_stride=stride)
            self.assert_evaluated_slots_of(build_dataset(cfg), series, cfg)

    @pytest.mark.parametrize("noise_std", [float("inf"), float("nan"), -0.1])
    def test_non_finite_or_negative_noise_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            build_dataset(small_config(noise_std=noise_std))

    @pytest.mark.parametrize("slots_per_day, slot_minutes", [(48, 30), (24, 60)])
    def test_synthetic_day_follows_slots_per_day(self, slots_per_day, slot_minutes):
        cfg = desk_profile(slots_per_day=slots_per_day, slot_minutes=slot_minutes, slot_stride=1)
        data = build_dataset(cfg)
        assert data.loads.shape == data.history.shape == (100, slots_per_day)
        # the day's shape, not its first hours: the evening peak is in the day
        assert data.loads.mean(axis=0).argmax() > slots_per_day // 2

    def test_never_holds_the_multi_day_series(self):
        # numpy reports its buffers to tracemalloc. A 2000 x 30-day series
        # of 10-minute slots is 69 MB; the build may peak at half of it.
        cfg = paper_profile(n_sbs=2000)
        series_bytes = cfg.n_sbs * cfg.n_days * cfg.slots_per_day * 8
        tracemalloc.start()
        try:
            build_dataset(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < series_bytes / 2

    def test_paper_build_holds_little_beyond_its_output(self):
        # The day and history are the output; the field, the row-block
        # buffer and the positions must fit in 4 MB more (18.6 MB in all
        # when the build copied the day and built a block-sized field).
        cfg = paper_profile(n_days=2)
        output_bytes = 2 * cfg.n_sbs * cfg.slots_per_day * 8
        tracemalloc.start()
        try:
            data = build_dataset(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.loads.nbytes + data.history.nbytes == output_bytes
        assert peak < output_bytes + 4e6

    def test_one_slot_paper_build_holds_little_beyond_its_block_buffer(self):
        # At slot_stride 144 the output is one column of 5000 SBSs. The
        # 64-row block buffer of all 30 x 144 slots (2.2 MB) is drawn whole;
        # the positions and the field fit in 3 MB more (16.4 MB when the
        # build folded all 144 slots and kept the full day).
        cfg = paper_profile(slot_stride=144)
        buffer_bytes = SYNTH_BLOCK_ROWS * cfg.n_days * cfg.slots_per_day * 8
        tracemalloc.start()
        try:
            data = build_dataset(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.loads.shape == data.history.shape == (cfg.n_sbs, 1)
        assert peak < buffer_bytes + 3e6


class TestErrorSweep:
    def test_deterministic_and_sane(self):
        cfg = small_config()
        points = neighbors_axis("distance", [2, 5], weighting=1) + layers_axis([1, 2])
        a = run_error_sweep(cfg, points)
        b = run_error_sweep(cfg, points)
        assert a.csv_text() == b.csv_text()
        for p in a.points:
            per_iter = p.per_iteration["mean_error"]
            assert min(per_iter) - 1e-12 <= p.metrics["mean_error"] <= max(per_iter) + 1e-12
            assert p.metrics["n_included"] > 0

    def test_counts_cover_every_sleeper_of_every_slot(self, monkeypatch):
        # Runs of one iteration, each in slot batches of 3 and 1: every point
        # counts each sleeper of each iteration's 4 slots once.
        monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", 90)
        cfg = small_config()
        points = neighbors_axis("distance", [2, 5], weighting=1) + layers_axis([1, 2])
        points += neighbors_axis("random", [3], weighting=1)
        report = run_error_sweep(cfg, points)
        counts = {(p.metrics["n_included"], p.metrics["n_excluded"]) for p in report.points}
        assert len(counts) == 1
        included, excluded = counts.pop()
        assert included + excluded == cfg.n_iterations * len(cfg.eval_slots()) * cfg.n_sleepers

    def test_error_run_returns_arrays_that_own_their_memory(self, monkeypatch):
        # A view would keep its whole base (a cumsum over every slot) alive
        # for as long as the sweep holds the task's result.
        monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", 180)  # slot batches of 3 and 1
        cfg = small_config(n_iterations=2)
        plan = experiments._plan_points(neighbors_axis("distance", [2], weighting=1) + layers_axis([1, 2]))
        experiments._init_worker(cfg, plan, {cfg.n_sbs: cfg.base_seed})
        try:
            sums, counts = experiments._error_run((0, 2))
        finally:
            experiments._STATE.clear()
        assert sums.shape == (3, 2) and counts.shape == (2, 2)
        assert sums.base is None and counts.base is None

    def test_mlc_layer_sharing_matches_direct_runs(self):
        cfg = small_config(n_iterations=2)
        report = run_error_sweep(cfg, layers_axis([1, 3]))
        data = build_dataset(cfg)
        for idx, layers in enumerate((1, 3)):
            direct_sum, direct_n = 0.0, 0
            for iteration in range(cfg.n_iterations):
                rng = np.random.default_rng(cfg.base_seed + iteration)
                sleepers = np.sort(rng.permutation(cfg.n_sbs)[: cfg.n_sleepers])
                for col, _ in enumerate(cfg.eval_slots()):
                    snap, actual = mask_sleepers(data.loads[:, col], sleepers)
                    res = estimate(  # MLC reads no placements
                        MlcConfig(layers=layers), snap, (), data.history[:, col]
                    )
                    rel = np.abs(actual[sleepers] - res.estimates) / actual[sleepers]
                    keep = actual[sleepers] >= cfg.epsilon
                    direct_sum += rel[keep].sum()
                    direct_n += int(keep.sum())
            assert report.points[idx].metrics["mean_error"] == pytest.approx(
                direct_sum / direct_n, rel=1e-12
            )

    def test_worker_count_does_not_change_csv(self):
        cfg = small_config(n_iterations=4)
        points = neighbors_axis("distance", [3], weighting=2)
        serial = run_error_sweep(cfg, points, workers=1)
        parallel = run_error_sweep(cfg, points, workers=2)
        assert serial.csv_text() == parallel.csv_text()

    def test_random_axis_runs(self):
        cfg = small_config(n_iterations=3)
        points = neighbors_axis("random", [4], weighting=1) + neighbors_axis("random", [4], weighting=5)
        report = run_error_sweep(cfg, points)
        assert len(report.points) == 2
        assert all(np.isfinite(p.metrics["mean_error"]) for p in report.points)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_error_sweep(small_config(), [])

    def test_repeated_point_rejected_before_any_task(self, monkeypatch):
        # A repeated point used to write its row twice.
        monkeypatch.setattr(experiments, "_map_iterations", None)  # no task may start
        labels = {"estimator": "distance", "neighbors": 5, "exponent": 1, "layers": None}
        with pytest.raises(GridError, match=f"^points: {re.escape(str(labels))} is repeated$"):
            run_error_sweep(small_config(), neighbors_axis("distance", [5, 5], weighting=1))
        points = layers_axis([2]) + layers_axis([2], k_override=3)  # two rows the CSV cannot tell apart
        with pytest.raises(GridError, match="is repeated$"):
            run_error_sweep(small_config(), points)

    # sha256 of desk fig2 and fig3 error-sweep CSV text (3 iterations x 12
    # slots, the figures' default grids), re-recorded when every study sum
    # moved to one written left-to-right order (each value moved by under
    # 1e-13 relative). fig3 runs with elbow-selected k and with k = 3.
    PINNED = {
        ("fig2", None): "362c4bc40f3ead47273894148a6ebf558c74a8eb619fae381ffbc2233ade8a3f",
        ("fig3", None): "ad430d65685b6714667bada845303a4a9d2731504e9c42231c84e188ea5a077c",
        ("fig3", 3): "3cbd8b5001f55425bf2f1653d4045fbea88a7039bae82ed17977b8c0c88f9113",
    }

    @pytest.mark.parametrize("experiment, k_override", list(PINNED))
    def test_csv_bytes_pinned(self, experiment, k_override):
        report = run_figure(experiment, desk_profile(n_iterations=3, mlc_k_override=k_override))
        assert hashlib.sha256(report.csv_text().encode()).hexdigest() == self.PINNED[(experiment, k_override)]

    def test_csv_bytes_do_not_depend_on_runs_or_workers(self, monkeypatch):
        # Desk fig3 over 3 iterations x 12 slots of 100 SBSs (1200 SBS x slot
        # rows per iteration): one run of every iteration, runs of 2 and 1,
        # runs of one iteration in slot batches of 5, 5 and 2, and two
        # workers give the pinned bytes. Each MLC call gets iterations x slots.
        cfg = desk_profile(n_iterations=3)
        rows = []
        mlc_layers = experiments.mlc_layers

        def recorded(loads, history, known_mask, config):
            rows.append(loads.shape[0])
            return mlc_layers(loads, history, known_mask, config)

        monkeypatch.setattr(experiments, "mlc_layers", recorded)
        for cap, calls in ((1 << 15, [36]), (2400, [24, 12]), (500, [5, 5, 2] * 3)):
            rows.clear()
            monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", cap)
            csv = run_figure("fig3", cfg).csv_text()
            assert hashlib.sha256(csv.encode()).hexdigest() == self.PINNED[("fig3", None)]
            assert rows == calls
        monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", 1 << 15)
        assert run_figure("fig3", cfg, workers=2).csv_text() == csv

    def test_estimator_precondition_aborts_with_context(self):
        # 30 SBSs, 3 sleeping -> 27 active; asking for 28 neighbors must
        # abort and say where.
        cfg = small_config(n_iterations=1)
        with pytest.raises(ValueError, match="iteration 0, slot 0, estimator distance"):
            run_error_sweep(cfg, neighbors_axis("distance", [28], weighting=1))

    @pytest.mark.parametrize("points", [
        layers_axis([1]), neighbors_axis("distance", [1]), neighbors_axis("random", [1], weighting=1),
    ])
    def test_every_sbs_asleep_aborts_with_context(self, points):
        # 2 SBSs at sleep fraction 0.9 -> both sleep; no estimator may run.
        cfg = desk_profile(n_sbs=2, grid_side=2, sleep_fraction=0.9, n_iterations=1)
        msg = "iteration 0, slot 0: cannot mask every SBS: nothing left to interpolate from"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            run_error_sweep(cfg, points)

    def test_all_sleepers_below_epsilon_aborts_with_context(self):
        cfg = desk_profile(n_iterations=1, epsilon=2.0)
        msg = "iteration 0, slot 0: all 10 sleepers fall below epsilon=2.0; error undefined"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            run_error_sweep(cfg, layers_axis([1]))

    def test_undefined_error_names_its_slot(self):
        # epsilon just above the quietest evaluation slot's largest sleeper
        # load leaves that slot alone with no included sleeper.
        cfg = desk_profile(n_iterations=1)
        slots = list(cfg.eval_slots())
        sleepers = experiments._draw_sleepers(cfg, 0, cfg.n_sbs)
        top = build_dataset(cfg).loads[sleepers].max(axis=0)
        cfg = desk_profile(n_iterations=1, epsilon=float(np.nextafter(top.min(), 1.0)))
        msg = f"iteration 0, slot {slots[int(np.argmin(top))]}: all {sleepers.size} sleepers fall below"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}"):
            run_error_sweep(cfg, layers_axis([1]) + neighbors_axis("distance", [1]))

    def test_undefined_error_in_a_later_iteration_of_a_run_names_it(self):
        # Two iterations of desk fig3 share one run. Epsilon just above the
        # lowest slot maximum of iteration 1's sleepers, and at most iteration
        # 0's lowest, fails iteration 1 alone.
        cfg = desk_profile(n_iterations=2, base_seed=1)
        slots = list(cfg.eval_slots())
        assert experiments._iteration_runs(2, cfg.n_sbs * len(slots), 1) == [(0, 2)]
        loads = build_dataset(cfg).loads
        top = [loads[experiments._draw_sleepers(cfg, i, cfg.n_sbs)].max(axis=0) for i in (0, 1)]
        epsilon = float(np.nextafter(top[1].min(), 1.0))
        assert epsilon <= top[0].min()
        cfg = desk_profile(n_iterations=2, base_seed=1, epsilon=epsilon)
        msg = f"iteration 1, slot {slots[int(np.argmin(top[1]))]}: all 10 sleepers fall below"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}"):
            run_error_sweep(cfg, layers_axis([1]) + neighbors_axis("random", [1]))


class TestSwitchingSweeps:
    def test_perfect_baseline_is_exactly_zero(self, monkeypatch):
        # Both sweep families, on loose tiers and on tiers at 0.95 base load
        # (exhaustive at s = 10, greedy at s = 100): in every iteration the
        # perfect estimates deploy the actual optimum at its own power. A
        # switching run returns one row per MLC depth and the actual powers
        # that the report's perfect point is built from.
        runs = []
        switch_run = experiments._switch_run

        def recorded(task):
            runs.append((task, switch_run(task)))
            return runs[-1][1]

        monkeypatch.setattr(experiments, "_switch_run", recorded)
        tight = desk_profile(
            n_iterations=4, slot_stride=36, mlc_k_override=3, base_mbs_load=0.95, base_haps_load=0.95
        )
        for cfg, s_values in ((small_config(n_iterations=4, sleep_fraction=0.25), [6, 10]), (tight, [10, 100])):
            for run in (run_decision_sweep, run_power_sweep):
                runs.clear()
                report = run(cfg, s_values=s_values, l_values=[1, 2])
                assert [s for (s, _, _), _ in runs] == s_values  # one run of all 4 iterations per size
                for (s, _, _), (powers, rows) in runs:
                    assert rows.shape == (4, 2, 5)
                    at_s = [p for p in report.points if p.labels["n_sbs"] == s]
                    assert [p.labels["estimator"] for p in at_s] == ["perfect", "mlc", "mlc"]
                    assert all(p.per_iteration["power_actual_w"] == powers.tolist() for p in at_s)
                for p in report.points:
                    if p.labels["estimator"] == "perfect":
                        assert p.metrics["decision_change_rate"] == 0.0
                        assert p.metrics["gap_w"] == 0.0
                        assert all(g == 0.0 for g in p.per_iteration["gap_w"])
                        assert all(p.per_iteration["deployed_feasible"])
                        assert p.metrics["power_deployed_w"] == p.metrics["power_actual_w"]
                        assert p.metrics["power_estimated_naive_w"] == p.metrics["power_actual_w"]

    def test_gap_never_negative_and_optimizer_labels(self):
        cfg = small_config(n_iterations=4, sleep_fraction=0.25, exhaustive_cap=8)
        report = run_power_sweep(cfg, s_values=[6, 10], l_values=[1])
        for p in report.points:
            expected = "exhaustive" if p.labels["n_sbs"] <= 8 else "greedy"
            assert p.labels["optimizer"] == expected
            assert min(p.per_iteration["gap_w"]) >= -1e-9

    def test_decision_sweep_deterministic(self):
        cfg = small_config(n_iterations=3, sleep_fraction=0.25)
        a = run_decision_sweep(cfg, [6], [1, 2])
        b = run_decision_sweep(cfg, [6], [1, 2], workers=2)
        assert a.csv_text() == b.csv_text()

    def test_csv_bytes_do_not_depend_on_runs_or_workers(self, monkeypatch):
        # Exhaustive (s=10) and greedy (s=40) sizes over the full L grid: one
        # run per size, runs of at most 2 and 1 iterations, and two workers
        # give the same fig4 and fig5 bytes.
        cfg = desk_profile(n_iterations=5, slot_stride=36, mlc_k_override=3)
        sizes, depths = (10, 40), tuple(range(1, 8))

        def csvs(workers=1):
            return tuple(
                run(cfg, sizes, depths, workers=workers).csv_text()
                for run in (run_decision_sweep, run_power_sweep)
            )

        rows = []
        mlc_layers = experiments.mlc_layers

        def recorded(loads, history, known_mask, config):
            rows.append(loads.shape[0])
            return mlc_layers(loads, history, known_mask, config)

        monkeypatch.setattr(experiments, "mlc_layers", recorded)
        whole = csvs()
        assert rows == [5, 5] * 2
        rows.clear()
        monkeypatch.setattr(experiments, "_MLC_BATCH_ROWS", 25)
        assert csvs() == whole
        assert rows == [2, 2, 1, 1, 1, 1, 1, 1] * 2
        assert csvs(workers=2) == whole

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            run_decision_sweep(small_config(), [1], [1])

    @pytest.mark.parametrize("run", [run_decision_sweep, run_power_sweep])
    def test_repeated_size_rejected(self, run):
        with pytest.raises(GridError, match="^s_values: 6 is repeated$"):
            run(small_config(n_iterations=2), [6, 10, 6], [1])

    @pytest.mark.parametrize("run", [run_decision_sweep, run_power_sweep])
    def test_repeated_depth_rejected_before_any_task(self, run, monkeypatch):
        # A repeated depth used to write its row twice, e.g. two 6,3,mlc rows.
        monkeypatch.setattr(experiments, "_map_iterations", None)  # no task may start
        with pytest.raises(GridError, match="^l_values: 3 is repeated$"):
            run(desk_profile(n_iterations=2), [6], [3, 3])

    @pytest.mark.parametrize("layers", [0, -1])
    def test_depth_below_one_rejected_before_any_task(self, layers, monkeypatch):
        # A run reads depth L at index L - 1 of the deepest run's layers, so
        # depth 0 or -1 used to write a row holding another depth's numbers.
        monkeypatch.setattr(experiments, "_map_iterations", None)  # no task may start
        with pytest.raises(ValueError, match=f"^l_values: layers must be >= 1, got {layers}$"):
            run_power_sweep(small_config(n_iterations=2), [6], [layers, 3])

    def test_every_sbs_asleep_names_the_size(self):
        # 2 SBSs at sleep fraction 0.9 -> both sleep at size 2.
        cfg = desk_profile(sleep_fraction=0.9, n_iterations=2)
        msg = "n_sbs 2: cannot mask every SBS: nothing left to interpolate from"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            run_decision_sweep(cfg, s_values=[2], l_values=[1])

    @pytest.mark.parametrize("sweep, msg", [
        (
            lambda workers: run_error_sweep(
                small_config(n_iterations=2), neighbors_axis("distance", [28], weighting=1), workers=workers
            ),
            "iteration 0, slot 0, estimator distance, neighbors 28: "
            "requested 28 neighbors but only 27 SBSs are active",
        ),
        (
            lambda workers: run_power_sweep(
                desk_profile(sleep_fraction=0.9, n_iterations=2), [10, 2], [1], workers=workers
            ),
            "n_sbs 2: cannot mask every SBS: nothing left to interpolate from",
        ),
    ], ids=["error", "switching"])
    def test_preconditions_fail_before_a_pool_exists(self, sweep, msg, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            sweep(workers=2)

    def test_pool_has_at_most_one_worker_per_task(self, monkeypatch):
        # Two iterations make two tasks; an idle third or fourth worker would
        # still build the data.
        sizes = []
        pool = experiments.ProcessPoolExecutor

        def recorded(*args, max_workers, **kwargs):
            sizes.append(max_workers)
            return pool(*args, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", recorded)
        cfg, points = small_config(n_iterations=2), neighbors_axis("distance", [3], weighting=1)
        assert run_error_sweep(cfg, points, workers=4).csv_text() == run_error_sweep(cfg, points).csv_text()
        assert sizes == [2]

    def test_worker_setup_error_is_raised_by_every_task(self, monkeypatch):
        # Raised by a pool's initializer, the error would break the pool and
        # lose its message; kept, each task raises it instead of running.
        error = ValueError("the data cannot be built")

        def broken(*args, **kwargs):
            raise error

        def never(task):
            raise AssertionError("a task ran without its data")

        monkeypatch.setattr(experiments, "build_dataset", broken)
        try:
            experiments._init_pool_worker(small_config(), None, {30: 7})
            for task in range(3):
                with pytest.raises(ValueError) as raised:
                    experiments._pool_task(never, task)
                assert raised.value is error
        finally:
            experiments._STATE.clear()

    # sha256 of the fig4/fig5 CSV text, recorded before the switching state
    # became an int8 code array. Base loads 0.2 run the exhaustive (s=10, 14)
    # and greedy (s=100) paths; base loads 0.95 make the tiers bind, which
    # reaches the offload-assignment search and one deployed decision that is
    # infeasible at the actual loads.
    PINNED = {
        (0.2, (10, 14, 100)): (
            "fa9ac96e42886040af301186a15cd17f18b6ea184e9f24b3fed2cb2f9954c816",
            "bab012de0a9bfc9df8feea663204d19ef91096547b3e05b0b7e215486818c8d5",
        ),
        (0.95, (10, 100)): (
            "72808bd836a76e412e078ee066023f9dff8bf24652c7f9e9eb04b18986944ff6",
            "6857ed548eb6078137edf0b4b916f1c107479c96eaf2c3ed3ad2eb53fe5052c4",
        ),
    }

    @pytest.mark.parametrize("base_load, s_values", list(PINNED))
    def test_csv_bytes_pinned(self, base_load, s_values, monkeypatch):
        assign = switching._assign_offloads
        calls = []

        def counted(*args):
            calls.append(1)
            return assign(*args)

        monkeypatch.setattr(switching, "_assign_offloads", counted)
        optimize, solves = experiments.optimize, []

        def counted_optimize(*args, **kwargs):
            solves.append(1)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(experiments, "optimize", counted_optimize)
        cfg = desk_profile(
            n_iterations=4, slot_stride=36, mlc_k_override=3,
            base_mbs_load=base_load, base_haps_load=base_load,
        )
        decision, power = (run_figure(fig, cfg, s_values=s_values, l_values=(1, 3)) for fig in ("fig4", "fig5"))
        digests = tuple(
            hashlib.sha256(r.csv_text().encode()).hexdigest() for r in (decision, power)
        )
        assert digests == self.PINNED[(base_load, s_values)]
        # Per iteration: the actual loads and each MLC depth; the perfect
        # estimates' decision is the actual optimum, not solved again.
        assert len(solves) == 2 * len(s_values) * cfg.n_iterations * (1 + 2)
        tight = base_load == 0.95
        assert bool(calls) == tight
        assert sum(power.metadata["deployed_infeasible_per_point"]) == int(tight)

    # sha256 of the fig5 CSV text on a 60-SBS loads CSV, recorded before both
    # sweep families shared one worker initializer.
    MILAN_FIG5_SHA256 = "141809d4c64fc56b685bfe73c4d2fa428f8dc5106c89d6a8d624b00f1e91c406"

    def test_milan_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # fig5 on measured-style data at sizes 6, 10 and 40 (the first s SBSs
        # of the CSV): a worker reads the CSV once for every size, and two
        # workers give the same bytes. Relative paths keep the config hash,
        # and so the bytes, independent of tmp_path.
        series, placements = synthesize_traffic(
            seed=11, n_sbs=60, grid_side=10, correlation_length_m=700.0, n_days=2
        )
        monkeypatch.chdir(tmp_path)
        write_loads_csv(series, "loads.csv")
        write_placements_json(placements, "placements.json", grid_side=10)
        cfg = desk_profile(
            data_source="milan", loads_csv="loads.csv", placements_json="placements.json",
            n_sbs=60, n_days=2, n_iterations=4, mlc_k_override=3,
        )
        reads = []
        read_loads_csv = experiments.read_loads_csv

        def counted(*args, **kwargs):
            reads.append(1)
            return read_loads_csv(*args, **kwargs)

        monkeypatch.setattr(experiments, "read_loads_csv", counted)
        csv = run_figure("fig5", cfg, s_values=(6, 10, 40)).csv_text()  # L = 1..7
        assert len(reads) == 1
        assert hashlib.sha256(csv.encode()).hexdigest() == self.MILAN_FIG5_SHA256
        assert run_figure("fig5", cfg, s_values=(6, 10, 40), workers=2).csv_text() == csv

    def test_milan_placements_are_taken_by_id_not_file_order(self, tmp_path, monkeypatch):
        # A size below the network's takes SBSs 0..s-1, wherever the
        # placements file lists them: reversed, its first 10 are ids 59..50.
        series, placements = synthesize_traffic(
            seed=5, n_sbs=60, grid_side=10, correlation_length_m=700.0, n_days=2
        )
        monkeypatch.chdir(tmp_path)
        write_loads_csv(series, "loads.csv")
        csv = {}
        for name, listed in (("ordered", placements), ("reversed", placements[::-1])):
            write_placements_json(listed, "placements.json", grid_side=10)
            cfg = desk_profile(
                data_source="milan", loads_csv="loads.csv", placements_json="placements.json",
                n_sbs=60, n_days=2, n_iterations=2, mlc_k_override=3,
            )
            csv[name] = run_power_sweep(cfg, (10, 60), (1, 2)).csv_text()
        assert csv["reversed"] == csv["ordered"]


class TestFigures:
    """One definition per figure: its sweep, its grids' defaults and their checks."""

    def points(self, figure, config, **grids):
        return experiments._figure(figure, config, **grids)[1][0]

    def test_default_error_grids(self):
        # At desk (90 active SBSs) every N of the grid stays; perfbench's copy
        # of the grid is checked in test_benchmark_grids.
        desk, n_grid = desk_profile(), experiments._N_GRID
        fig2 = [(p["exponent"], p["neighbors"]) for p, _ in self.points("fig2", desk)]
        assert fig2 == [(e, n) for e in (1, 3, 5, 10) for n in n_grid]
        fig3 = [(p["estimator"], p["layers"] or p["neighbors"], p["exponent"]) for p, _ in self.points("fig3", desk)]
        assert fig3[:7] == [("mlc", layers, None) for layers in range(1, 8)]
        assert fig3[7:] == [(kind, n, n_exp) for kind, n_exp in (("distance", None), ("random", 1)) for n in n_grid]
        assert {cfg.k_override for _, cfg in self.points("fig3", paper_profile())[:7]} == {3}

    def test_default_n_grid_keeps_n_below_the_active_count(self):
        # 16 SBSs, 2 asleep: 14 active, so N = 20 and above drop out.
        cfg = desk_profile(n_sbs=16, grid_side=4)
        assert cfg.n_sleepers == 2
        assert [p["neighbors"] for p, _ in self.points("fig2", cfg, exponents=[1])] == [1, 5, 10]

    @pytest.mark.parametrize("profile, sizes", [(desk_profile, [6, 10, 14]), (paper_profile, [10, 30, 50, 70])])
    @pytest.mark.parametrize("figure, sweep", [("fig4", "run_decision_sweep"), ("fig5", "run_power_sweep")])
    def test_default_switching_grids_by_profile(self, profile, sizes, figure, sweep):
        run, args = experiments._figure(figure, profile())
        assert run is getattr(experiments, sweep)
        assert args == (sizes, list(range(1, 8)))

    def test_report_is_named_after_the_figure(self):
        cfg = small_config(n_iterations=2, sleep_fraction=0.25)
        report = run_figure("fig4", cfg, s_values=[6], l_values=[1], workers=1)
        assert report.experiment == "fig4" and report.metadata["workers"] == 1
        assert report.csv_text() == run_decision_sweep(cfg, [6], [1]).csv_text()

    @pytest.mark.parametrize("grids, message", [
        ({"l_values": []}, "l_values: no values"),
        ({"n_values": [5, 0]}, "n_values: neighbor count must be >= 1, got 0"),
        ({"exponents": [3, 1, 3]}, "exponents: 3 is repeated"),
        ({"s_values": [1]}, "s_values: switching sweeps need n_sbs >= 2 per point, got 1"),
    ])
    def test_bad_override_rejected_before_any_task_even_off_the_figure(self, grids, message, monkeypatch):
        monkeypatch.setattr(experiments, "_map_iterations", None)  # no task may start
        for figure in experiments.FIGURES:
            with pytest.raises(GridError, match=f"^{message}$") as raised:
                run_figure(figure, small_config(), **grids)
            assert raised.value.grid == next(iter(grids))  # what the CLI names as the flag

    def test_spawned_workers_give_the_one_worker_bytes(self, monkeypatch):
        # Python 3.14 makes forkserver the default start method on Linux: a
        # worker that spawns imports everything afresh and inherits no state.
        spawn = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        cfgs = {"fig3": desk_profile(n_iterations=3), "fig4": desk_profile(n_iterations=4, mlc_k_override=3)}
        serial = {figure: run_figure(figure, cfg).csv_text() for figure, cfg in cfgs.items()}
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", spawn)
        for figure, cfg in cfgs.items():
            assert run_figure(figure, cfg, workers=2).csv_text() == serial[figure]

    def test_unknown_figure_or_grid_rejected(self):
        with pytest.raises(ValueError, match="unknown figure 'fig9'"):
            run_figure("fig9", small_config())
        with pytest.raises(TypeError, match="unknown grid 'k_values'"):
            run_figure("fig2", small_config(), k_values=[1])


class TestMoments:
    """Every pooled report number adds left to right (``_moments``)."""

    def test_matches_a_python_loop(self, rng):
        for n in (1, 2, 7, 8, 9, 130, 300):
            values = rng.uniform(0.0, 1.0, (3, n)) * 10.0 ** rng.integers(-3, 4, (3, n))
            for row, total, mean, std in zip(values, *experiments._moments(values)):
                ref = 0.0
                for v in row.tolist():
                    ref += v
                squares = 0.0
                for v in row.tolist():
                    squares += (v - ref / n) * (v - ref / n)
                assert (total, mean, std) == (ref, ref / n, math.sqrt(squares / n)), n

    def test_no_values(self):
        total, mean, std = experiments._moments(np.empty((2, 0)))
        assert total.tolist() == [0.0, 0.0] and np.isnan(mean).all() and np.isnan(std).all()


class TestReports:
    def test_write_report_files(self, tmp_path):
        cfg = small_config(n_iterations=2)
        report = run_error_sweep(cfg, neighbors_axis("distance", [2]))
        csv_path, json_path = write_report(report, tmp_path)
        assert csv_path.name == report_basename("error_sweep", "test", 7) + ".csv"
        text = csv_path.read_text()
        assert text.splitlines()[0] == f"# config_hash={report.config_hash}"
        assert text.splitlines()[1].startswith("estimator,neighbors,")
        assert json_path.exists()
        assert report.to_json_dict() == dataclasses.asdict(report)

    def test_axis_builders_reject_unknown_kind(self):
        with pytest.raises(ValueError):
            neighbors_axis("kriging", [1])
