import hashlib

import numpy as np
import pytest

from cellsleep import switching
from cellsleep.config import ExperimentConfig, config_hash, desk_profile, paper_profile
from cellsleep.dataio import write_loads_csv, write_placements_json
from cellsleep.errors import ConfigError
from cellsleep.estimators import MlcConfig, estimate
from cellsleep.experiments import (
    build_dataset,
    exponent_axis,
    layers_axis,
    neighbors_axis,
    report_basename,
    run_decision_sweep,
    run_error_sweep,
    run_power_sweep,
    write_report,
)
from cellsleep.traffic import mask_sleepers, synthesize_traffic


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


class TestBuildDataset:
    def test_shapes_and_determinism(self):
        cfg = small_config()
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert a.day.loads.shape == (30, 144)
        assert a.history.shape == (30, 144)
        assert a.history.base is None  # a copy: a view would pin all 3 days
        assert a.day.loads.tobytes() == b.day.loads.tobytes()
        assert len(a.placements) == 30

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
        assert data.day.loads.shape == (12, 144)
        assert np.allclose(
            data.history, series.loads[:, 144:], atol=1e-15
        )  # history = last raw day


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

    def test_mlc_layer_sharing_matches_direct_runs(self):
        cfg = small_config(n_iterations=2)
        report = run_error_sweep(cfg, layers_axis([1, 3]))
        data = build_dataset(cfg)
        for idx, layers in enumerate((1, 3)):
            direct_sum, direct_n = 0.0, 0
            for iteration in range(cfg.n_iterations):
                rng = np.random.default_rng(cfg.base_seed + iteration)
                sleepers = np.sort(rng.permutation(cfg.n_sbs)[: cfg.n_sleepers])
                for slot in cfg.eval_slots():
                    snap, actual = mask_sleepers(data.day.loads[:, slot], sleepers)
                    res = estimate(
                        MlcConfig(layers=layers), snap, data.placements, data.history[:, slot]
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
        report = run_error_sweep(cfg, exponent_axis("random", 4, [1, 5]))
        assert len(report.points) == 2
        assert all(np.isfinite(p.metrics["mean_error"]) for p in report.points)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_error_sweep(small_config(), [])

    def test_estimator_precondition_aborts_with_context(self):
        # 30 SBSs, 3 sleeping -> 27 active; asking for 28 neighbors must
        # abort and say where.
        cfg = small_config(n_iterations=1)
        with pytest.raises(ValueError, match="iteration 0, slot 0, estimator distance"):
            run_error_sweep(cfg, neighbors_axis("distance", [28], weighting=1))


class TestSwitchingSweeps:
    def test_perfect_baseline_is_exactly_zero(self):
        cfg = small_config(n_iterations=4, sleep_fraction=0.25)
        report = run_decision_sweep(cfg, s_values=[6, 10], l_values=[1, 2])
        for p in report.points:
            if p.labels["estimator"] == "perfect":
                assert p.metrics["decision_change_rate"] == 0.0
                assert p.metrics["gap_w"] == 0.0
                assert all(g == 0.0 for g in p.per_iteration["gap_w"])

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

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            run_decision_sweep(small_config(), [1], [1])

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
        cfg = desk_profile(
            n_iterations=4, slot_stride=36, mlc_k_override=3,
            base_mbs_load=base_load, base_haps_load=base_load,
        )
        decision = run_decision_sweep(cfg, s_values, (1, 3))
        power = run_power_sweep(cfg, s_values, (1, 3))
        digests = tuple(
            hashlib.sha256(r.csv_text().encode()).hexdigest() for r in (decision, power)
        )
        assert digests == self.PINNED[(base_load, s_values)]
        tight = base_load == 0.95
        assert bool(calls) == tight
        assert sum(power.metadata["deployed_infeasible_per_point"]) == int(tight)


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

    def test_axis_builders_reject_unknown_kind(self):
        with pytest.raises(ValueError):
            neighbors_axis("kriging", [1])
        with pytest.raises(ValueError):
            exponent_axis("mlc", 2, [1])
