import hashlib
import json

import numpy as np
import pytest

from cellsleep.cli import build_parser, main
from cellsleep.config import config_from_dict, desk_profile
from cellsleep.dataio import read_loads_csv, read_placements_json
from cellsleep.estimators import MlcConfig
from cellsleep.estimators.mlc import mlc_estimate
from cellsleep.experiments import run_figure, write_report
from cellsleep.traffic import mask_sleepers


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        "synth", "--out", out, "--seed", 5, "--n-sbs", 16, "--grid-side", 4, "--days", 2
    )
    assert code == 0
    return out


MILAN_SAMPLE = "\n".join(
    [
        "1\t0\t39\t1\t1\t1\t1\t1",
        "1\t0\t40\t2\t0\t0\t0\t0",  # duplicate cell, different country
        "2\t0\t39\t0\t0\t0\t0\t4",
        "1\t600000\t39\t0.5\t0.5\t0.5\t0.5\t0.5",
        "2\t600000\t39\t\t\t\t\t1",
        "garbage line",
    ]
)


class TestSynth:
    def test_outputs_exist_and_reproduce(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--out", a, "--seed", 9, "--n-sbs", 9, "--grid-side", 3) == 0
        assert run_cli("synth", "--out", b, "--seed", 9, "--n-sbs", 9, "--grid-side", 3) == 0
        assert (a / "loads.csv").read_text() == (b / "loads.csv").read_text()
        assert (a / "placements.json").read_text() == (b / "placements.json").read_text()
        series = read_loads_csv(a / "loads.csv")
        assert series.loads.min() >= 0.0 and series.loads.max() <= 1.0

    def test_defaults_are_the_desk_profile(self):
        args = build_parser().parse_args(["synth"])
        desk = desk_profile()
        assert (args.n_sbs, args.grid_side, args.correlation_length, args.days,
                args.noise_std, args.field_floor, args.bumps) == (
            desk.n_sbs, desk.grid_side, desk.correlation_length_m, desk.n_days,
            desk.noise_std, desk.field_floor, desk.n_field_bumps)

    # sha256 of the synth output files, recorded before the loads were
    # generated in row blocks.
    PINNED = {
        3: ("50956be2ee8d946fe87ee0f7fbbd255906efaf30d4c4716c4637bbb364500fd7",
            "1552d11ae7112b963e1d9fcadc54f5134499224216000bf8807c8ebac1862bd4"),
        11: ("f5f4e9b5c92ccd47328dfa76f9bc8b5e5eba3dbf1bfc3445fa9ffb306f34ddc2",
             "3c7ad5f6838b3b14d20ac09a44102469c096ca2d010ecc6e134a4faf528e2ab6"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_output_bytes_pinned(self, tmp_path, seed):
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, "--seed", seed, "--n-sbs", 50, "--grid-side", 10,
                       "--days", 3) == 0
        digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                        for f in ("loads.csv", "placements.json"))
        assert digests == self.PINNED[seed]

    @pytest.mark.parametrize("noise_std", ["inf", "nan", "-0.1"])
    def test_bad_noise_std_writes_nothing(self, tmp_path, capsys, noise_std):
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, "--noise-std", noise_std) == 2
        assert "noise_std" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--days", 0, "n_days"), ("--days", -2, "n_days"), ("--bumps", -1, "n_bumps"),
    ])
    def test_bad_days_or_bumps_writes_nothing(self, tmp_path, capsys, flag, value, field):
        # The flag is rejected as a usage error before synthesize_traffic's
        # own check of the field would exit 2.
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, flag, value) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= {0 if flag == '--bumps' else 1}, got {value}" in err
        assert field not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--grid-side", -3), ("--grid-side", 0), ("--n-sbs", 0), ("--n-sbs", -4)])
    def test_bad_grid_side_or_n_sbs_is_usage_error(self, tmp_path, capsys, flag, value):
        # --grid-side -3 used to reach numpy and exit 2 with "high - low < 0".
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, "--n-sbs", 4, "--grid-side", 3, flag, value) == 1
        assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_grid_side_in_config_is_data_error_naming_it(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"experiment": {"grid_side": -11}}))
        assert run_cli("sweep", "--experiment", "fig2", "--config", config, "--out", tmp_path / "o") == 2
        assert "grid_side must be >= 1, got -11" in capsys.readouterr().err

    def test_nan_correlation_length_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, "--correlation-length", "nan", "--noise-std", 0,
                       "--n-sbs", 20, "--grid-side", 5) == 2
        assert "correlation_length_m" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli("synth", "--out", out, "--seed", -1, "--n-sbs", 9, "--grid-side", 3) == 1
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_loads_header(self, synth_dir):
        lines = (synth_dir / "loads.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "sbs_id,slot,load"


def thirty_squares_cdr(path):
    """Two 10-minute intervals of Milan-layout records for squares 1..30."""
    path.write_text("".join(
        f"{sq}\t{t * 600000}\t39\t{0.1 * sq}\t1\t{t}\t0\t{sq % 7}\n" for t in range(2) for sq in range(1, 31)
    ))


class TestIngest:
    def test_milan_sample(self, tmp_path):
        src = tmp_path / "cdr.txt"
        src.write_text(MILAN_SAMPLE + "\n")
        out = tmp_path / "ingested"
        assert run_cli("ingest", src, "--out", out, "--grid-side", 100) == 0
        series = read_loads_csv(out / "loads.csv")
        assert series.n_sbs == 2 and series.n_slots == 2
        # square 1 slot 0 combines both country rows: (1+1+1+1+1) + 2 = 7 = global max
        assert series.loads[0, 0] == 1.0
        assert series.loads[1, 0] == pytest.approx(4.0 / 7.0)
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["n_duplicate_records"] == 1
        assert report["files"][str(src)]["n_malformed"] == 1
        placements = read_placements_json(out / "placements.json")
        assert [p.square_id for p in placements] == [1, 2]

    def test_empty_input_is_data_error(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        assert run_cli("ingest", src, "--out", tmp_path / "o") == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("ingest", tmp_path / "nope.txt", "--out", tmp_path / "o") == 2

    def test_non_finite_fields_are_malformed_lines(self, tmp_path):
        src = tmp_path / "cdr.txt"
        src.write_text(MILAN_SAMPLE + "\n2\tinf\t39\t1\n2\t0\t39\tnan\n1\t0\t39\t\t\t\t\tinf\n")
        out = tmp_path / "o"
        assert run_cli("ingest", src, "--out", out) == 0
        report = json.loads((out / "ingest_report.json").read_text())["files"][str(src)]
        assert [lineno for lineno, _ in report["malformed"]] == [6, 7, 8, 9]
        assert read_loads_csv(out / "loads.csv").loads[0, 0] == 1.0  # the sample's cells alone

    def test_non_finite_weight_is_data_error_naming_weights(self, tmp_path, capsys):
        src = tmp_path / "cdr.txt"
        src.write_text(MILAN_SAMPLE + "\n")
        assert run_cli("ingest", src, "--out", tmp_path / "o", "--weights", "nan", 1, 1, 1, 1) == 2
        assert "weights must be finite" in capsys.readouterr().err

    def test_n_sbs_keeps_a_seeded_sorted_draw_of_squares(self, tmp_path):
        src = tmp_path / "cdr.txt"
        thirty_squares_cdr(src)
        kept = sorted(np.random.default_rng(4).permutation(30)[:12].tolist())
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli("ingest", src, "--out", out, "--n-sbs", 12, "--seed", 4) == 0
        placements = read_placements_json(outs[0] / "placements.json")
        assert [p.square_id for p in placements] == [1, 2, 8, 9, 10, 11, 12, 16, 21, 26, 27, 29]
        assert [p.square_id - 1 for p in placements] == kept
        assert read_loads_csv(outs[0] / "loads.csv").n_sbs == 12
        for name in ("loads.csv", "placements.json", "ingest_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_n_sbs_above_the_squares_present_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "cdr.txt"
        thirty_squares_cdr(src)
        assert run_cli("ingest", src, "--out", tmp_path / "o", "--n-sbs", 99) == 2
        assert "asked for 99 SBSs but only 30 squares have data" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--n-sbs", -3), ("--n-sbs", 0), ("--slot-minutes", 0), ("--slot-minutes", -10),
                        ("--slot-minutes", 7), ("--grid-side", 0), ("--grid-side", -3)]
    )
    def test_bad_flag_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, flag, value):
        # The input does not exist: reading it first would exit 2.
        assert run_cli("ingest", tmp_path / "nope.txt", "--out", tmp_path / "o", flag, value) == 1
        assert f"argument {flag}" in capsys.readouterr().err


class TestEstimate:
    def test_zero_sleepers_ok(self, synth_dir, tmp_path):
        out = tmp_path / "est.json"
        code = run_cli(
            "estimate", "--loads", synth_dir / "loads.csv",
            "--placements", synth_dir / "placements.json",
            "--slot", 100, "--estimator", "distance", "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["estimates"] == [] and doc["mean_error"] is None

    def test_distance_estimate_reports_error(self, synth_dir, tmp_path):
        out = tmp_path / "est.json"
        code = run_cli(
            "estimate", "--loads", synth_dir / "loads.csv",
            "--placements", synth_dir / "placements.json",
            "--slot", 100, "--estimator", "distance", "--neighbors", 3,
            "--exponent", 2, "--sleepers", "1,5", "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["estimates"]["sleeper_ids"] == [1, 5]
        assert doc["mean_error"] >= 0.0

    @pytest.mark.parametrize("slot", [100, 200])
    def test_mlc_estimate_takes_the_previous_days_slot_as_history(self, synth_dir, tmp_path, slot):
        # The CSV is read as 10-minute slots, so the previous day is 144
        # slots back; a first-day slot has no history (NaN: the sleeper
        # enters at the mean active load).
        out = tmp_path / "e.json"
        assert run_cli("estimate", "--loads", synth_dir / "loads.csv", "--placements", synth_dir / "placements.json",
                       "--slot", slot, "--estimator", "mlc", "--sleepers", "1,5,9", "--out", out) == 0
        loads = read_loads_csv(synth_dir / "loads.csv").loads
        snapshot, _ = mask_sleepers(loads[:, slot], [1, 5, 9])
        no_history = np.full(16, np.nan)
        history = loads[:, slot - 144] if slot >= 144 else no_history
        cfg = MlcConfig(layers=3)
        expect = mlc_estimate(snapshot, history, cfg).estimates.tolist()
        doc = json.loads(out.read_text())["estimates"]
        assert doc["sleeper_ids"] == [1, 5, 9]
        assert doc["estimates"] == expect
        if slot >= 144:  # the history is read, not the fallback
            assert expect != mlc_estimate(snapshot, no_history, cfg).estimates.tolist()

    def test_bad_slot_is_data_error(self, synth_dir, tmp_path):
        code = run_cli(
            "estimate", "--loads", synth_dir / "loads.csv",
            "--placements", synth_dir / "placements.json",
            "--slot", 9999, "--out", tmp_path / "e.json",
        )
        assert code == 2

    def estimate_args(self, synth_dir, out, *extra):
        return ("estimate", "--loads", synth_dir / "loads.csv", "--placements", synth_dir / "placements.json",
                "--slot", 100, "--out", out, *extra)

    @pytest.mark.parametrize("fraction", [0, -0.5, 1])
    def test_sleep_fraction_outside_unit_interval_is_usage_error(self, synth_dir, tmp_path, capsys, fraction):
        out = tmp_path / "e.json"
        assert run_cli(*self.estimate_args(synth_dir, out, "--sleep-fraction", fraction)) == 1
        assert "sleep_fraction must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not out.exists()

    def test_sleep_fraction_draw_is_the_sweeps_draw(self, synth_dir, tmp_path):
        out = tmp_path / "e.json"
        assert run_cli(*self.estimate_args(synth_dir, out, "--sleep-fraction", 0.25, "--seed", 4)) == 0
        rng = np.random.default_rng(4)
        assert json.loads(out.read_text())["config"]["sleepers"] == sorted(rng.permutation(16)[:4].tolist())

    def test_random_neighbor_draw_has_its_own_stream(self, synth_dir, tmp_path):
        out = tmp_path / "e.json"
        args = ("--estimator", "random", "--neighbors", 3, "--sleep-fraction", 0.25, "--seed", 4)
        assert run_cli(*self.estimate_args(synth_dir, out, *args)) == 0
        doc = json.loads(out.read_text())
        active = np.setdiff1d(np.arange(16), doc["config"]["sleepers"])
        drawn = doc["estimates"]["detail"][0]["neighbor_ids"]
        child = np.random.SeedSequence(4, spawn_key=(1,)).generate_state(1)[0]
        assert drawn == np.random.default_rng(int(child)).permutation(active)[:3].tolist()
        # not the stream that drew the sleepers
        assert drawn != np.random.default_rng(4).permutation(active)[:3].tolist()

    def test_repeated_sleepers_echo_the_masked_set(self, synth_dir, tmp_path, capsys):
        docs = []
        for i, ids in enumerate(("3,3,5", "5,3")):
            out = tmp_path / f"e{i}.json"
            assert run_cli(*self.estimate_args(synth_dir, out, "--sleepers", ids)) == 0
            docs.append(json.loads(out.read_text()))
        assert "estimate: 2 sleepers" in capsys.readouterr().out
        assert docs[0]["config"]["sleepers"] == [3, 5]
        assert docs[0]["estimates"]["sleeper_ids"] == [3, 5]
        assert docs[0] == docs[1]  # same options, hash and estimates

    @pytest.mark.parametrize("estimator, flag", [
        ("distance", "--neighbors"), ("random", "--neighbors"), ("distance", "--exponent"),
        ("random", "--exponent"), ("mlc", "--layers"), ("mlc", "--k-override"),
    ])
    def test_bad_estimator_flag_is_usage_error(self, synth_dir, tmp_path, capsys, estimator, flag):
        out = tmp_path / "e.json"
        args = self.estimate_args(synth_dir, out, "--estimator", estimator, "--sleepers", "1,5", flag, 0)
        assert run_cli(*args) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["random", "mlc"])
    def test_negative_seed_is_usage_error(self, synth_dir, tmp_path, capsys, estimator):
        # numpy rejects a negative seed too, but with an exit code that
        # depended on the estimator and a message that named no flag.
        out = tmp_path / "e.json"
        args = ("--estimator", estimator, "--sleep-fraction", 0.25, "--seed", -1)
        assert run_cli(*self.estimate_args(synth_dir, out, *args)) == 1
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["-1", "-1e-9", "inf", "nan"])
    def test_bad_epsilon_is_usage_error(self, synth_dir, tmp_path, capsys, epsilon):
        out = tmp_path / "e.json"
        assert run_cli(*self.estimate_args(synth_dir, out, "--sleepers", "1,5", f"--epsilon={epsilon}")) == 1
        assert "epsilon must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestOptimize:
    def test_single_sbs_matches_hand_brute_force(self, tmp_path):
        loads_csv = tmp_path / "one.csv"
        loads_csv.write_text("sbs_id,slot,load\n0,0,0.1\n")
        out = tmp_path / "sol.json"
        assert run_cli("optimize", "--loads", loads_csv, "--slot", 0, "--out", out) == 0
        doc = json.loads(out.read_text())
        # Defaults: SBS 12+2*0.1*1=12.2 active vs sleep 9; offload cheaper via
        # HAPS: 6*120*0.02*0.1 = 1.44 < saving 3.2, so OFF -> HAPS wins.
        assert doc["solution"]["state"]["on_off"] == "0"
        assert doc["solution"]["state"]["targets"] == "H"
        base = (220 + 6 * 0.2 * 120) + (130 + 15 * 0.2 * 25)
        expected = base + 9.0 + 6 * 120 * (0.02 * 0.1)
        assert doc["solution"]["power_w"] == pytest.approx(expected, rel=1e-12)
        assert doc["solution"]["feasible"] is True

    def test_exit_codes_for_bad_inputs(self, tmp_path):
        assert run_cli("optimize", "--loads", tmp_path / "missing.csv", "--slot", 0) == 2
        for name, rows in (("dup.csv", "0,0,0.5\n0,0,0.7\n"), ("neg.csv", "0,0,0.5\n-1,0,0.7\n")):
            (tmp_path / name).write_text("sbs_id,slot,load\n" + rows)
            assert run_cli("optimize", "--loads", tmp_path / name, "--slot", 0) == 2

    def test_exhaustive_above_cap_is_data_error(self, tmp_path, capsys):
        loads_csv = tmp_path / "many.csv"
        loads_csv.write_text("sbs_id,slot,load\n" + "".join(f"{j},0,0.1\n" for j in range(21)))
        assert run_cli("optimize", "--loads", loads_csv, "--slot", 0, "--optimizer", "exhaustive",
                       "--out", tmp_path / "sol.json") == 2
        assert "capped at 20" in capsys.readouterr().err
        assert not (tmp_path / "sol.json").exists()


class TestSweepCli:
    def write_cfg(self, tmp_path, extra=None):
        cfg = {"experiment": {"n_iterations": 3, "n_sbs": 24, "n_days": 2, "slot_stride": 48,
                              "grid_side": 5, "_note": "test override"}}
        if extra:
            cfg["experiment"].update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_fig3_csv_and_echo_reproduction(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["sweep", "--experiment", "fig3", "--profile", "desk", "--config", cfg,
                "--seed", 13, "--l-values", "1,2", "--n-values", "2,4"]
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        csv1 = (out1 / "fig3_desk_13.csv").read_text()
        assert csv1 == (out2 / "fig3_desk_13.csv").read_text()
        doc = json.loads((out1 / "fig3_desk_13.json").read_text())
        assert csv1.splitlines()[0] == f"# config_hash={doc['config_hash']}"
        assert doc["config"]["n_iterations"] == 3  # resolved config echoed

        # feeding the echoed config back (same axis flags) reproduces the
        # file byte for byte
        echoed = tmp_path / "echoed.json"
        echoed.write_text(json.dumps({"experiment": doc["config"]}))
        out3 = tmp_path / "r3"
        assert run_cli("sweep", "--experiment", "fig3", "--config", echoed,
                       "--l-values", "1,2", "--n-values", "2,4", "--out", out3) == 0
        assert (out3 / "fig3_desk_13.csv").read_text() == csv1

    def test_fig4_csv_is_the_decision_sweeps(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "r4"
        assert run_cli("sweep", "--experiment", "fig4", "--profile", "desk", "--config", cfg, "--seed", 13,
                       "--s-values", "6,10", "--l-values", "1,2", "--out", out) == 0
        config = config_from_dict(json.loads(cfg.read_text())["experiment"], desk_profile())
        report = run_figure("fig4", config_from_dict({"base_seed": 13}, config), s_values=[6, 10], l_values=[1, 2])
        csv_path, _ = write_report(report, tmp_path / "ref")
        assert csv_path.name == "fig4_desk_13.csv"
        assert (out / csv_path.name).read_bytes() == csv_path.read_bytes()

    def test_unknown_config_key_reports_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": {"n_sbss": 10}}')
        code = run_cli("sweep", "--experiment", "fig2", "--config", path, "--out", tmp_path)
        assert code == 1
        assert "experiment.n_sbss" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["offload_to_mbs", "offload_to_haps", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_bad_scale_or_epsilon_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = self.write_cfg(tmp_path, {key: value})
        loads_csv = tmp_path / "one.csv"
        loads_csv.write_text("sbs_id,slot,load\n0,0,0.1\n")
        assert run_cli("sweep", "--experiment", "fig5", "--config", cfg, "--out", tmp_path,
                       "--s-values", "5", "--l-values", "1") == 1
        for optimizer in ("auto", "greedy"):
            assert run_cli("optimize", "--loads", loads_csv, "--slot", 0, "--config", cfg,
                           "--optimizer", optimizer, "--out", tmp_path / "sol.json") == 1
        assert key.removeprefix("offload_to_") in capsys.readouterr().err

    def test_exhaustive_cap_above_limit_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"exhaustive_cap": 21})
        loads_csv = tmp_path / "one.csv"
        loads_csv.write_text("sbs_id,slot,load\n0,0,0.1\n")
        assert run_cli("sweep", "--experiment", "fig5", "--profile", "desk", "--config", cfg,
                       "--out", tmp_path / "r", "--s-values", "21", "--l-values", "1") == 1
        assert run_cli("optimize", "--loads", loads_csv, "--slot", 0, "--config", cfg,
                       "--out", tmp_path / "sol.json") == 1
        err = capsys.readouterr().err
        assert err.count("exhaustive_cap") == 2
        assert not (tmp_path / "r").exists() and not (tmp_path / "sol.json").exists()

    @pytest.mark.parametrize("experiment", ["fig3", "fig5"])
    def test_mlc_k_override_below_one_is_usage_error(self, tmp_path, capsys, experiment):
        cfg = self.write_cfg(tmp_path, {"mlc_k_override": 0})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", experiment, "--config", cfg, "--out", out,
                       "--s-values", "6", "--l-values", "1") == 1
        assert "mlc_k_override" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_count_is_usage_error(self, tmp_path, capsys):
        # A float stride used to end in a TypeError traceback from eval_slots.
        cfg = self.write_cfg(tmp_path, {"slot_stride": 12.5})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", "fig2", "--config", cfg, "--out", out) == 1
        assert "slot_stride must be an integer, got 12.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, flag, value, message", [
        ("fig2", "--n-values", "0", "neighbor count must be >= 1, got 0"),
        ("fig3", "--n-values", "5,0", "neighbor count must be >= 1, got 0"),
        ("fig2", "--exponents", "0", "weighting exponent must be a positive integer, got 0"),
        ("fig3", "--l-values", "0", "layers must be >= 1, got 0"),
        ("fig4", "--l-values", "-1", "layers must be >= 1, got -1"),
        ("fig5", "--l-values", "0,3", "layers must be >= 1, got 0"),
        ("fig5", "--s-values", "1", "switching sweeps need n_sbs >= 2 per point, got 1"),
        ("fig4", "--s-values", "6,0", "switching sweeps need n_sbs >= 2 per point, got 0"),
        ("fig4", "--l-values", ",", "no values"),
        ("fig5", "--s-values", "", "no values"),
        ("fig2", "--n-values", ",,", "no values"),
        ("fig3", "--exponents", ",", "no values"),
    ])
    def test_bad_grid_value_is_usage_error_naming_the_flag(self, tmp_path, capsys, experiment, flag, value, message):
        # These used to exit 2 naming no flag, and fig5 at --l-values 0,3
        # exited 0 with a layers=0 row holding L = 3's numbers. A flag with
        # no values used to run the default grid.
        cfg = self.write_cfg(tmp_path, {"n_iterations": 2})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", experiment, "--config", cfg, "--out", out,
                       "--s-values", "6", f"{flag}={value}") == 1
        assert f"usage error: {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, flag, value, repeated", [
        ("fig2", "--n-values", "5,5", 5),
        ("fig3", "--n-values", "1,5,1", 1),
        ("fig2", "--exponents", "3,1,3", 3),
        ("fig5", "--s-values", "6,6", 6),
        ("fig4", "--l-values", "3,3", 3),
    ])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, experiment, flag, value, repeated):
        # A repeated N, exponent or depth used to be written twice; a repeated
        # size exited 2 naming no flag.
        cfg = self.write_cfg(tmp_path, {"n_iterations": 2})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", experiment, "--config", cfg, "--out", out,
                       "--s-values", "6", f"{flag}={value}") == 1
        assert f"usage error: {flag}: {repeated} is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_default_n_grid_keeps_n_below_the_active_count(self, tmp_path, capsys):
        # 16 SBSs, 2 asleep, 14 active: fig2's default N grid is 1, 5, 10,
        # and an explicit N = 20 fails the sweep's precondition.
        cfg = self.write_cfg(tmp_path, {"n_sbs": 16, "grid_side": 4, "n_iterations": 1})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", "fig2", "--config", cfg, "--exponents", "1", "--out", out) == 0
        rows = (out / "fig2_desk_0.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:3] for row in rows] == [["distance", n, "1"] for n in ("1", "5", "10")]
        out = tmp_path / "r20"
        assert run_cli("sweep", "--experiment", "fig2", "--config", cfg, "--n-values", "20", "--out", out) == 2
        assert capsys.readouterr().err == (
            "data error: iteration 0, slot 0, estimator distance, neighbors 20: "
            "requested 20 neighbors but only 14 SBSs are active\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", "fig2", "--workers", workers, "--out", out) == 1
        assert "--workers: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fig3", "fig4"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, experiment):
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", experiment, "--seed", -1, "--out", out,
                       "--s-values", "6", "--l-values", "1") == 1
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        cfg = self.write_cfg(tmp_path, {"base_seed": -1})
        assert run_cli("sweep", "--experiment", experiment, "--config", cfg, "--out", out,
                       "--s-values", "6", "--l-values", "1") == 1
        assert "base_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_milan_config_without_placements_is_usage_error(self, synth_dir, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"data_source": "milan", "loads_csv": str(synth_dir / "loads.csv")})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", "fig5", "--config", cfg, "--out", out,
                       "--s-values", "6", "--l-values", "1") == 1
        assert "data_source 'milan' requires placements_json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_placement_is_data_error(self, synth_dir, tmp_path, capsys, value):
        # Unchecked, an infinite x_m puts that SBS infinitely far away, and
        # NaN makes SBS 5's placement read as missing.
        doc = json.loads((synth_dir / "placements.json").read_text())
        doc["placements"][5]["x_m"] = float(value)
        placements = tmp_path / "placements.json"
        placements.write_text(json.dumps(doc))
        assert value in placements.read_text()
        cfg = self.write_cfg(tmp_path, {"data_source": "milan", "loads_csv": str(synth_dir / "loads.csv"),
                                        "placements_json": str(placements), "n_sbs": 16})
        out = tmp_path / "r"
        assert run_cli("sweep", "--experiment", "fig2", "--config", cfg, "--out", out) == 2
        sbs_id = doc["placements"][5]["sbs_id"]
        assert f"data error: {placements}: non-finite coordinates for SBS id {sbs_id}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["noise_std", "grid_capacity", "missing_loads_csv"])
    def test_worker_setup_error_is_the_same_data_error_at_any_workers(self, synth_dir, tmp_path, capsys, case):
        # Each input fails where a worker builds or reads the data. In a
        # pool's initializer that used to break the pool: a BrokenProcessPool
        # traceback and exit 1 at --workers 2.
        cfg = tmp_path / "cfg.json"
        missing = tmp_path / "nope.csv"
        args, message = {
            "noise_std": (["--experiment", "fig2", "--config", cfg],
                          "data error: noise_std must be finite and nonnegative, got -1.0"),
            "grid_capacity": (["--experiment", "fig5", "--s-values", "6,150"],
                              "data error: n_sbs 150 exceeds grid capacity 100"),
            "missing_loads_csv": (["--experiment", "fig2", "--config", cfg], f"data error: cannot read {missing}: "),
        }[case]
        experiment = {"noise_std": {"noise_std": -1.0, "n_iterations": 2},
                      "missing_loads_csv": {"data_source": "milan", "loads_csv": str(missing),
                                            "placements_json": str(synth_dir / "placements.json")}}.get(case, {})
        cfg.write_text(json.dumps({"experiment": experiment}))
        lines = []
        for workers in (1, 2):
            out = tmp_path / f"r{workers}"
            assert run_cli("sweep", *args, "--workers", workers, "--out", out) == 2
            lines.append(capsys.readouterr().err)
            assert not out.exists()
        assert lines[0] == lines[1] and lines[0].startswith(message) and lines[0].count("\n") == 1

    def test_usage_error_exit_code(self):
        assert run_cli("sweep", "--experiment", "fig9") == 1
        assert run_cli("nonsense") == 1

    def test_fig5_runs(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"sleep_fraction": 0.25})
        out = tmp_path / "r5"
        code = run_cli("sweep", "--experiment", "fig5", "--config", cfg, "--out", out,
                       "--s-values", "5,8", "--l-values", "1,3")
        assert code == 0
        text = (out / "fig5_desk_0.csv").read_text()
        assert "power_actual_w" in text.splitlines()[1]

    def test_fig5_counts_overloaded_deployed_decision(self, tmp_path):
        # With tiers at 0.9 base load, an L=1 estimate switches off more than
        # the actual loads allow; that decision must be counted, not fatal.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {
            "n_iterations": 4, "slot_stride": 36, "base_mbs_load": 0.9,
            "base_haps_load": 0.9, "mlc_k_override": 3}}))
        out = tmp_path / "r5"
        code = run_cli("sweep", "--experiment", "fig5", "--profile", "desk", "--config", path,
                       "--out", out, "--s-values", "100", "--l-values", "1")
        assert code == 0
        doc = json.loads((out / "fig5_desk_0.json").read_text())
        assert sum(doc["metadata"]["deployed_infeasible_per_point"]) >= 1
        for point, count in zip(doc["points"], doc["metadata"]["deployed_infeasible_per_point"]):
            assert point["per_iteration"]["deployed_feasible"].count(False) == count
            # The gap mean covers the feasible iterations only (NaN if none).
            per_it = point["per_iteration"]
            feasible_gaps = [g for g, ok in zip(per_it["gap_w"], per_it["deployed_feasible"]) if ok]
            if feasible_gaps:
                assert point["metrics"]["gap_w"] == np.mean(feasible_gaps)
            else:
                assert np.isnan(point["metrics"]["gap_w"])
