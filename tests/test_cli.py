import json

import numpy as np
import pytest

from cellsleep.cli import build_parser, main
from cellsleep.config import desk_profile
from cellsleep.dataio import read_loads_csv, read_placements_json


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

    def test_loads_header(self, synth_dir):
        lines = (synth_dir / "loads.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "sbs_id,slot,load"


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

    def test_bad_slot_is_data_error(self, synth_dir, tmp_path):
        code = run_cli(
            "estimate", "--loads", synth_dir / "loads.csv",
            "--placements", synth_dir / "placements.json",
            "--slot", 9999, "--out", tmp_path / "e.json",
        )
        assert code == 2


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
