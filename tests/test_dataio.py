import pytest

from cellsleep.dataio import (
    read_loads_csv,
    read_placements_json,
    write_loads_csv,
    write_placements_json,
)
from cellsleep.errors import DataFormatError
from cellsleep.traffic import LoadSeries, synthesize_traffic


class TestLoadsCsv:
    def test_roundtrip_is_exact(self, tmp_path, rng):
        series = LoadSeries(loads=rng.uniform(0, 1, (5, 12)), slot_minutes=10, slots_per_day=144)
        path = tmp_path / "loads.csv"
        write_loads_csv(series, path, config_hash="abc123")
        back = read_loads_csv(path)
        assert back.loads.tobytes() == series.loads.tobytes()
        text = path.read_text()
        assert text.startswith("# config_hash=abc123\nsbs_id,slot,load\n")

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("sbs_id,slot,load\n0,0,0.5\n0,2,0.5\n")
        with pytest.raises(DataFormatError, match="missing"):
            read_loads_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sbs_id,slot,load\n0,zero,0.5\n")
        with pytest.raises(DataFormatError):
            read_loads_csv(path)

    @pytest.mark.parametrize(
        "rows, match",
        [
            ("0,0,0.5\n0,0,0.7\n", r"bad\.csv:3: duplicate row for sbs_id=0, slot=0"),
            ("0,0,0.5\n-1,0,0.7\n", r"bad\.csv:3: negative"),
            ("0,0,0.5\n0,-1,0.7\n", r"bad\.csv:3: negative"),
            ("0,0,0.5\n0,1,1.5\n", r"bad\.csv: load values must lie in \[0, 1\]"),
            ("0,0,nan\n", r"bad\.csv: load values must lie in \[0, 1\]"),
        ],
        ids=["duplicate", "negative-sbs", "negative-slot", "above-one", "nan"],
    )
    def test_bad_rows_name_file_and_line(self, tmp_path, rows, match):
        # A duplicate row used to win silently and a negative id or slot was
        # dropped; an out-of-range load failed without naming the file.
        path = tmp_path / "bad.csv"
        path.write_text("sbs_id,slot,load\n" + rows)
        with pytest.raises(DataFormatError, match=match):
            read_loads_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("sbs_id,slot,load\n")
        with pytest.raises(DataFormatError, match="no load rows"):
            read_loads_csv(path)


class TestPlacementsJson:
    def test_roundtrip(self, tmp_path):
        _, placements = synthesize_traffic(seed=4, n_sbs=9, grid_side=3, correlation_length_m=200.0)
        path = tmp_path / "placements.json"
        write_placements_json(placements, path, grid_side=3, config_hash="deadbeef")
        assert read_placements_json(path) == placements

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            read_placements_json(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "y.json"
        path.write_text('{"placements": [{"sbs_id": 0}]}')
        with pytest.raises(DataFormatError):
            read_placements_json(path)

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text('{"placements": []}')
        with pytest.raises(DataFormatError, match="empty"):
            read_placements_json(path)
