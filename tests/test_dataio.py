import tracemalloc

import numpy as np
import pytest

from cellsleep.dataio import (
    LOADS_CSV_HEADER,
    read_loads_csv,
    read_placements_json,
    write_loads_csv,
    write_placements_json,
)
from cellsleep.errors import DataFormatError
from cellsleep.traffic import LoadSeries, synthesize_traffic

from naive_loads import naive_read_loads_csv


class TestLoadsCsv:
    def test_roundtrip_is_exact(self, tmp_path, rng):
        series = LoadSeries(loads=rng.uniform(0, 1, (5, 12)), slot_minutes=10)
        path = tmp_path / "loads.csv"
        write_loads_csv(series, path, config_hash="abc123")
        back = read_loads_csv(path)
        assert back.loads.tobytes() == series.loads.tobytes()
        text = path.read_text()
        assert text.startswith("# config_hash=abc123\nsbs_id,slot,load\n")

    def test_written_bytes_and_peak(self, tmp_path):
        small = LoadSeries(loads=np.array([[0.25, 0.1], [1.0, 0.0]]), slot_minutes=720)
        write_loads_csv(small, tmp_path / "small.csv", config_hash="h")
        assert (tmp_path / "small.csv").read_bytes() == (
            b"# config_hash=h\nsbs_id,slot,load\n0,0,0.25\n0,1,0.1\n1,0,1.0\n1,1,0.0\n"
        )
        series, _ = synthesize_traffic(seed=1, n_sbs=500, grid_side=40, correlation_length_m=1500.0)
        tracemalloc.start()
        try:
            write_loads_csv(series, tmp_path / "loads.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # one SBS row of text at a time; all 72 000 rows take ~10 MB

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
        "text, match",
        [
            ("sbs_id,slot,load\n0,0,0.5\n0,0,0.7\n", r"bad\.csv:3: duplicate row for sbs_id=0, slot=0"),
            ("sbs_id,slot,load\n0,0,0.5\n-1,0,0.7\n", r"bad\.csv:3: negative"),
            ("sbs_id,slot,load\n0,0,0.5\n0,-1,0.7\n", r"bad\.csv:3: negative"),
            ("sbs_id,slot,load\n0,0,0.5\n0,1,1.5\n", r"bad\.csv: load values must lie in \[0, 1\]"),
            ("sbs_id,slot,load\n0,0,nan\n", r"bad\.csv: load values must lie in \[0, 1\]"),
            ("sbs_id,slot,load\n0,0,0.5\n0,1\n", r"bad\.csv:3: expected 3 columns, got 2"),
            ("sbs_id,slot,load\n0,0,0.5,1\n", r"bad\.csv:2: expected 3 columns, got 4"),
            ("sbs_id,slot,load\n0,0,0.5\n0.0,1,0.5\n", r"bad\.csv:3: invalid literal for int\(\) .*'0\.0'"),
            ("sbs_id,slot,load\nzero,0,0.5\n", r"bad\.csv:2: invalid literal for int\(\) .*'zero'"),
            ("sbs_id,slot,load\n0,0,0.5\n\n0,1,abc\n", r"bad\.csv:4: could not convert string to float: 'abc'"),
            ("sbs_id,slot,load\n0,0,0.5 # note\n", r"bad\.csv:2: could not convert string to float"),
            ("sbs_id,slot,load x\n0,0,0.5\n", r"bad\.csv:1: invalid literal for int\(\) .*'sbs_id'"),
            ("# config_hash=abc\n# more\nsbs_id,slot,load\n", r"bad\.csv: no load rows found"),
            ("sbs_id,slot,load\n0,0\f,0.5\n", r"bad\.csv:2: expected 3 columns, got 2"),
        ],
        ids=[
            "duplicate", "negative-sbs", "negative-slot", "above-one", "nan", "two-columns",
            "four-columns", "float-id", "word-id", "word-load", "trailing-comment",
            "header-with-suffix", "header-only", "form-feed",
        ],
    )
    def test_bad_rows_name_file_and_line(self, tmp_path, text, match):
        # A duplicate row used to win silently and a negative id or slot was
        # dropped; an out-of-range load failed without naming the file.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            read_loads_csv(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_by_row_reader_on_valid_files(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        for k in range(50):
            path = tmp_path / f"valid{k}.csv"
            path.write_bytes(_loads_file(rng).encode())
            want = _outcome(naive_read_loads_csv, path)
            assert want[0] == "ok"
            assert _outcome(read_loads_csv, path) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_by_row_reader_on_corrupted_files(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        for k in range(50):
            path = tmp_path / f"bad{k}.csv"
            path.write_bytes(_corrupt(_loads_file(rng), rng).encode())
            assert _outcome(read_loads_csv, path) == _outcome(naive_read_loads_csv, path)

    def test_far_off_id_names_missing_cell_without_allocating_it(self, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("sbs_id,slot,load\n0,0,0.5\n1000000000,1,0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=r"far\.csv: missing load for sbs_id=0, slot=1"):
                read_loads_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the dense table would take 16 GB

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("sbs_id,slot,load\n")
        with pytest.raises(DataFormatError, match="no load rows"):
            read_loads_csv(path)


def _outcome(reader, path) -> tuple:
    """The shape and bytes of the loads that ``reader`` returns, or its error."""
    try:
        loads = reader(path).loads
        return "ok", loads.shape, loads.tobytes()
    except DataFormatError as exc:
        return "error", str(exc)


def _ws(rng) -> str:
    return str(rng.choice(["", "", "", " ", "\t", "  "]))


def _loads_file(rng) -> str:
    """A valid loads CSV that varies everything the format leaves open.

    Rows come shuffled, with blanks around fields; comment lines, blank and
    whitespace-only lines and repeated headers fall between them; loads are
    written in several float spellings; lines end in LF or CRLF.
    """
    n_sbs, n_slots = (int(v) for v in rng.integers(1, 7, size=2))
    loads = rng.uniform(0.0, 1.0, (n_sbs, n_slots))
    loads[rng.uniform(size=loads.shape) < 0.1] = 0.0
    loads[rng.uniform(size=loads.shape) < 0.1] = 1.0
    spellings = [repr, lambda v: f"{v:.3f}", lambda v: f"{v:.4e}", lambda v: f"{v:.2g}", lambda v: f"+{v!r}"]
    rows = []
    for i in range(n_sbs):
        for t in range(n_slots):
            load = spellings[int(rng.integers(len(spellings)))](float(loads[i, t]))
            sbs = f"+{i}" if rng.uniform() < 0.05 else f"0{i}" if rng.uniform() < 0.05 else str(i)
            rows.append(f"{_ws(rng)}{sbs}{_ws(rng)},{_ws(rng)}{t}{_ws(rng)},{_ws(rng)}{load}{_ws(rng)}")
    rows = [rows[j] for j in rng.permutation(len(rows))]
    fillers = [
        "# config_hash=abc123", "#", "# a # comment with # marks", "  # indented comment",
        f"# {LOADS_CSV_HEADER}", "", "", "   ", "\t", LOADS_CSV_HEADER, f" {LOADS_CSV_HEADER}\t",
    ]
    lines = [str(rng.choice(fillers[:4])) for _ in range(int(rng.integers(0, 3)))]
    if rng.uniform() < 0.7:
        lines.append(LOADS_CSV_HEADER)
    for row in rows:
        if rng.uniform() < 0.15:
            lines.append(str(rng.choice(fillers)))
        lines.append(row)
    newline = "\r\n" if rng.uniform() < 0.3 else "\n"
    return newline.join(lines) + (newline if rng.uniform() < 0.8 else "")


def _corrupt(text: str, rng) -> str:
    """``text`` with one defect, which the loads CSV format mostly rejects."""
    lines = text.splitlines()
    data = [k for k, line in enumerate(lines) if line.strip()[:1].isdigit() or line.strip()[:1] == "+"]
    k = data[int(rng.integers(len(data)))]
    fields = lines[k].split(",")
    kind = int(rng.integers(12))
    if kind == 0:
        lines.insert(int(rng.integers(len(lines) + 1)), lines[k])  # duplicate row
    elif kind == 1:
        del lines[k]  # missing cell (or no rows at all)
    elif kind == 2:
        fields[int(rng.integers(2))] = "-1"
    elif kind == 3:
        fields[2] = str(rng.choice(["1.5", "-0.25", "nan", "inf"]))
    elif kind == 4:
        fields[2] = str(rng.choice(["abc", "0.5#x", "0.5 # x", "", "0x1p-1", "1,5"]))
    elif kind == 5:
        fields[int(rng.integers(2))] = str(rng.choice(["0.0", "zero", "1e0", "", "#"]))
    elif kind == 6:
        fields.append("0")
    elif kind == 7:
        fields.pop()
    elif kind == 8:
        lines.insert(k, str(rng.choice([f"{LOADS_CSV_HEADER} x", f"x {LOADS_CSV_HEADER}", "sbs_id,slot"])))
    elif kind == 9:
        fields[0] = f"{fields[0]} 1"
    elif kind == 10:
        lines = [line for j, line in enumerate(lines) if j not in data]  # no data rows
    else:
        lines.insert(k, lines[k].replace(",", ";"))
    if kind in (2, 3, 4, 5, 6, 7, 9):
        lines[k] = ",".join(fields)
    return "\n".join(lines) + "\n"


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
