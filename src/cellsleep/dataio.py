"""Readers and writers for the canonical on-disk formats.

Loads travel as CSV with header ``sbs_id,slot,load`` (one row per SBS and
slot); placements as JSON records of sbs_id, square_id and planar meters.
Floats are written with ``repr`` so files are byte-identical across runs
and round-trip exactly. Lines starting with ``#`` are comments; writers
use one to embed the resolved config hash.
"""

from __future__ import annotations

import io
import json
import re
import warnings
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import DataFormatError
from .traffic import LoadSeries, SbsPlacement

LOADS_CSV_HEADER = "sbs_id,slot,load"
_LOAD_ROW = np.dtype([("sbs_id", np.int64), ("slot", np.int64), ("load", np.float64)])
# A line that the loads CSV skips: blank or all whitespace, a comment or the
# header. Matching from the newline before it lets the search jump from
# newline to newline, and a row fails at once on its leading digit or sign.
_SKIPPED_LINE = re.compile(
    rb"\n(?![0-9+\-])[^\S\n]*(?:#[^\n]*|" + LOADS_CSV_HEADER.encode() + rb"[^\S\n]*)?(?=\n|\Z)"
)


def write_loads_csv(series: LoadSeries, path: str | Path, *, config_hash: str | None = None) -> None:
    """Write one SBS's rows per ``write``, so only one row's text is held at once."""
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(LOADS_CSV_HEADER + "\n")
        for sbs_id, row in enumerate(series.loads):
            fh.write("".join(f"{sbs_id},{slot},{load!r}\n" for slot, load in enumerate(row.tolist())))


def read_loads_csv(path: str | Path, *, slot_minutes: int = 10) -> LoadSeries:
    """Read a canonical loads CSV back into a LoadSeries.

    Every SBS must cover the same contiguous slot range 0..n_slots-1, with
    exactly one row per (sbs_id, slot) and every load in [0, 1]. Lines end
    in LF or CRLF; blank lines, ``#`` comment lines and header lines may
    stand anywhere. The rows are parsed in one ``np.loadtxt`` call; a
    rejected file raises DataFormatError naming its first bad line.
    """
    try:
        with warnings.catch_warnings():
            # Older numpy parses "1.0" as an integer with a DeprecationWarning,
            # and a file without rows gives a UserWarning.
            warnings.simplefilter("error")
            rows = np.loadtxt(_rows_text(path), dtype=_LOAD_ROW, delimiter=",", comments="#", ndmin=1)
    except (ValueError, Warning) as exc:
        _raise_first_bad_row(path, str(exc))
    if min(rows["sbs_id"].min(), rows["slot"].min()) < 0:
        _raise_first_bad_row(path, "negative sbs_id or slot")
    n_sbs, n_slots = int(rows["sbs_id"].max()) + 1, int(rows["slot"].max()) + 1
    cell = rows["sbs_id"] * n_slots + rows["slot"]
    if n_sbs * n_slots != cell.size or not np.bincount(cell, minlength=cell.size).all():
        # Rows and cells do not pair up. A duplicate row is named first; else
        # the first missing cell is the first index at which the sorted
        # cells run ahead of 0, 1, 2, ...
        seen = np.unique(cell)
        if seen.size < cell.size:
            _raise_first_bad_row(path, "duplicate row")
        gap = int(np.searchsorted(seen - np.arange(seen.size), 1))
        raise DataFormatError(f"{path}: missing load for sbs_id={gap // n_slots}, slot={gap % n_slots}")
    loads = np.empty((n_sbs, n_slots))
    loads.reshape(-1)[cell] = rows["load"]
    loads.setflags(write=False)  # LoadSeries adopts it without a copy
    try:
        return LoadSeries(loads=loads, slot_minutes=slot_minutes)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _rows_text(path: str | Path) -> io.BytesIO:
    """The file's bytes for ``np.loadtxt``, with every skipped line a comment.

    Raises ValueError when a '#' stands inside a row, which loadtxt would
    cut short instead of rejecting, or when a line break other than LF or
    CRLF occurs.
    """
    try:
        with open(path, "rb") as fh:
            text = bytearray(b"\n") + fh.read()  # the newline lets _SKIPPED_LINE match line 1
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if any(c in text for c in b"\v\f\x1c\x1d\x1e"):  # str.splitlines breaks lines there, loadtxt not
        raise ValueError("a line break other than LF or CRLF")
    skipped_hashes = 0
    for m in _SKIPPED_LINE.finditer(text):  # edits only bytes already matched
        if m.end() > m.start() + 1:
            text[m.start() + 1] = ord("#")
        skipped_hashes += text.count(b"#", m.start(), m.end())
    if text.count(b"#") > skipped_hashes:
        raise ValueError("'#' inside a row")
    return io.BytesIO(text)


def _raise_first_bad_row(path: str | Path, reason: str) -> NoReturn:
    """Raise the DataFormatError for the first line that breaks the format.

    Runs only once ``read_loads_csv`` has rejected the file. It applies the
    format's rules line by line so that the error names the same line as a
    row-by-row reader; ``reason`` covers a file whose lines all pass them.
    """
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(Path(path).read_text(errors="replace").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line == LOADS_CSV_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            sbs_id, slot, _ = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if sbs_id < 0 or slot < 0:
            raise DataFormatError(f"{path}:{lineno}: negative sbs_id or slot")
        if (sbs_id, slot) in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate row for sbs_id={sbs_id}, slot={slot}")
        seen.add((sbs_id, slot))
    if not seen:
        raise DataFormatError(f"{path}: no load rows found")
    raise DataFormatError(f"{path}: {reason}")


def write_placements_json(
    placements: Sequence[SbsPlacement],
    path: str | Path,
    *,
    grid_side: int | None = None,
    config_hash: str | None = None,
) -> None:
    doc = {
        "config_hash": config_hash,
        "grid_side": grid_side,
        "placements": [
            {"sbs_id": p.sbs_id, "square_id": p.square_id, "x_m": p.x_m, "y_m": p.y_m}
            for p in placements
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_placements_json(path: str | Path) -> tuple[SbsPlacement, ...]:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        records = doc["placements"]
        out = tuple(
            SbsPlacement(
                sbs_id=int(r["sbs_id"]),
                square_id=int(r["square_id"]),
                x_m=float(r["x_m"]),
                y_m=float(r["y_m"]),
            )
            for r in records
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed placement document: {exc}") from exc
    if not out:
        raise DataFormatError(f"{path}: empty placement list")
    return out


def write_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def read_text_lines(path: str | Path) -> Iterable[str]:
    try:
        with open(path, "r") as fh:
            yield from fh
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
