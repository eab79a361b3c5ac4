"""Readers and writers for the canonical on-disk formats.

Loads travel as CSV with header ``sbs_id,slot,load`` (one row per SBS and
slot); placements as JSON records of sbs_id, square_id and planar meters.
Floats are written with ``repr`` so files are byte-identical across runs
and round-trip exactly. Lines starting with ``#`` are comments; writers
use one to embed the resolved config hash.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError
from .traffic import LoadSeries, SbsPlacement

LOADS_CSV_HEADER = "sbs_id,slot,load"


def write_loads_csv(series: LoadSeries, path: str | Path, *, config_hash: str | None = None) -> None:
    lines = []
    if config_hash:
        lines.append(f"# config_hash={config_hash}")
    lines.append(LOADS_CSV_HEADER)
    for sbs_id in range(series.n_sbs):
        row = series.loads[sbs_id]
        for slot in range(series.n_slots):
            lines.append(f"{sbs_id},{slot},{float(row[slot])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_loads_csv(path: str | Path, *, slot_minutes: int = 10) -> LoadSeries:
    """Read a canonical loads CSV back into a LoadSeries.

    Every SBS must cover the same contiguous slot range 0..n_slots-1, with
    exactly one row per (sbs_id, slot) and every load in [0, 1].
    """
    cells: dict[tuple[int, int], float] = {}
    max_sbs = -1
    max_slot = -1
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == LOADS_CSV_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            sbs_id, slot, load = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if sbs_id < 0 or slot < 0:
            raise DataFormatError(f"{path}:{lineno}: negative sbs_id or slot")
        if (sbs_id, slot) in cells:
            raise DataFormatError(f"{path}:{lineno}: duplicate row for sbs_id={sbs_id}, slot={slot}")
        cells[(sbs_id, slot)] = load
        max_sbs = max(max_sbs, sbs_id)
        max_slot = max(max_slot, slot)
    if max_sbs < 0:
        raise DataFormatError(f"{path}: no load rows found")
    n_sbs, n_slots = max_sbs + 1, max_slot + 1
    loads = np.empty((n_sbs, n_slots))
    for sbs_id in range(n_sbs):
        for slot in range(n_slots):
            try:
                loads[sbs_id, slot] = cells[(sbs_id, slot)]
            except KeyError:
                raise DataFormatError(
                    f"{path}: missing load for sbs_id={sbs_id}, slot={slot}"
                ) from None
    try:
        return LoadSeries(loads=loads, slot_minutes=slot_minutes, slots_per_day=1440 // slot_minutes)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


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
