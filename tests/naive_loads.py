"""Reference loads CSV reader for the dataio tests.

A row-by-row reader with one dict entry per (sbs_id, slot) cell: each line
is stripped, comments (``#``), blank lines and header lines are skipped,
and the first bad row raises with its path and line. It is the reader the
package used before the vectorized parse, kept here so that tests can
require the vectorized one to return the same bytes and raise the same
errors.
"""

from pathlib import Path

import numpy as np

from cellsleep.dataio import LOADS_CSV_HEADER
from cellsleep.errors import DataFormatError
from cellsleep.traffic import LoadSeries


def naive_read_loads_csv(path, *, slot_minutes=10):
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
        return LoadSeries(loads=loads, slot_minutes=slot_minutes)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
