"""Grid-cell traffic ingestion, normalization and synthetic generation.

Input data follows the Milan CDR layout: the city is a square grid of
235 m x 235 m cells, and each text row carries per-cell activity counters
(SMS in/out, calls in/out, internet) for one 10-minute interval. The
pipeline here turns those rows into per-SBS load series in [0, 1]:

    parse_cdr -> aggregate_activity -> normalize_loads -> daily_average

A seeded synthetic generator produces spatially correlated load series so
everything downstream can be exercised without the proprietary dataset.
All randomness goes through ``numpy.random.default_rng`` (PCG64), which is
portable and fully determined by the seed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataFormatError

GRID_PITCH_M = 235.0
MINUTES_PER_DAY = 1440
# SBS rows per synthetic load block: 64 rows of a 30-day, 10-minute series are 2.2 MB.
SYNTH_BLOCK_ROWS = 64

ACTIVITY_FIELDS = ("sms_in", "sms_out", "call_in", "call_out", "internet")
# One grid-cell activity row (interval_start in epoch milliseconds); the
# activity counters stand in ACTIVITY_FIELDS order, an absent one as 0.
CDR_RECORD = np.dtype(
    [("square_id", np.int64), ("interval_start", np.int64), ("activity", np.float64, len(ACTIVITY_FIELDS))]
)


@dataclass(frozen=True)
class SbsPlacement:
    """An SBS pinned to the center of one grid square."""

    sbs_id: int
    square_id: int
    x_m: float
    y_m: float


@dataclass(frozen=True)
class LoadSeries:
    """Per-SBS load factors over time, shape (n_sbs, n_slots), all in [0, 1].

    ``loads`` is stored read-only. A C-ordered float array that is already
    read-only and owns its data is adopted without a copy: its creator hands
    it over. Any other input is copied, so the caller's array stays its own.
    """

    loads: np.ndarray
    slot_minutes: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.loads, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"loads must be 2-D (n_sbs, n_slots), got shape {arr.shape}")
        if arr.size and (np.isnan(arr).any() or arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("load values must lie in [0, 1]")
        if self.slot_minutes < 1 or MINUTES_PER_DAY % self.slot_minutes:
            raise ValueError(f"slot_minutes must divide {MINUTES_PER_DAY}, got {self.slot_minutes!r}")
        if arr.flags.writeable or not (arr.flags.owndata and arr.flags.c_contiguous):
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "loads", arr)

    @property
    def slots_per_day(self) -> int:
        """Slots in the 1440-minute day, which ``slot_minutes`` must divide."""
        return MINUTES_PER_DAY // self.slot_minutes

    @property
    def n_sbs(self) -> int:
        return self.loads.shape[0]

    @property
    def n_slots(self) -> int:
        return self.loads.shape[1]


@dataclass(frozen=True)
class LoadSnapshot:
    """Per-SBS loads at one slot with sleeping entries masked out.

    Sleeping (unknown) entries hold NaN so that accidentally consuming them
    as data fails loudly; estimators must only read entries whose
    ``known_mask`` is true.
    """

    loads: np.ndarray
    known_mask: np.ndarray

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=float).copy()
        mask = np.asarray(self.known_mask, dtype=bool).copy()
        if loads.shape != mask.shape or loads.ndim != 1:
            raise ValueError("loads and known_mask must be 1-D arrays of equal length")
        known = loads[mask]
        if known.size and (np.isnan(known).any() or known.min() < 0.0 or known.max() > 1.0):
            raise ValueError("known load values must lie in [0, 1]")
        loads[~mask] = np.nan
        loads.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "known_mask", mask)

    @property
    def n_sbs(self) -> int:
        return self.loads.shape[0]

    @property
    def active_ids(self) -> np.ndarray:
        return np.flatnonzero(self.known_mask)

    @property
    def sleeping_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.known_mask)


@dataclass
class ActivityMatrix:
    """Aggregated activity per (square, slot) plus ingestion bookkeeping."""

    values: np.ndarray  # (n_squares, n_slots)
    square_ids: tuple[int, ...]
    epoch_ms: int
    slot_minutes: int
    n_duplicate_records: int = 0
    n_missing_cells: int = 0


@dataclass
class ParseReport:
    """Line-level issues found while reading a CDR stream."""

    n_lines: int = 0
    n_records: int = 0
    malformed: list[tuple[int, str]] = field(default_factory=list)


def square_center(square_id: int, grid_side: int) -> tuple[float, float]:
    """Planar coordinates (meters) of a 1-based square id on a row-major grid."""
    if not (1 <= square_id <= grid_side * grid_side):
        raise ValueError(f"square_id {square_id} outside 1..{grid_side * grid_side}")
    idx = square_id - 1
    col = idx % grid_side
    row = idx // grid_side
    return ((col + 0.5) * GRID_PITCH_M, (row + 0.5) * GRID_PITCH_M)


def placements_for_squares(square_ids: Sequence[int], grid_side: int) -> tuple[SbsPlacement, ...]:
    """Assign SBS ids 0..n-1 to the given squares, one SBS per square."""
    if len(set(square_ids)) != len(square_ids):
        raise ValueError("each SBS must map to a distinct grid square")
    squares = np.asarray(square_ids, dtype=np.int64).reshape(-1)
    outside = (squares < 1) | (squares > grid_side * grid_side)
    if outside.any():
        raise ValueError(f"square_id {squares[outside][0]} outside 1..{grid_side * grid_side}")
    xy = _square_positions(squares, grid_side)
    return tuple(
        SbsPlacement(sbs_id=i, square_id=sq, x_m=x, y_m=y)
        for i, (sq, (x, y)) in enumerate(zip(squares.tolist(), xy.tolist()))
    )


def _square_positions(squares: np.ndarray, grid_side: int) -> np.ndarray:
    """(n, 2) centres of 1-based squares: ``square_center``'s arithmetic, one array at a time."""
    xs = ((squares - 1) % grid_side + 0.5) * GRID_PITCH_M
    ys = ((squares - 1) // grid_side + 0.5) * GRID_PITCH_M
    return np.column_stack([xs, ys])


def parse_cdr(lines: Iterable[str], *, grid_squares: int = 10_000) -> tuple[np.ndarray, ParseReport]:
    """Parse Milan-layout CDR text into a ``CDR_RECORD`` array, one entry per record.

    Expected columns (tab- or comma-separated, header optional):
    square_id, interval_ms, country_code, sms_in, sms_out, call_in,
    call_out, internet. Everything after interval_ms may be absent or
    empty and is treated as zero; the country code is ignored. Malformed
    lines (an unparseable, negative or non-finite value) are skipped and
    reported with their line numbers.

    Raises:
        DataFormatError: on a square id outside 1..grid_squares.
    """
    squares, intervals, counters = array("q"), array("q"), array("d")
    report = ParseReport()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        report.n_lines += 1
        if not line:
            continue
        fields = line.split("\t") if "\t" in line else line.split(",")
        try:
            square = int(fields[0])
        except (ValueError, IndexError):
            if lineno == 1:  # optional header
                continue
            report.malformed.append((lineno, f"unparseable square_id {fields[0]!r}"))
            continue
        if not (1 <= square <= grid_squares):
            raise DataFormatError(
                f"line {lineno}: square_id {square} outside 1..{grid_squares}"
            )
        if len(fields) < 2:
            report.malformed.append((lineno, "missing interval column"))
            continue
        try:
            interval = int(float(fields[1]))  # inf raises OverflowError
        except (ValueError, OverflowError):
            report.malformed.append((lineno, f"unparseable interval {fields[1]!r}"))
            continue
        if abs(interval) >= 2**62:  # keeps the slot arithmetic inside int64
            report.malformed.append((lineno, f"interval {fields[1]!r} out of range"))
            continue
        # fields[2] is the country code; activity counters start at index 3
        activity = [0.0] * len(ACTIVITY_FIELDS)
        bad = None
        for i, text in enumerate(fields[3 : 3 + len(ACTIVITY_FIELDS)]):
            if not text.strip():
                continue
            try:
                value = float(text)
            except ValueError:
                bad = f"unparseable activity {text!r}"
                break
            if value < 0.0:
                bad = f"negative activity {value}"
                break
            if not math.isfinite(value):
                bad = f"non-finite activity {value}"
                break
            activity[i] = value
        if bad:
            report.malformed.append((lineno, bad))
            continue
        squares.append(square)
        intervals.append(interval)
        counters.extend(activity)
        report.n_records += 1
    records = np.empty(report.n_records, dtype=CDR_RECORD)
    records["square_id"], records["interval_start"] = squares, intervals
    records["activity"] = np.asarray(counters).reshape(-1, len(ACTIVITY_FIELDS))
    return records, report


def aggregate_activity(
    records: np.ndarray,
    weights: Sequence[float] = (1.0, 1.0, 1.0, 1.0, 1.0),
    *,
    slot_minutes: int = 10,
) -> ActivityMatrix:
    """Combine the five activity counters into one per-(square, slot) measure.

    ``records`` holds ``CDR_RECORD`` entries, as ``parse_cdr`` returns them.
    The combined value is the weighted sum over counters, added left to
    right in ``ACTIVITY_FIELDS`` order; records in the same (square, slot)
    add up in record order (e.g. separate country-code rows). Slots are
    indexed from the earliest interval seen (``epoch_ms``); cells with no
    record stay zero and are counted as missing.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(ACTIVITY_FIELDS),):
        raise ValueError(f"expected {len(ACTIVITY_FIELDS)} weights, got shape {w.shape}")
    if not (np.isfinite(w).all() and (w >= 0.0).all() and w.sum() > 0.0):
        raise ValueError(f"weights must be finite and nonnegative with a positive sum, got {w.tolist()}")
    if slot_minutes < 1:
        raise ValueError(f"slot_minutes must be >= 1, got {slot_minutes}")
    records = np.asarray(records, dtype=CDR_RECORD)
    if not records.size:
        raise DataFormatError("no records to aggregate")

    squares, rows = np.unique(records["square_id"], return_inverse=True)
    epoch_ms = int(records["interval_start"].min())
    slots = (records["interval_start"] - epoch_ms) // (slot_minutes * 60_000)
    n_slots = int(slots.max()) + 1
    cells = rows * n_slots + slots
    activity = records["activity"]
    combined = activity[:, 0] * w[0]
    for i in range(1, len(ACTIVITY_FIELDS)):
        combined += activity[:, i] * w[i]
    n_cells = squares.size * n_slots
    filled = np.count_nonzero(np.bincount(cells, minlength=n_cells))
    return ActivityMatrix(
        values=np.bincount(cells, weights=combined, minlength=n_cells).reshape(squares.size, n_slots),
        square_ids=tuple(squares.tolist()),
        epoch_ms=epoch_ms,
        slot_minutes=slot_minutes,
        n_duplicate_records=records.size - filled,
        n_missing_cells=n_cells - filled,
    )


def normalize_loads(
    activity: np.ndarray,
    mode: str = "global_max",
    *,
    slot_minutes: int = 10,
) -> LoadSeries:
    """Scale an activity matrix (rows = SBSs) into load factors in [0, 1].

    ``global_max`` divides everything by the single largest value, keeping
    inter-SBS magnitudes comparable; ``per_sbs_max`` divides each row by its
    own maximum so every SBS peaks at 1.

    Raises:
        DataFormatError: if the required maximum is zero (normalization
            undefined) or any activity is negative.
    """
    arr = np.asarray(activity, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"activity must be a non-empty 2-D matrix, got shape {arr.shape}")
    if arr.min() < 0.0:
        raise DataFormatError("activity values must be nonnegative")
    if mode == "global_max":
        peak = arr.max()
        if peak <= 0.0:
            raise DataFormatError("all-zero activity: global normalization undefined")
        loads = arr / peak
    elif mode == "per_sbs_max":
        peaks = arr.max(axis=1)
        dead = np.flatnonzero(peaks <= 0.0)
        if dead.size:
            raise DataFormatError(
                f"all-zero activity for SBS rows {dead.tolist()}: per-SBS "
                "normalization undefined"
            )
        loads = arr / peaks[:, None]
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return LoadSeries(loads=loads, slot_minutes=slot_minutes)


def daily_average(series: LoadSeries) -> LoadSeries:
    """Fold a series of whole days into one representative day by slot-wise mean."""
    spd = series.slots_per_day
    if series.n_slots == 0 or series.n_slots % spd:
        raise ValueError(f"series has {series.n_slots} slots, not a positive whole number of {spd}-slot days")
    folded = series.loads.reshape(series.n_sbs, series.n_slots // spd, spd).mean(axis=1)
    folded.setflags(write=False)  # LoadSeries adopts it without a copy
    return LoadSeries(loads=folded, slot_minutes=series.slot_minutes)


def default_diurnal_profile(slots_per_day: int = 144) -> np.ndarray:
    """Smooth two-peak day shape (late morning and evening), values in (0, 1]."""
    t = np.arange(slots_per_day) / slots_per_day
    morning = np.exp(-((t - 0.45) ** 2) / (2 * 0.09**2))
    evening = np.exp(-((t - 0.85) ** 2) / (2 * 0.07**2))
    profile = 0.18 + 0.85 * (0.6 * morning + 0.8 * evening)
    return np.clip(profile, 0.0, 1.0)


def synthesize_traffic(
    seed: int,
    n_sbs: int,
    grid_side: int,
    correlation_length_m: float,
    *,
    n_days: int = 1,
    n_bumps: int = 8,
    noise_std: float = 0.02,
    field_floor: float = 0.35,
) -> tuple[LoadSeries, tuple[SbsPlacement, ...]]:
    """Generate seeded, spatially correlated synthetic traffic in 10-minute slots.

    Construction: SBSs occupy distinct squares of a ``grid_side`` x
    ``grid_side`` grid (uniform draw without replacement). A smooth spatial
    intensity field is built as a superposition of ``n_bumps`` radial
    Gaussian bumps with length scale ``correlation_length_m`` and rescaled
    to [field_floor, 1]; each SBS's load is its field intensity times
    ``default_diurnal_profile``, plus small Gaussian noise, clipped to
    [0, 1]. Nearby SBSs therefore carry similar loads and the expected load
    difference grows with distance. An infinite correlation length
    collapses the field to a single shared factor, leaving only noise
    differences.

    The loads are generated ``SYNTH_BLOCK_ROWS`` SBS rows at a time, the
    noise drawn row-major, so the draws and bits do not depend on the block
    size. ``experiments.build_dataset`` draws the same blocks, finishes only
    the slots a study evaluates, folds them straight into the representative
    day and never holds the multi-day series.

    Deterministic for a given seed (PCG64 via numpy ``default_rng``).
    """
    squares, _, blocks = _synthetic_row_blocks(
        seed, n_sbs, grid_side, correlation_length_m, slots_per_day=144,
        n_days=n_days, n_bumps=n_bumps, noise_std=noise_std, field_floor=field_floor, slot_stride=1,
    )
    loads = np.empty((n_sbs, n_days * 144))
    r0 = 0
    for block in blocks:
        loads[r0 : r0 + block.shape[0]] = block.reshape(block.shape[0], -1)
        r0 += block.shape[0]
    loads.setflags(write=False)  # LoadSeries adopts it without a copy
    return LoadSeries(loads=loads, slot_minutes=10), placements_for_squares(squares.tolist(), grid_side)


def _synthetic_row_blocks(
    seed: int,
    n_sbs: int,
    grid_side: int,
    correlation_length_m: float,
    *,
    slots_per_day: int,
    n_days: int,
    n_bumps: int,
    noise_std: float,
    field_floor: float,
    slot_stride: int,
) -> tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """Check the field parameters, then place the SBSs and draw the field.

    ``slots_per_day`` must divide the day (``ExperimentConfig`` checks it),
    and the day's shape is ``default_diurnal_profile(slots_per_day)``.
    Returns the squares (1-based, distinct; SBS i sits on ``squares[i]``),
    their centres as an (n_sbs, 2) array in meters, and a generator of the
    loads in consecutive blocks of whole SBS rows (see
    ``synthesize_traffic``), each a (rows, n_days, slots) view of every
    ``slot_stride``-th slot of the day from slot 0. The noise of every slot
    is drawn, so the stream and the finished slots' bits do not depend on
    the stride; the noise scale, field and clip touch only the slots in the
    view. Every block is drawn into one reused buffer, so a block is valid
    only until the next one is drawn.
    """
    if n_sbs < 1:
        raise ValueError("n_sbs must be >= 1")
    if grid_side < 1:
        raise ValueError(f"grid_side must be >= 1, got {grid_side!r}")
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days!r}")
    if n_bumps < 0:
        raise ValueError(f"n_bumps must be nonnegative, got {n_bumps!r}")
    if n_sbs > grid_side * grid_side:
        raise ValueError(f"n_sbs {n_sbs} exceeds grid capacity {grid_side * grid_side}")
    if not correlation_length_m > 0:  # NaN fails too
        raise ValueError(
            f"correlation_length_m must be positive (may be inf), got {correlation_length_m!r}"
        )
    if not (0.0 <= field_floor < 1.0):
        raise ValueError("field_floor must lie in [0, 1)")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    profile = default_diurnal_profile(slots_per_day)

    rng = np.random.default_rng(seed)
    squares = rng.permutation(grid_side * grid_side)[:n_sbs] + 1
    pos = _square_positions(squares, grid_side)

    extent = grid_side * GRID_PITCH_M
    centers = rng.uniform(0.0, extent, size=(n_bumps, 2))
    amps = rng.uniform(0.3, 1.0, size=n_bumps)
    d2 = ((pos[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(over="ignore"):
        intensity = np.exp(-d2 / (2.0 * correlation_length_m**2)) @ amps
    span = intensity.max() - intensity.min()
    if span > 0:
        intensity = field_floor + (1.0 - field_floor) * (intensity - intensity.min()) / span
    else:
        intensity = np.ones(n_sbs)

    def blocks() -> Iterator[np.ndarray]:
        # noise_std * z + base is what ``base + rng.normal(0.0, noise_std)``
        # gives: normal draws 0.0 + noise_std * z from the same stream, and
        # 0.0 + -0.0 = +0.0 adds to base as -0.0 does.
        # The field is added through a (rows, days, slots) view, so it is
        # built per day, not per block: the same products in the same order.
        buffer = np.empty((min(n_sbs, SYNTH_BLOCK_ROWS), n_days * profile.size))
        for r0 in range(0, n_sbs, SYNTH_BLOCK_ROWS):
            block = buffer[: min(SYNTH_BLOCK_ROWS, n_sbs - r0)]
            rng.standard_normal(out=block)
            days = block.reshape(block.shape[0], n_days, profile.size)[..., ::slot_stride]
            days *= noise_std
            days += (intensity[r0 : r0 + SYNTH_BLOCK_ROWS, None] * profile[::slot_stride])[:, None, :]
            np.clip(days, 0.0, 1.0, out=days)
            yield days

    return squares, pos, blocks()


def sleep_mask(n_sbs: int, sleeping_ids: Iterable[int]) -> np.ndarray:
    """(n_sbs,) known mask, false for each given sleeping SBS.

    Raises:
        ValueError: on an id outside the network, or if every SBS would be
            masked (estimators need at least one active neighbor).
    """
    ids = sorted({int(i) for i in sleeping_ids})
    for i in ids:
        if not (0 <= i < n_sbs):
            raise ValueError(f"unknown SBS id {i} (network has {n_sbs} SBSs)")
    if len(ids) >= n_sbs:
        raise ValueError("cannot mask every SBS: nothing left to interpolate from")
    mask = np.ones(n_sbs, dtype=bool)
    mask[ids] = False
    return mask


def mask_sleepers(
    loads: np.ndarray, sleeping_ids: Iterable[int]
) -> tuple[LoadSnapshot, np.ndarray]:
    """Hide the given SBSs' loads behind the unknown sentinel.

    Returns the masked snapshot together with an untouched copy of the full
    load vector, kept as ground truth for error computation. Raises
    ``sleep_mask``'s errors.
    """
    actual = np.asarray(loads, dtype=float).copy()
    if actual.ndim != 1:
        raise ValueError("loads must be a 1-D per-SBS vector")
    snapshot = LoadSnapshot(loads=actual, known_mask=sleep_mask(actual.shape[0], sleeping_ids))
    return snapshot, actual
