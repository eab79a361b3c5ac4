import tracemalloc

import numpy as np
import pytest

from cellsleep.errors import DataFormatError
from cellsleep.traffic import (
    ACTIVITY_FIELDS,
    CDR_RECORD,
    GRID_PITCH_M,
    SYNTH_BLOCK_ROWS,
    LoadSeries,
    aggregate_activity,
    daily_average,
    default_diurnal_profile,
    mask_sleepers,
    normalize_loads,
    parse_cdr,
    placements_for_squares,
    square_center,
    synthesize_traffic,
)

MILAN_LINE = "1\t1383260400000\t39\t0.1\t0.2\t0.05\t0.05\t1.6"
SMS_IN, INTERNET = ACTIVITY_FIELDS.index("sms_in"), ACTIVITY_FIELDS.index("internet")


class TestParseCdr:
    def test_milan_line_field_mapping(self):
        records, report = parse_cdr([MILAN_LINE])
        assert len(records) == 1
        r = records[0]
        assert (r["square_id"], r["interval_start"]) == (1, 1383260400000)
        assert r["activity"].tolist() == [0.1, 0.2, 0.05, 0.05, 1.6]
        assert report.malformed == []

    def test_empty_stream(self):
        records, report = parse_cdr([])
        assert records.size == 0 and report.n_records == 0

    def test_missing_internet_column_is_zero(self):
        records, _ = parse_cdr(["7\t1383260400000\t39\t0.1\t0.2\t0.05\t0.05"])
        assert records[0]["activity"][INTERNET] == 0.0

    def test_empty_activity_cells_are_zero(self):
        records, _ = parse_cdr(["7\t1383260400000\t39\t\t\t\t\t2.5"])
        assert records[0]["activity"][SMS_IN] == 0.0 and records[0]["activity"][INTERNET] == 2.5

    def test_header_line_skipped(self):
        records, report = parse_cdr(["square_id\tinterval\tcc\tsi\tso\tci\tco\tnet", MILAN_LINE])
        assert len(records) == 1 and not report.malformed

    def test_malformed_line_reported_with_number(self):
        records, report = parse_cdr([MILAN_LINE, "oops\tnot\tdata", "3\tbad_interval\t39"])
        assert len(records) == 1
        assert [lineno for lineno, _ in report.malformed] == [2, 3]

    def test_comma_separated_accepted(self):
        records, _ = parse_cdr(["5,1383260400000,39,1,2,3,4,5"])
        assert records[0]["square_id"] == 5 and records[0]["activity"][INTERNET] == 5.0

    def test_square_out_of_bounds_raises(self):
        with pytest.raises(DataFormatError, match="square_id"):
            parse_cdr(["10001\t1383260400000\t39\t1"])

    @pytest.mark.parametrize("interval", ["inf", "-inf", "nan", "1e300"])
    def test_non_finite_or_huge_interval_reported_with_number(self, interval):
        records, report = parse_cdr([MILAN_LINE, f"2\t{interval}\t39\t1"])
        assert len(records) == 1
        assert [lineno for lineno, _ in report.malformed] == [2]

    @pytest.mark.parametrize("value", ["nan", "inf", "NaN", "-inf"])
    def test_non_finite_activity_reported_with_number(self, value):
        records, report = parse_cdr([MILAN_LINE, f"2\t1383260400000\t39\t1\t{value}", MILAN_LINE])
        assert len(records) == 2 and report.n_records == 2
        assert [lineno for lineno, _ in report.malformed] == [2]
        assert value.lstrip("-").lower() in report.malformed[0][1]


def naive_aggregate(records, weights, slot_minutes):
    """aggregate_activity record by record: each weighted sum left to right, then added in record order."""
    epoch = min(int(r["interval_start"]) for r in records)
    squares = sorted({int(r["square_id"]) for r in records})
    slots = [(int(r["interval_start"]) - epoch) // (slot_minutes * 60_000) for r in records]
    values = np.zeros((len(squares), max(slots) + 1))
    seen = set()
    for r, slot in zip(records, slots):
        combined = 0.0
        for w, a in zip(weights, r["activity"].tolist()):
            combined += w * a
        cell = (squares.index(int(r["square_id"])), slot)
        values[cell] += combined
        seen.add(cell)
    return values, squares, epoch, len(records) - len(seen), values.size - len(seen)


class TestAggregateActivity:
    def records(self):
        recs, _ = parse_cdr(
            [
                "1\t0\t39\t1\t2\t3\t4\t5",
                "1\t0\t40\t1\t1\t1\t1\t1",  # same square/slot, other country
                "2\t600000\t39\t0\t0\t0\t0\t2",
            ]
        )
        return recs

    def test_unit_weights_sum_fields(self):
        recs, _ = parse_cdr([MILAN_LINE])
        matrix = aggregate_activity(recs)
        assert matrix.values[0, 0] == pytest.approx(0.1 + 0.2 + 0.05 + 0.05 + 1.6)

    def test_same_cell_records_add(self):
        matrix = aggregate_activity(self.records())
        assert matrix.values[0, 0] == pytest.approx(15.0 + 5.0)
        assert matrix.n_duplicate_records == 1

    def test_internet_only_projection(self):
        matrix = aggregate_activity(self.records(), weights=(0, 0, 0, 0, 1))
        assert matrix.values[0, 0] == pytest.approx(6.0)
        assert matrix.values[1, 1] == pytest.approx(2.0)

    def test_missing_cells_counted(self):
        matrix = aggregate_activity(self.records())
        # 2 squares x 2 slots, 3 records covering 2 distinct cells
        assert matrix.n_missing_cells == 2

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            aggregate_activity(self.records(), weights=(0, 0, 0, 0, 0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            aggregate_activity(self.records(), weights=(bad, 1, 1, 1, 1))

    def test_no_records_rejected(self):
        with pytest.raises(DataFormatError):
            aggregate_activity([])

    @pytest.mark.parametrize("slot_minutes", [0, -10])
    def test_slot_minutes_below_one_rejected(self, slot_minutes):
        with pytest.raises(ValueError, match="slot_minutes"):
            aggregate_activity(self.records(), slot_minutes=slot_minutes)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_record_by_record_reference_bit_for_bit(self, seed):
        # Repeated cells, empty cells, unsorted intervals, non-unit weights
        # and counters of mixed magnitudes, so that the sum order shows.
        rng = np.random.default_rng(seed)
        n = 400
        records = np.empty(n, dtype=CDR_RECORD)
        records["square_id"] = rng.integers(1, 30, n)
        records["interval_start"] = 1383260400000 + rng.integers(0, 40 * 600_000, n)
        records["activity"] = rng.exponential(1.0, (n, 5)) * 10.0 ** rng.integers(-3, 4, (n, 5))
        records["activity"][rng.random((n, 5)) < 0.3] = 0.0
        weights = rng.uniform(0.1, 3.0, 5)
        slot_minutes = int(rng.choice([10, 30, 60]))
        values, squares, epoch, duplicates, missing = naive_aggregate(records, weights, slot_minutes)
        matrix = aggregate_activity(records, weights, slot_minutes=slot_minutes)
        assert matrix.values.tobytes() == values.tobytes() and matrix.values.shape == values.shape
        assert matrix.square_ids == tuple(squares) and matrix.epoch_ms == epoch
        assert (matrix.n_duplicate_records, matrix.n_missing_cells) == (duplicates, missing)
        assert duplicates > 0 and missing > 0
        assert (np.diff(records["interval_start"]) < 0).any()


class TestNormalizeLoads:
    def test_global_max_simple(self):
        series = normalize_loads(np.array([[40.0, 80.0]]), "global_max")
        assert series.loads[0, 0] == pytest.approx(0.5)

    def test_constant_series_per_sbs(self):
        series = normalize_loads(np.full((2, 4), 7.0), "per_sbs_max")
        assert (series.loads == 1.0).all()

    def test_global_max_keeps_magnitudes_comparable(self):
        activity = np.array([[10.0, 5.0], [100.0, 50.0]])
        series = normalize_loads(activity, "global_max")
        assert series.loads[0].max() == pytest.approx(0.1)
        assert series.loads[1].max() == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(DataFormatError):
            normalize_loads(np.zeros((2, 3)), "global_max")
        with pytest.raises(DataFormatError, match="rows"):
            normalize_loads(np.array([[1.0, 2.0], [0.0, 0.0]]), "per_sbs_max")

    @pytest.mark.parametrize("mode", ["global_max", "per_sbs_max"])
    def test_idempotent(self, mode, rng):
        activity = rng.uniform(0.1, 9.0, size=(5, 12))
        once = normalize_loads(activity, mode)
        twice = normalize_loads(once.loads, mode)
        assert np.abs(twice.loads - once.loads).max() <= 1e-12

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize_loads(np.ones((1, 1)), "median")


class TestDailyAverage:
    def make_series(self, values):
        return LoadSeries(loads=np.asarray(values, float), slot_minutes=10)

    def test_two_day_mean(self):
        loads = np.zeros((1, 288))
        loads[0, 0] = 0.2
        loads[0, 144] = 0.4
        day = daily_average(self.make_series(loads))
        assert day.loads[0, 0] == pytest.approx(0.3)
        assert day.n_slots == 144

    def test_single_day_identity(self):
        loads = np.linspace(0, 1, 144)[None, :]
        day = daily_average(self.make_series(loads))
        assert np.array_equal(day.loads, loads)

    def test_constant_month(self):
        day = daily_average(self.make_series(np.full((2, 30 * 144), 0.37)))
        assert np.allclose(day.loads, 0.37)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="290 slots, not a positive whole number of 144-slot days"):
            daily_average(self.make_series(np.zeros((1, 290))))


class TestSynthesizeTraffic:
    def test_deterministic_per_seed(self):
        a, pa = synthesize_traffic(seed=9, n_sbs=40, grid_side=8, correlation_length_m=500.0)
        b, pb = synthesize_traffic(seed=9, n_sbs=40, grid_side=8, correlation_length_m=500.0)
        assert a.loads.tobytes() == b.loads.tobytes()
        assert pa == pb
        c, _ = synthesize_traffic(seed=10, n_sbs=40, grid_side=8, correlation_length_m=500.0)
        assert not np.array_equal(a.loads, c.loads)

    def test_bounds(self):
        series, _ = synthesize_traffic(seed=1, n_sbs=50, grid_side=8, correlation_length_m=300.0, noise_std=0.4)
        assert series.loads.min() >= 0.0 and series.loads.max() <= 1.0

    def test_infinite_correlation_shares_one_factor(self):
        series, _ = synthesize_traffic(
            seed=2, n_sbs=30, grid_side=6, correlation_length_m=np.inf, noise_std=0.0
        )
        # A single shared spatial factor and no noise: identical rows.
        assert np.abs(series.loads - series.loads[0]).max() == 0.0

    def test_load_difference_grows_with_distance(self):
        series, placements = synthesize_traffic(
            seed=7, n_sbs=100, grid_side=10, correlation_length_m=700.0
        )
        pos = np.array([(p.x_m, p.y_m) for p in placements])
        loads = series.loads[:, 72]
        dists, diffs = [], []
        for i in range(100):
            for j in range(i + 1, 100):
                dists.append(np.hypot(*(pos[i] - pos[j])))
                diffs.append(abs(loads[i] - loads[j]))
        r = np.corrcoef(dists, diffs)[0, 1]
        assert r > 0.1  # similarity decays with distance by construction

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            synthesize_traffic(seed=0, n_sbs=101, grid_side=10, correlation_length_m=100.0)

    @pytest.mark.parametrize("grid_side", [0, -3])
    def test_nonpositive_grid_side_rejected(self, grid_side):
        # n_sbs <= grid_side^2 holds for a negative side: the side is checked first.
        with pytest.raises(ValueError, match=f"grid_side must be >= 1, got {grid_side}"):
            synthesize_traffic(seed=0, n_sbs=4, grid_side=grid_side, correlation_length_m=100.0)

    @pytest.mark.parametrize("length", [float("nan"), 0.0, -100.0])
    def test_nan_or_nonpositive_correlation_length_rejected(self, length):
        with pytest.raises(ValueError, match="correlation_length_m"):
            synthesize_traffic(seed=0, n_sbs=4, grid_side=2, correlation_length_m=length)

    @pytest.mark.parametrize("noise_std", [float("inf"), float("nan"), -0.1])
    def test_non_finite_or_negative_noise_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            synthesize_traffic(
                seed=0, n_sbs=4, grid_side=2, correlation_length_m=100.0, noise_std=noise_std
            )

    @pytest.mark.parametrize("field, kwargs", [
        ("n_days", {"n_days": 0}), ("n_days", {"n_days": -2}), ("n_bumps", {"n_bumps": -1}),
    ])
    def test_negative_or_empty_shape_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            synthesize_traffic(seed=0, n_sbs=4, grid_side=2, correlation_length_m=100.0, **kwargs)

    def test_zero_bumps_is_a_flat_field(self):
        series, _ = synthesize_traffic(
            seed=4, n_sbs=9, grid_side=3, correlation_length_m=100.0, n_bumps=0, noise_std=0.0
        )
        assert np.abs(series.loads - series.loads[0]).max() == 0.0

    @staticmethod
    def normal_formula_loads(seed, n_sbs, grid_side, correlation_length_m, n_days, noise_std):
        """``synthesize_traffic``'s loads (8 bumps, field floor 0.35) and squares,
        each block's noise added as ``base + rng.normal(0.0, noise_std, size)``."""
        rng = np.random.default_rng(seed)
        squares = rng.permutation(grid_side * grid_side)[:n_sbs] + 1
        pos = np.array([square_center(int(sq), grid_side) for sq in squares])
        centers = rng.uniform(0.0, grid_side * GRID_PITCH_M, size=(8, 2))
        amps = rng.uniform(0.3, 1.0, size=8)
        d2 = ((pos[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        intensity = np.exp(-d2 / (2.0 * correlation_length_m**2)) @ amps
        floor = 0.35
        intensity = floor + (1.0 - floor) * (intensity - intensity.min()) / (intensity.max() - intensity.min())
        day_pattern = np.tile(default_diurnal_profile(), n_days)
        blocks = []
        for r0 in range(0, n_sbs, SYNTH_BLOCK_ROWS):
            block = intensity[r0 : r0 + SYNTH_BLOCK_ROWS, None] * day_pattern
            block += rng.normal(0.0, noise_std, size=block.shape)
            blocks.append(np.clip(block, 0.0, 1.0))
        return np.concatenate(blocks), squares

    @pytest.mark.parametrize("noise_std", [0.0, 0.02])
    def test_noise_matches_the_normal_formula_bit_for_bit(self, noise_std):
        # 2 * 64 + 22 SBSs: two full blocks of the reused buffer and a short one.
        n_sbs = 2 * SYNTH_BLOCK_ROWS + 22
        series, placements = synthesize_traffic(
            seed=5, n_sbs=n_sbs, grid_side=15, correlation_length_m=600.0, n_days=2, noise_std=noise_std
        )
        loads, squares = self.normal_formula_loads(5, n_sbs, 15, 600.0, 2, noise_std)
        assert np.array_equal(series.loads.view(np.int64), loads.view(np.int64))
        assert [p.square_id for p in placements] == squares.tolist()
        assert [(p.x_m, p.y_m) for p in placements] == [square_center(int(sq), 15) for sq in squares]

    def test_peak_holds_one_series(self):
        # numpy reports its buffers to tracemalloc. The 1000 x 30-day series
        # (35 MB) is filled in place and adopted, not copied, so the peak
        # stays well under two series.
        tracemalloc.start()
        try:
            series, _ = synthesize_traffic(
                seed=3, n_sbs=1000, grid_side=40, correlation_length_m=500.0, n_days=30
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * series.loads.nbytes


class TestLoadSeries:
    def test_caller_arrays_that_stay_writable_are_copied(self):
        owner = np.full((2, 3), 0.5)
        view = owner[:, :]
        view.setflags(write=False)
        a, b = (LoadSeries(loads=x, slot_minutes=10) for x in (owner, view))
        owner[0, 0] = 0.9
        assert a.loads[0, 0] == b.loads[0, 0] == 0.5
        assert not a.loads.flags.writeable

    def test_read_only_owner_is_adopted(self):
        loads = np.full((2, 3), 0.5)
        loads.setflags(write=False)
        assert LoadSeries(loads=loads, slot_minutes=10).loads is loads

    def test_slots_per_day_follow_slot_minutes(self):
        assert LoadSeries(loads=np.zeros((1, 48)), slot_minutes=30).slots_per_day == 48

    @pytest.mark.parametrize("slot_minutes", [7, 0, -10])
    def test_slot_minutes_must_divide_the_day(self, slot_minutes):
        with pytest.raises(ValueError, match=f"^slot_minutes must divide 1440, got {slot_minutes}$"):
            LoadSeries(loads=np.zeros((1, 4)), slot_minutes=slot_minutes)


class TestGridGeometry:
    def test_adjacent_squares_exactly_one_pitch_apart(self):
        a = square_center(1, grid_side=100)
        b = square_center(2, grid_side=100)
        assert b[0] - a[0] == GRID_PITCH_M and b[1] == a[1]
        below = square_center(101, grid_side=100)
        assert below[1] - a[1] == GRID_PITCH_M and below[0] == a[0]

    def test_placements_reject_duplicate_squares(self):
        with pytest.raises(ValueError):
            placements_for_squares([3, 3], grid_side=10)

    @pytest.mark.parametrize("bad", [0, -4, 101])
    def test_placements_reject_squares_outside_the_grid(self, bad):
        with pytest.raises(ValueError, match=f"^square_id {bad} outside 1..100$"):
            placements_for_squares([5, bad, 7, 200], grid_side=10)

    def test_placements_sit_at_square_centers(self):
        placements = placements_for_squares([7, 1, 100, 42], grid_side=10)
        assert [(p.sbs_id, p.square_id) for p in placements] == [(0, 7), (1, 1), (2, 100), (3, 42)]
        assert [(p.x_m, p.y_m) for p in placements] == [square_center(sq, 10) for sq in (7, 1, 100, 42)]

    def test_default_profile_shape(self):
        profile = default_diurnal_profile()
        assert profile.shape == (144,)
        assert profile.min() > 0.0 and profile.max() <= 1.0


class TestMaskSleepers:
    def test_empty_sleeping_set(self):
        snap, actual = mask_sleepers(np.array([0.1, 0.2]), [])
        assert snap.known_mask.all()
        assert np.array_equal(actual, [0.1, 0.2])

    def test_all_sleeping_rejected(self):
        with pytest.raises(ValueError, match="every"):
            mask_sleepers(np.array([0.1, 0.2]), [0, 1])

    def test_mask_pattern(self):
        snap, actual = mask_sleepers(np.linspace(0.1, 0.5, 5), [3])
        assert snap.known_mask.tolist() == [True, True, True, False, True]
        assert np.isnan(snap.loads[3])
        assert actual[3] == pytest.approx(0.4)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            mask_sleepers(np.array([0.1, 0.2]), [5])

    def test_snapshot_is_immutable(self):
        snap, _ = mask_sleepers(np.array([0.1, 0.2, 0.3]), [1])
        with pytest.raises(ValueError):
            snap.loads[0] = 0.9
