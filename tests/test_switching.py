import itertools

import numpy as np
import pytest

from cellsleep import switching
from cellsleep.power import NetworkPowerConfig, PowerParams, network_power
from cellsleep.switching import (
    ON,
    TO_HAPS,
    TO_MBS,
    CapacityState,
    OffloadScales,
    SwitchingSolution,
    apply_offloads,
    decision_change_rate,
    objective,
    optimize_exhaustive,
    optimize_greedy,
)

from conftest import random_network_config
from naive_opt import naive_greedy, naive_optimize

HAPS = PowerParams(100.0, 3.0, 50.0, 0.0)
MBS = PowerParams(60.0, 4.0, 10.0, 30.0)
SBS = PowerParams(12.0, 2.0, 1.0, 9.0)


def uniform_config(s):
    return NetworkPowerConfig(HAPS, MBS, SBS, s)


def codes(*values):
    return np.array(values, dtype=np.int8)


def bitstring(state):
    return "".join("1" if c == ON else "0" for c in state)


def as_plain(solution):
    bits = tuple(1 if c == ON else 0 for c in solution.state)
    letters = tuple("-MH"[c] for c in solution.state)
    return bits, letters


def params_tuple(p):
    return (p.operational_power, p.amplifier_slope, p.transmit_power, p.sleep_power)


def naive_reference(loads, base_m, base_h, cfg, scales):
    return naive_optimize(
        [float(v) for v in loads],
        float(base_m),
        float(base_h),
        params_tuple(cfg.haps),
        params_tuple(cfg.mbs),
        [params_tuple(cfg.sbs)] * cfg.n_sbs,
        scales.to_mbs,
        scales.to_haps,
    )


def binding_bases(loads, scales, room):
    """Base tier loads that leave each tier room for ``room`` of the offloaded load."""
    total = float(np.sum(loads))
    return 1.0 - room * scales.to_mbs * total, 1.0 - room * scales.to_haps * total


class TestStateCodes:
    BAD_STATES = {
        "short": codes(ON, ON),
        "long": codes(ON, ON, ON, ON),
        "code_3": codes(ON, 3, ON),
        "code_-1": codes(ON, -1, ON),
        "bool_bits": np.array([True, False, True]),  # on/off bits are not codes
        "float_codes": np.array([0.0, 1.0, 0.0]),
        "2d": codes(ON, ON, ON).reshape(1, 3),
    }

    @pytest.mark.parametrize("bad", BAD_STATES.values(), ids=BAD_STATES.keys())
    def test_apply_offloads_and_objective_reject_bad_state(self, bad):
        with pytest.raises(ValueError, match="state"):
            apply_offloads(0.2, 0.2, [0.1, 0.2, 0.3], bad)
        cap = CapacityState(0.2, 0.2, 0.0, 0.0)
        with pytest.raises(ValueError, match="state"):
            objective(bad, [0.1, 0.2, 0.3], cap, uniform_config(3))

    @pytest.mark.parametrize("bad", BAD_STATES.values(), ids=BAD_STATES.keys())
    def test_decision_change_rate_rejects_bad_state(self, bad):
        with pytest.raises(ValueError, match="state"):
            decision_change_rate(codes(ON, TO_MBS, ON), bad)
        with pytest.raises(ValueError, match="state"):
            decision_change_rate(bad, codes(ON, TO_MBS, ON))

    def test_bitstring_roundtrip(self):
        state = codes(ON, TO_HAPS, ON)
        cap = apply_offloads(0.2, 0.2, [0.1, 0.2, 0.3], state)
        solution = SwitchingSolution(state, objective(state, [0.1, 0.2, 0.3], cap, uniform_config(3)),
                                     cap, "exhaustive")
        assert solution.to_json_dict()["state"] == {"on_off": "101", "targets": "-H-"}
        assert np.count_nonzero(state) == 1


class TestOffloadScales:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_rejected(self, value):
        for kwargs in ({"to_mbs": value}, {"to_haps": value}):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                OffloadScales(**kwargs)


class TestApplyOffloads:
    def test_all_on_keeps_bases(self):
        cap = apply_offloads(0.3, 0.4, [0.5, 0.6], codes(ON, ON))
        assert (cap.mbs_load, cap.haps_load) == (0.3, 0.4)
        assert cap.feasible

    def test_single_offload_arithmetic(self):
        state = codes(TO_HAPS)
        cap = apply_offloads(0.2, 0.2, [0.3], state, OffloadScales(to_mbs=0.5, to_haps=0.1))
        assert cap.haps_load == pytest.approx(0.2 + 0.03)
        assert cap.mbs_load == 0.2

    def test_overload_is_flag_not_error(self):
        state = codes(TO_MBS)
        cap = apply_offloads(0.9, 0.1, [1.0], state, OffloadScales(to_mbs=0.5, to_haps=0.1))
        assert cap.mbs_load == pytest.approx(1.4)
        assert not cap.feasible

    def test_input_validation(self):
        with pytest.raises(ValueError):
            apply_offloads(1.5, 0.2, [0.1], codes(ON))
        with pytest.raises(ValueError):
            apply_offloads(0.2, 0.2, [0.1, 0.2], codes(ON))
        with pytest.raises(ValueError):
            apply_offloads(0.2, 0.2, [1.7], codes(ON))


class TestObjective:
    def test_all_on_equals_plain_network_power(self):
        cfg = uniform_config(3)
        loads = [0.2, 0.4, 0.6]
        state = codes(ON, ON, ON)
        cap = apply_offloads(0.3, 0.3, loads, state)
        assert objective(state, loads, cap, cfg) == network_power(
            cfg, 0.3, 0.3, loads, [True, True, True]
        )

    def test_all_off_hand_sum(self):
        cfg = uniform_config(2)
        loads = [0.5, 1.0]
        scales = OffloadScales(to_mbs=0.1, to_haps=0.2)
        state = codes(TO_MBS, TO_HAPS)
        cap = apply_offloads(0.2, 0.2, loads, state, scales)
        # lam_M = 0.2 + 0.1*0.5 = 0.25 ; lam_H = 0.2 + 0.2*1.0 = 0.4
        # HAPS: 100 + 3*0.4*50 = 160 ; MBS: 60 + 4*0.25*10 = 70 ; SBS sleep: 2 * 9
        assert objective(state, loads, cap, cfg) == pytest.approx(160.0 + 70.0 + 18.0, rel=1e-12)

    def test_infeasible_state_still_evaluates(self):
        cfg = uniform_config(1)
        state = codes(TO_MBS)
        cap = CapacityState(base_mbs=0.9, base_haps=0.2, offloaded_mbs=0.4, offloaded_haps=0.0)
        assert not cap.feasible
        with pytest.raises(ValueError):
            # load above 1 must still be rejected by the power model
            objective(state, [0.5], CapacityState(1.2, 0.2, 0.0, 0.0), cfg)
        # a merely infeasible (but in-range) capacity is priceable
        value = objective(state, [0.5], CapacityState(0.9, 0.2, 0.1, 0.0), cfg)
        assert value > 0


class TestDecisionChangeRate:
    def make(self, bits):
        return np.array([ON if b == 1 else TO_MBS for b in bits], dtype=np.int8)

    def test_identical(self):
        a = self.make([1, 0, 1])
        assert decision_change_rate(a, a) == 0.0

    def test_complement(self):
        assert decision_change_rate(self.make([1, 1, 0, 0]), self.make([0, 0, 1, 1])) == 1.0

    def test_half(self):
        assert decision_change_rate(self.make([1, 1, 0, 0]), self.make([1, 0, 0, 1])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            decision_change_rate(self.make([1]), self.make([1, 0]))


class TestOptimizeExhaustive:
    def test_single_sbs_hand_brute_force(self):
        cfg = uniform_config(1)
        scales = OffloadScales(to_mbs=0.05, to_haps=0.02)
        lam = 0.1
        # ON: SBS draws 12 + 2*0.1*1 = 12.2 with bases (0.2, 0.2)
        # OFF->M: sleep 9, lam_M 0.205 -> MBS 60+4*0.205*10 = 68.2
        # OFF->H: sleep 9, lam_H 0.202 -> HAPS 100+3*0.202*50 = 130.3
        on_power = (100 + 3 * 0.2 * 50) + (60 + 4 * 0.2 * 10) + 12.2
        off_m = (100 + 3 * 0.2 * 50) + 68.2 + 9.0
        off_h = 130.3 + (60 + 4 * 0.2 * 10) + 9.0
        sol = optimize_exhaustive([lam], 0.2, 0.2, cfg, scales)
        assert sol.power == pytest.approx(min(on_power, off_m, off_h), rel=1e-12)
        assert bitstring(sol.state) == "0"
        assert sol.state[0] == TO_MBS  # 68.2+9 beats both others

    def test_zero_load_sbs_all_switched_off(self):
        cfg = uniform_config(4)
        sol = optimize_exhaustive([0.0] * 4, 0.2, 0.2, cfg)
        assert bitstring(sol.state) == "0000"
        # zero offloaded load ties MBS and HAPS costs; MBS preferred
        assert all(c == TO_MBS for c in sol.state)

    def test_saturated_tiers_force_all_on(self):
        cfg = uniform_config(3)
        sol = optimize_exhaustive([0.5, 0.6, 0.7], 1.0, 1.0, cfg)
        assert bitstring(sol.state) == "111"
        assert sol.feasible

    def test_cap_rejected(self):
        cfg = uniform_config(21)
        with pytest.raises(ValueError, match="capped"):
            optimize_exhaustive([0.1] * 21, 0.2, 0.2, cfg)

    def test_power_matches_network_power_recompute(self, rng):
        for _ in range(30):
            s = int(rng.integers(1, 7))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            sol = optimize_exhaustive(loads, 0.3, 0.3, cfg)
            recomputed = network_power(
                cfg, sol.capacity.haps_load, sol.capacity.mbs_load, loads, sol.state == ON
            )
            assert sol.power == pytest.approx(recomputed, rel=1e-12)
            assert sol.feasible

    def test_matches_naive_enumerator(self, rng):
        for trial in range(150):
            s = int(rng.integers(1, 7))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            base_m, base_h = rng.uniform(0.0, 1.0, 2)
            scales = OffloadScales(
                to_mbs=float(rng.uniform(0, 0.4)), to_haps=float(rng.uniform(0, 0.4))
            )
            sol = optimize_exhaustive(loads, base_m, base_h, cfg, scales)
            ref = naive_reference(loads, base_m, base_h, cfg, scales)
            assert ref is not None
            bits, letters = as_plain(sol)
            assert bits == ref[0], f"trial {trial}: state mismatch"
            assert letters == ref[1], f"trial {trial}: target mismatch"
            assert sol.power == pytest.approx(ref[2], rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_enumerator_with_binding_tiers(self, seed):
        # Twelve SBSs that all pay to sleep (40 W active against 9 W asleep)
        # onto tiers that each hold about half of the offloaded load: the
        # optimum switches 11 off, and their targets must share the tiers.
        rng = np.random.default_rng(seed)
        cfg = NetworkPowerConfig(HAPS, MBS, PowerParams(40.0, 2.0, 1.0, 9.0), 12)
        scales = OffloadScales()
        loads = rng.uniform(0.1, 1.0, 12)
        base_m, base_h = binding_bases(loads, scales, 0.5)
        sol = optimize_exhaustive(loads, base_m, base_h, cfg, scales)
        ref = naive_reference(loads, base_m, base_h, cfg, scales)
        assert ref[0].count(0) > 10
        assert as_plain(sol) == ref[:2]
        assert sol.power == pytest.approx(ref[2], rel=1e-9)

    def test_tie_break_prefers_lexicographically_smallest(self):
        # sleep == operational and zero loads: every state prices identically,
        # so the all-OFF vector (lexicographically smallest) must win, with
        # MBS-before-HAPS targets.
        tied = PowerParams(10.0, 2.0, 1.0, 10.0)
        cfg = NetworkPowerConfig(HAPS, MBS, tied, 3)
        sol = optimize_exhaustive([0.0, 0.0, 0.0], 0.2, 0.2, cfg)
        assert bitstring(sol.state) == "000"
        assert all(c == TO_MBS for c in sol.state)


def shift_and_mask_rows(s):
    """Every on/off row of s SBSs in index order, by the shifts the search once used."""
    shifts = np.arange(s - 1, -1, -1, dtype=np.uint64)
    return ((np.arange(1 << s, dtype=np.uint64)[:, None] >> shifts[None, :]) & 1).astype(bool)


def where_loop_sums(off, use):
    """Per row of ``off``, ``use`` summed over its OFF SBSs in id order, by the loop the search once used."""
    used = np.zeros(off.shape[0])
    for j in np.flatnonzero(use):
        used += np.where(off[:, j], use[j], 0.0)
    return used


class TestChunkedSearch:
    """The exhaustive search visits 2^s states in chunks of 2^_CHUNK_BITS and
    carries its incumbent from chunk to chunk."""

    @pytest.mark.parametrize("s", [1, 2, 13, 14, 15, 17])
    def test_rows_and_sums_match_shift_and_mask(self, rng, s):
        # Each SBS uses one tier, as the cheaper-target sums do, and some
        # use none at all.
        loads = rng.uniform(0.0, 1.0, s)
        loads[rng.random(s) < 0.3] = 0.0
        to_mbs = rng.random(s) < 0.5
        use = np.stack((0.05 * loads * to_mbs, 0.02 * loads * ~to_mbs))
        chunks = list(switching._state_chunks(use))
        assert len(chunks) == 1 << max(0, s - switching._CHUNK_BITS)
        assert all(on.dtype == bool and on.flags.c_contiguous for on, _ in chunks)
        rows = shift_and_mask_rows(s)
        np.testing.assert_array_equal(np.concatenate([on for on, _ in chunks]), rows)
        used = np.concatenate([used for _, used in chunks], axis=1)
        for tier in range(2):
            assert used[tier].tobytes() == where_loop_sums(~rows, use[tier]).tobytes()

    def instances(self, s):
        """Twenty seeded instances of s SBSs: random power models, loads and
        tier bases (each tier holds every SBS's offloaded load, so a solve
        stays fast), then one whose optimum keeps SBSs 0 and 1 on (a state
        past the first chunk) and one where every state prices the same."""
        rng = np.random.default_rng(s)
        for _ in range(18):
            scales = OffloadScales(float(rng.uniform(0, 0.03)), float(rng.uniform(0, 0.03)))
            yield rng.uniform(0, 1, s), *rng.uniform(0.0, 0.5, 2), random_network_config(rng, s), scales
        # At these scales an SBS sleeps below load 1/6 (TestOptimizeGreedy).
        yield np.array([0.9, 0.8] + [0.01] * (s - 2)), 0.05, 0.05, uniform_config(s), TestOptimizeGreedy.SCALES
        tied = NetworkPowerConfig(HAPS, MBS, PowerParams(10.0, 2.0, 1.0, 10.0), s)
        yield np.zeros(s), 0.2, 0.2, tied, OffloadScales()

    @staticmethod
    def solve_both_ways(monkeypatch, loads, base_m, base_h, cfg, scales):
        chunked = optimize_exhaustive(loads, base_m, base_h, cfg, scales)
        with monkeypatch.context() as m:
            m.setattr(switching, "_CHUNK_BITS", 16)  # one chunk at s <= 16
            whole = optimize_exhaustive(loads, base_m, base_h, cfg, scales)
        assert chunked.state.tobytes() == whole.state.tobytes()
        assert chunked.power.hex() == whole.power.hex()
        assert chunked.capacity == whole.capacity
        return chunked

    @pytest.mark.parametrize("s", [15, 16])
    def test_chunks_give_the_one_chunk_optimum(self, monkeypatch, s):
        solutions = [self.solve_both_ways(monkeypatch, *case) for case in self.instances(s)]
        *_, late, tied = solutions
        assert late.state.tolist() == [ON, ON] + [TO_MBS] * (s - 2)  # index 3 * 2^(s-2), in the last chunk
        assert tied.state.tolist() == [TO_MBS] * s  # index 0: no later chunk ties its way in

    def test_chunks_give_the_one_chunk_optimum_with_binding_tiers(self, monkeypatch):
        rng = np.random.default_rng(15)
        loads = rng.uniform(0.1, 1.0, 15)
        scales = OffloadScales()
        base_m, base_h = binding_bases(loads, scales, 0.5)
        sol = self.solve_both_ways(monkeypatch, loads, base_m, base_h, uniform_config(15), scales)
        # Half the load fits the tiers, so the optimum sends some SBSs to each.
        assert {TO_MBS, TO_HAPS} <= set(sol.state.tolist())


def enumerate_offloads(model, off_ids):
    """Plain enumeration of every target assignment, left-to-right sums in id
    order, each tier feasible while its base load plus that sum is at most 1.

    Candidates come in lexicographic MBS-before-HAPS order and only a strict
    improvement replaces the incumbent, so the first optimum wins ties.
    """
    cost_rows, use_rows = model.cost.tolist(), model.use.tolist()
    _, base_m, base_h = model.base_load.tolist()
    best = None
    for combo in itertools.product((TO_MBS, TO_HAPS), repeat=len(off_ids)):
        cost = used_m = used_h = 0.0
        for j, tgt in zip(off_ids.tolist(), combo):
            cost += cost_rows[tgt][j]
            if tgt == TO_MBS:
                used_m += use_rows[tgt][j]
            else:
                used_h += use_rows[tgt][j]
        if base_m + used_m <= 1.0 and base_h + used_h <= 1.0 and (best is None or cost < best[0]):
            best = (cost, list(combo))
    return best


class TestAssignOffloads:
    S = 16
    DEFAULT = OffloadScales()
    # (loads, scales, tier bases): "binding" leaves each tier room for 60 %
    # of the OFF set's offloaded load, so neither tier takes it all; equal
    # and zero loads tie many assignments; full tiers fit none.
    CASES = {
        "random_binding": ("random", DEFAULT, "binding"),
        "random_loose": ("random", DEFAULT, (0.2, 0.2)),
        "equal_binding": ("equal", DEFAULT, "binding"),
        "zero_binding": ("zero", DEFAULT, "binding"),
        "free_mbs": ("random", OffloadScales(to_mbs=0.0, to_haps=0.02), "binding"),
        "free_haps": ("random", OffloadScales(to_mbs=0.05, to_haps=0.0), "binding"),
        "equal_free_haps": ("equal", OffloadScales(to_mbs=0.05, to_haps=0.0), (0.99, 1.0)),
        "full_tiers": ("random", DEFAULT, (1.0, 1.0)),
    }

    @pytest.mark.parametrize("m", range(15))
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_plain_enumeration(self, rng, m, case):
        kind, scales, bases = case
        loads = {
            "random": rng.uniform(0.1, 1.0, self.S),
            "equal": np.full(self.S, 0.5),
            "zero": np.zeros(self.S),
        }[kind]
        off_ids = np.sort(rng.choice(self.S, m, replace=False))
        base_m, base_h = binding_bases(loads[off_ids], scales, 0.6) if bases == "binding" else bases
        model = switching._linear_model(loads, base_m, base_h, uniform_config(self.S), scales)
        expected = enumerate_offloads(model, off_ids)
        assert switching._assign_offloads(model, off_ids) == expected
        if bases == (1.0, 1.0) and m:
            assert expected is None


class TestOptimizeGreedy:
    # Offload pricing per unit load with these scales: MBS 4*10*0.5 = 20 W,
    # HAPS 3*50*0.5 = 75 W, against an off saving of 3 + 2*load W, so the
    # switch-off crossover sits at load 3/18.
    SCALES = OffloadScales(to_mbs=0.5, to_haps=0.5)

    def test_all_on_when_exhaustive_says_all_on(self):
        cfg = uniform_config(3)
        sol_ex = optimize_exhaustive([0.9, 0.95, 1.0], 0.2, 0.2, cfg, self.SCALES)
        sol_gr = optimize_greedy([0.9, 0.95, 1.0], 0.2, 0.2, cfg, self.SCALES)
        assert bitstring(sol_ex.state) == "111"
        assert bitstring(sol_gr.state) == "111"

    def test_zero_load_sbs_switched_off(self):
        cfg = uniform_config(5)
        sol = optimize_greedy([0.0, 0.0, 0.9, 0.0, 0.95], 0.2, 0.2, cfg, self.SCALES)
        assert bitstring(sol.state) == "00101"

    def test_zero_load_ties_go_to_the_mbs(self):
        # HAPS is cheaper per unit load here (3*50*0.01 = 1.5 W against
        # 4*10*0.5 = 20 W), but a zero load costs 0 W on either tier: the
        # tie goes to the MBS, and the loaded SBS goes to the HAPS.
        scales = OffloadScales(to_mbs=0.5, to_haps=0.01)
        sol = optimize_greedy([0.0, 0.1, 0.0], 0.2, 0.2, uniform_config(3), scales)
        assert "".join("-MH"[c] for c in sol.state) == "MHM"

    def test_never_beats_exhaustive(self, rng):
        for _ in range(150):
            s = int(rng.integers(1, 8))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            base_m, base_h = rng.uniform(0.0, 0.9, 2)
            scales = OffloadScales(
                to_mbs=float(rng.uniform(0, 0.3)), to_haps=float(rng.uniform(0, 0.3))
            )
            ex = optimize_exhaustive(loads, base_m, base_h, cfg, scales)
            gr = optimize_greedy(loads, base_m, base_h, cfg, scales)
            assert gr.power >= ex.power - 1e-9
            assert gr.feasible

    def test_matches_naive_greedy(self, rng):
        # Base loads up to 0.99 and scales up to 0.3 make the tiers bind.
        # Every third trial zeroes some loads (both tiers then cost 0 W, a
        # tie), every third repeats a few values (ties in the scan order).
        for trial in range(300):
            s = int(rng.integers(1, 41))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            if trial % 3 == 1:
                loads[rng.random(s) < 0.4] = 0.0
            elif trial % 3 == 2:
                loads = rng.choice(loads[: max(1, s // 4)], s)
            base_m, base_h = rng.uniform(0.0, 0.99, 2)
            scales = OffloadScales(
                to_mbs=float(rng.uniform(0, 0.3)), to_haps=float(rng.uniform(0, 0.3))
            )
            sol = optimize_greedy(loads, base_m, base_h, cfg, scales)
            ref = naive_greedy(
                [float(v) for v in loads],
                float(base_m),
                float(base_h),
                params_tuple(cfg.haps),
                params_tuple(cfg.mbs),
                [params_tuple(cfg.sbs)] * cfg.n_sbs,
                scales.to_mbs,
                scales.to_haps,
            )
            assert as_plain(sol) == ref[:2], f"trial {trial} (s={s})"
            assert sol.power == pytest.approx(ref[2], rel=1e-9)

    def test_free_offload_sleeps_every_profitable_sbs(self, rng):
        # With zero conversion factors, any SBS whose sleep power undercuts
        # its active draw must be off in the exhaustive optimum.
        scales = OffloadScales(to_mbs=0.0, to_haps=0.0)
        for _ in range(20):
            s = int(rng.integers(1, 7))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            sol = optimize_exhaustive(loads, 0.5, 0.5, cfg, scales)
            p = cfg.sbs
            for j in range(s):
                active = p.operational_power + p.amplifier_slope * loads[j] * p.transmit_power
                if p.sleep_power < active:
                    assert sol.state[j] != ON


class TestTierBoundary:
    """A tier filled to within rounding of unit load: both optimizers decide by
    ``CapacityState``'s rule, so the state they return is one that it accepts
    and ``network_power`` prices. ``naive_opt`` is not asked about these cases."""

    MBS = PowerParams(130.0, 0.1, 1.0, 75.0)
    SBS = PowerParams(12.0, 2.0, 1.0, 9.0)
    UNIT = OffloadScales(1.0, 1.0)

    def assert_priced(self, sol, loads, base_m, base_h, cfg):
        assert apply_offloads(base_m, base_h, loads, sol.state, self.UNIT).feasible
        power = network_power(cfg, sol.capacity.haps_load, sol.capacity.mbs_load, loads, sol.state == ON)
        assert sol.feasible and sol.power == power

    def test_greedy_settles_a_scan_order_fit_by_the_id_order_sum(self):
        # In scan order 0.03 + 0.33 + 0.54 is 0.9, which fits 1 - 0.1; in id
        # order 0.54 + 0.03 + 0.33 is 0.9000000000000001, which does not.
        cfg = NetworkPowerConfig(PowerParams(220.0, 6.0, 120.0, 0.0), self.MBS, self.SBS, 3)
        loads = [0.54, 0.03, 0.33]
        sol = optimize_greedy(loads, 0.1, 0.95, cfg, self.UNIT)
        self.assert_priced(sol, loads, 0.1, 0.95, cfg)
        assert sol.state.tolist() == [ON, TO_MBS, TO_MBS]

    def test_exhaustive_sums_tier_use_in_id_order(self):
        # A BLAS product of the cheaper targets' use fits 1 - 0.1 where the
        # id-order sum plus the base exceeds 1.
        cfg = NetworkPowerConfig(PowerParams(220.0, 0.1, 1.0, 0.0), self.MBS, self.SBS, 10)
        loads = [0.51, 0.46, 0.38, 0.33, 0.18, 0.55, 0.15, 0.19, 0.54, 0.36]
        sol = optimize_exhaustive(loads, 0.1, 0.9, cfg, self.UNIT)
        self.assert_priced(sol, loads, 0.1, 0.9, cfg)

    @pytest.mark.parametrize("optimizer, s_max", [(optimize_greedy, 12), (optimize_exhaustive, 8)])
    def test_two_decimal_loads_give_feasible_states(self, optimizer, s_max):
        # Every SBS saves power asleep and the tiers cost little, so the
        # optimizers fill the tiers; each tier's room is a sum of the smallest
        # loads, which the greedy's ascending scan can fill exactly.
        rng = np.random.default_rng(2402)
        for trial in range(300):
            s = int(rng.integers(2, s_max + 1))
            cfg = NetworkPowerConfig(PowerParams(220.0, 0.1, 1.0, 0.0), self.MBS, self.SBS, s)
            loads = np.round(rng.uniform(0.0, 1.0, s), 2)
            room = np.concatenate([[0.0], np.cumsum(np.sort(loads))])
            base_m, base_h = (min(1.0, max(0.0, round(1.0 - room[int(rng.integers(s + 1))], 2))) for _ in "mh")
            sol = optimizer(loads, base_m, base_h, cfg, self.UNIT)
            assert apply_offloads(base_m, base_h, loads, sol.state, self.UNIT).feasible, f"trial {trial}"


class TestPricingKernel:
    def test_prices_as_the_checked_functions(self, rng):
        # Decisions made on noisy loads, and random states, priced at the
        # actual loads. Base loads of 0.9-0.99 in every other instance make
        # the tiers bind, so some deployed decisions overload a tier.
        overloaded = {"decision": 0, "random": 0}
        for trial in range(300):
            s = int(rng.integers(1, 13))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            if trial % 3 == 1:
                loads[rng.random(s) < 0.4] = 0.0
            base_m, base_h = rng.uniform(0.9, 0.99, 2) if trial % 2 else rng.uniform(0.0, 1.0, 2)
            scales = OffloadScales(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3)))
            estimated = np.clip(loads + rng.normal(0.0, 0.2, s), 0.0, 1.0)
            optimizer = optimize_exhaustive if s <= 8 else optimize_greedy
            decision = optimizer(estimated, base_m, base_h, cfg, scales)
            # The solution's own pricing at the loads it was solved for.
            assert decision.capacity == apply_offloads(base_m, base_h, estimated, decision.state, scales)
            assert decision.power == objective(decision.state, estimated, decision.capacity, cfg)
            random_state = rng.integers(ON, TO_HAPS + 1, s).astype(np.int8)
            for kind, state in (("decision", decision.state), ("random", random_state)):
                capacity, power = switching._priced(state, loads, base_m, base_h, cfg, scales)
                assert capacity == apply_offloads(base_m, base_h, loads, state, scales)
                capped = min(capacity.haps_load, 1.0), min(capacity.mbs_load, 1.0)
                assert power == network_power(cfg, *capped, loads, state == ON)
                if capacity.feasible:
                    assert power == objective(state, loads, capacity, cfg)
                else:
                    overloaded[kind] += 1
                    with pytest.raises(ValueError, match="load must lie in"):
                        objective(state, loads, capacity, cfg)
        assert min(overloaded.values()) >= 10, overloaded


class TestHandEnumeratedDecisionChange:
    def test_single_sbs_estimate_flips_decision(self):
        # Hand enumeration: at load 0.1 OFF wins, at 0.9 ON wins (see
        # TestOptimizeExhaustive::test_single_sbs_hand_brute_force scale).
        cfg = uniform_config(1)
        scales = OffloadScales(to_mbs=0.5, to_haps=0.5)
        actual = optimize_exhaustive([0.1], 0.2, 0.2, cfg, scales)
        estimated = optimize_exhaustive([0.9], 0.2, 0.2, cfg, scales)
        assert bitstring(actual.state) == "0"
        assert bitstring(estimated.state) == "1"
        assert decision_change_rate(actual.state, estimated.state) == 1.0
        same = optimize_exhaustive([0.12], 0.2, 0.2, cfg, scales)
        assert decision_change_rate(actual.state, same.state) == 0.0
