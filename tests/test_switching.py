import numpy as np
import pytest

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
    return NetworkPowerConfig.uniform(HAPS, MBS, SBS, s)


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
            ref = naive_optimize(
                [float(v) for v in loads],
                float(base_m),
                float(base_h),
                params_tuple(cfg.haps),
                params_tuple(cfg.mbs),
                [params_tuple(p) for p in cfg.sbs],
                scales.to_mbs,
                scales.to_haps,
            )
            assert ref is not None
            bits, letters = as_plain(sol)
            assert bits == ref[0], f"trial {trial}: state mismatch"
            assert letters == ref[1], f"trial {trial}: target mismatch"
            assert sol.power == pytest.approx(ref[2], rel=1e-9)

    def test_tie_break_prefers_lexicographically_smallest(self):
        # sleep == operational and zero loads: every state prices identically,
        # so the all-OFF vector (lexicographically smallest) must win, with
        # MBS-before-HAPS targets.
        tied = PowerParams(10.0, 2.0, 1.0, 10.0)
        cfg = NetworkPowerConfig.uniform(HAPS, MBS, tied, 3)
        sol = optimize_exhaustive([0.0, 0.0, 0.0], 0.2, 0.2, cfg)
        assert bitstring(sol.state) == "000"
        assert all(c == TO_MBS for c in sol.state)


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
        for trial in range(200):
            s = int(rng.integers(1, 41))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
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
                [params_tuple(p) for p in cfg.sbs],
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
            for j, p in enumerate(cfg.sbs):
                active = p.operational_power + p.amplifier_slope * loads[j] * p.transmit_power
                if p.sleep_power < active:
                    assert sol.state[j] != ON


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
