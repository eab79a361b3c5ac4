import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellsleep.power import NetworkPowerConfig, PowerParams, network_power, station_power

from conftest import random_network_config

PARAMS = PowerParams(operational_power=10.0, amplifier_slope=2.0, transmit_power=5.0, sleep_power=1.0)


class TestStationPower:
    def test_sleep_branch(self):
        assert station_power(PARAMS, 0.0, is_on=False) == 1.0

    def test_active_half_load(self):
        # 10 + 2 * 0.5 * 5
        assert station_power(PARAMS, 0.5, is_on=True) == pytest.approx(15.0, rel=1e-12)

    def test_active_full_load(self):
        # 10 + 2 * 1 * 5
        assert station_power(PARAMS, 1.0, is_on=True) == pytest.approx(20.0, rel=1e-12)

    def test_active_zero_load_draws_operational(self):
        assert station_power(PARAMS, 0.0, is_on=True) == 10.0

    def test_sleeping_ignores_load_value(self):
        assert station_power(PARAMS, 0.7, is_on=False) == 1.0

    @pytest.mark.parametrize("load", [-0.1, 1.5, float("nan")])
    def test_load_out_of_range_rejected(self, load):
        with pytest.raises(ValueError):
            station_power(PARAMS, load, is_on=True)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            PowerParams(-1.0, 2.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            PowerParams(10.0, -2.0, 5.0, 1.0)

    def test_sleep_above_operational_rejected(self):
        with pytest.raises(ValueError, match="sleep_power"):
            PowerParams(operational_power=5.0, amplifier_slope=1.0, transmit_power=1.0, sleep_power=6.0)

    @given(
        lo=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        frac=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_strictly_increasing_in_load(self, lo, frac):
        hi = lo + (1.0 - lo) * frac
        if hi <= 1.0 and hi - lo >= 1e-9:  # gap large enough to be visible in watts
            assert station_power(PARAMS, hi) > station_power(PARAMS, lo)


class TestNetworkPower:
    def make_config(self, s=3):
        return NetworkPowerConfig(
            haps=PowerParams(100.0, 3.0, 50.0, 0.0),
            mbs=PowerParams(50.0, 4.0, 10.0, 20.0),
            sbs=PARAMS,
            n_sbs=s,
        )

    def test_all_sbs_off(self):
        cfg = self.make_config(s=3)
        # HAPS: 100 + 3*0.2*50 = 130; MBS: 50 + 4*0.2*10 = 58; SBS: 3 * 1
        total = network_power(cfg, 0.2, 0.2, [0.4, 0.5, 0.6], [False, False, False])
        assert total == pytest.approx(130.0 + 58.0 + 3.0, rel=1e-12)

    def test_single_sbs_on(self):
        cfg = self.make_config(s=1)
        total = network_power(cfg, 0.2, 0.2, [0.5], [True])
        assert total == pytest.approx(130.0 + 58.0 + 15.0, rel=1e-12)

    def test_empty_sbs_list_rejected(self):
        with pytest.raises(ValueError):
            NetworkPowerConfig(haps=PARAMS, mbs=PARAMS, sbs=PARAMS, n_sbs=0)

    def test_length_mismatch_rejected(self):
        cfg = self.make_config(s=3)
        with pytest.raises(ValueError):
            network_power(cfg, 0.1, 0.1, [0.5, 0.5], [True, True, True])
        with pytest.raises(ValueError):
            network_power(cfg, 0.1, 0.1, [0.5, 0.5, 0.5], [True, True])

    def test_additivity_against_independent_sum(self, rng):
        for _ in range(200):
            s = int(rng.integers(1, 8))
            cfg = random_network_config(rng, s)
            haps_load, mbs_load = rng.uniform(0, 1, 2)
            loads = rng.uniform(0, 1, s)
            on = rng.random(s) < 0.5
            expected = (
                station_power(cfg.haps, haps_load)
                + station_power(cfg.mbs, mbs_load)
                + sum(station_power(cfg.sbs, l, o) for l, o in zip(loads, on))
            )
            got = network_power(cfg, haps_load, mbs_load, loads, on)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_switching_consistency_delta(self, rng):
        # Flipping one SBS ON(load) -> OFF changes total by P_S - (P_O + slope*load*P_T).
        for _ in range(300):
            s = int(rng.integers(1, 6))
            cfg = random_network_config(rng, s)
            loads = rng.uniform(0, 1, s)
            on = [True] * s
            j = int(rng.integers(s))
            before = network_power(cfg, 0.3, 0.3, loads, on)
            on[j] = False
            after = network_power(cfg, 0.3, 0.3, loads, on)
            p = cfg.sbs
            expected_delta = p.sleep_power - (
                p.operational_power + p.amplifier_slope * loads[j] * p.transmit_power
            )
            assert after - before == pytest.approx(expected_delta, rel=1e-9, abs=1e-9)

    def test_total_is_the_left_to_right_sum(self, rng):
        # Bit for bit: HAPS, MBS, then every SBS in id order, one at a time.
        for _ in range(100):
            s = int(rng.integers(1, 400))
            cfg = random_network_config(rng, s)
            haps_load, mbs_load = rng.uniform(0, 1, 2).tolist()
            loads = rng.uniform(0, 1, s)
            on = rng.random(s) < 0.5
            expected = station_power(cfg.haps, haps_load)
            expected += station_power(cfg.mbs, mbs_load)
            for load, is_on in zip(loads.tolist(), on.tolist()):
                expected += station_power(cfg.sbs, load, is_on)
            assert network_power(cfg, haps_load, mbs_load, loads, on) == expected
            assert network_power(cfg, haps_load, mbs_load, loads.tolist(), on.tolist()) == expected

    @pytest.mark.parametrize("as_array", [False, True])
    def test_bad_load_message_names_the_first_bad_station(self, rng, as_array):
        cfg = random_network_config(rng, 5)

        def message(value):
            return f"^{re.escape(f'load must lie in [0, 1], got {value!r}')}$"

        loads = [0.5, 1.5, 0.2, float("nan"), -0.1]
        if as_array:
            loads = np.array(loads)
        on = [True, False, True, True, False]
        # HAPS first, then MBS, then the first bad SBS (asleep or not),
        # each with the repr of the value as passed.
        with pytest.raises(ValueError, match=message(1.2)):
            network_power(cfg, 1.2, -0.5, loads, on)
        with pytest.raises(ValueError, match=message(-0.5)):
            network_power(cfg, 0.5, -0.5, loads, on)
        with pytest.raises(ValueError, match=message(loads[1])):
            network_power(cfg, 0.5, 0.5, loads, on)
        loads[1] = 0.7
        with pytest.raises(ValueError, match=message(loads[3])):
            network_power(cfg, 0.5, 0.5, loads, on)
        with pytest.raises(ValueError, match=message(float("nan"))):
            network_power(cfg, float("nan"), 0.5, [0.5] * 5, on)
