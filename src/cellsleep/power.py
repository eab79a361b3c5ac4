"""Affine base-station power model and network-wide totals.

Every station draws an operational (circuit) power plus a load-proportional
amplifier term while active, and a distinct sleep power while off:

    active:  P = P_op + slope * load * P_tx      (load in [0, 1])
    asleep:  P = P_sleep

The macro and HAPS tiers are always active; small base stations (SBSs)
toggle between the two branches and, as in the paper, all share one set
of coefficients. Whether a station is active is carried by an explicit
boolean, never by a zero load: an active station at zero load still draws
its operational power.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PowerParams:
    """Per-station power coefficients, all in watts except the slope.

    Attributes:
        operational_power: circuit power drawn whenever the station is active.
        amplifier_slope:   dimensionless multiplier on (load * transmit_power).
        transmit_power:    maximum transmit power.
        sleep_power:       power drawn while asleep; must not exceed the
                           operational power (sleeping cannot cost more than
                           sitting idle while active).
    """

    operational_power: float
    amplifier_slope: float
    transmit_power: float
    sleep_power: float

    def __post_init__(self) -> None:
        for name in ("operational_power", "amplifier_slope", "transmit_power", "sleep_power"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.sleep_power > self.operational_power:
            raise ValueError(
                f"sleep_power ({self.sleep_power}) exceeds operational_power "
                f"({self.operational_power})"
            )

    def active_power(self, load):
        """Active power at ``load`` (a float or an array), unchecked."""
        return self.operational_power + self.amplifier_slope * load * self.transmit_power


@dataclass(frozen=True)
class NetworkPowerConfig:
    """Power coefficients for one HAPS, one MBS and ``n_sbs`` >= 1 SBSs that share ``sbs``."""

    haps: PowerParams
    mbs: PowerParams
    sbs: PowerParams
    n_sbs: int

    def __post_init__(self) -> None:
        if self.n_sbs < 1:
            raise ValueError("a network needs at least one SBS (s >= 1)")


def _check_load(load: float) -> None:
    if not (0.0 <= load <= 1.0):
        raise ValueError(f"load must lie in [0, 1], got {load!r}")


def station_power(params: PowerParams, load: float, is_on: bool = True) -> float:
    """Instantaneous power of one station in watts.

    Active stations draw ``operational_power + slope * load * transmit_power``
    over the whole closed load interval [0, 1]; sleeping stations draw
    ``sleep_power`` and the load value does not enter the result (it is
    still range-checked to catch sentinel leaks).

    Raises:
        ValueError: if load is outside [0, 1] or not a number.
    """
    _check_load(load)
    return params.active_power(load) if is_on else params.sleep_power


def network_power(
    config: NetworkPowerConfig,
    haps_load: float,
    mbs_load: float,
    sbs_loads: Sequence[float],
    on_off: Sequence[bool],
) -> float:
    """Total instantaneous network power in watts.

    HAPS and MBS are always active. Each SBS contributes its active term
    when ``on_off[j]`` is true and its sleep power otherwise, so the result
    is the plain sum of per-station powers, added left to right: HAPS, MBS,
    then SBS 0, 1, ...

    Raises:
        ValueError: if the SBS load or state vectors do not match the
            configured SBS count, or any load is out of range (HAPS first,
            then MBS, then the first bad SBS, as ``station_power`` names it).
    """
    if len(sbs_loads) != config.n_sbs or len(on_off) != config.n_sbs:
        raise ValueError(
            f"expected {config.n_sbs} SBS loads/states, got "
            f"{len(sbs_loads)} loads and {len(on_off)} states"
        )
    _check_load(haps_load)
    _check_load(mbs_load)
    loads = np.asarray(sbs_loads, dtype=float)
    bad = np.flatnonzero(~((loads >= 0.0) & (loads <= 1.0)))
    if bad.size:  # the first bad load, as the caller passed it
        _check_load(sbs_loads[bad[0]])
    return _network_power(config, haps_load, mbs_load, loads, np.asarray(on_off, dtype=bool))


def _network_power(
    config: NetworkPowerConfig, haps_load: float, mbs_load: float, loads: np.ndarray, on: np.ndarray
) -> float:
    """``network_power`` without its checks: ``loads`` and ``on`` are float and
    bool arrays of ``config.n_sbs`` entries, and every load lies in [0, 1]."""
    tiers = config.haps.active_power(haps_load) + config.mbs.active_power(mbs_load)
    per_sbs = np.where(on, config.sbs.active_power(loads), config.sbs.sleep_power)
    # Left to right from the tiers, as a running Python sum would add them.
    return float(np.cumsum(np.concatenate(([tiers], per_sbs)))[-1])
