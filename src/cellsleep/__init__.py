"""Sleeping small-cell load estimation and energy-aware cell switching.

The package simulates a vertical heterogeneous network (one HAPS super
macro station, one macro station, many small base stations), estimates the
traffic load of sleeping small cells by spatial interpolation, and
quantifies how estimation error changes switch-off decisions and total
network power.
"""

from .power import NetworkPowerConfig, PowerParams, network_power, station_power
from .traffic import (
    CDR_RECORD,
    LoadSeries,
    LoadSnapshot,
    SbsPlacement,
    aggregate_activity,
    daily_average,
    mask_sleepers,
    normalize_loads,
    parse_cdr,
    synthesize_traffic,
)

__version__ = "0.1.0"

__all__ = [
    "CDR_RECORD",
    "LoadSeries",
    "LoadSnapshot",
    "NetworkPowerConfig",
    "PowerParams",
    "SbsPlacement",
    "aggregate_activity",
    "daily_average",
    "mask_sleepers",
    "network_power",
    "normalize_loads",
    "parse_cdr",
    "station_power",
    "synthesize_traffic",
    "__version__",
]
