"""Experiment configuration, shipped profiles and config hashing.

The default power coefficients below are illustrative: they are chosen so
that the always-on HAPS and macro tiers dominate a small cell by roughly an
order of magnitude and so that the switch-off decision genuinely depends
on the load (a lightly loaded SBS is worth sleeping, a busy one is not).
They are not measurements. Override them in the config file for real
studies.

Two profiles ship with the package: ``desk`` (100 SBSs, 50 iterations,
every 12th slot) runs the full study suite in minutes, ``paper`` mirrors
the reference simulation scale (5000 SBSs, 144 slots, 30 days, 300
iterations, clustering k pinned to 3).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimators import MlcConfig, check_epsilon
from .power import PowerParams
from .switching import EXHAUSTIVE_SBS_CAP, OffloadScales

DEFAULT_HAPS_POWER = PowerParams(
    operational_power=220.0, amplifier_slope=6.0, transmit_power=120.0, sleep_power=0.0
)
DEFAULT_MBS_POWER = PowerParams(
    operational_power=130.0, amplifier_slope=15.0, transmit_power=25.0, sleep_power=75.0
)
DEFAULT_SBS_POWER = PowerParams(
    operational_power=12.0, amplifier_slope=2.0, transmit_power=1.0, sleep_power=9.0
)


def sleeper_count(sleep_fraction: float, n_sbs: int) -> int:
    """How many of ``n_sbs`` SBSs sleep: the rounded fraction, at least one.

    Raises:
        ConfigError: unless 0 < ``sleep_fraction`` < 1.
    """
    if not (0.0 < sleep_fraction < 1.0):
        raise ConfigError(f"sleep_fraction must lie strictly between 0 and 1, got {sleep_fraction}")
    return max(1, round(sleep_fraction * n_sbs))


def draw_sleepers(sleep_fraction: float, n_sbs: int, seed: int) -> np.ndarray:
    """The ``sleeper_count`` first ids of one seeded ``rng.permutation(n_sbs)``, sorted."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(n_sbs)[: sleeper_count(sleep_fraction, n_sbs)])


# Keys that count or index something; mlc_k_override may also be None (elbow-selected k).
_INTEGER_KEYS = (
    "n_sbs", "n_days", "n_iterations", "slot_stride", "slots_per_day", "slot_minutes", "grid_side",
    "n_field_bumps", "base_seed", "exhaustive_cap", "mlc_k_override",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; defaults mirror the reference scale."""

    # population and time axis
    n_sbs: int = 5000
    slots_per_day: int = 144
    slot_minutes: int = 10
    n_days: int = 30
    n_iterations: int = 300
    sleep_fraction: float = 0.1
    base_seed: int = 0
    slot_stride: int = 1  # evaluate every k-th slot of the day
    epsilon: float = 1e-3  # relative-error exclusion threshold

    # data source
    data_source: str = "synthetic"  # "synthetic" | "milan"
    loads_csv: str | None = None
    placements_json: str | None = None

    # synthetic field shape
    grid_side: int = 100
    correlation_length_m: float = 2000.0
    n_field_bumps: int = 8
    noise_std: float = 0.01
    field_floor: float = 0.30

    # clustering
    mlc_k_override: int | None = None

    # power model and offloading
    haps_power: PowerParams = DEFAULT_HAPS_POWER
    mbs_power: PowerParams = DEFAULT_MBS_POWER
    sbs_power: PowerParams = DEFAULT_SBS_POWER
    base_mbs_load: float = 0.2
    base_haps_load: float = 0.2
    offload_to_mbs: float = 0.05
    offload_to_haps: float = 0.02
    exhaustive_cap: int = EXHAUSTIVE_SBS_CAP

    profile: str = "custom"

    def __post_init__(self) -> None:
        for key in _INTEGER_KEYS:
            value = getattr(self, key)
            if key == "mlc_k_override" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.n_sbs < 1:
            raise ConfigError("n_sbs must be >= 1")
        if self.slots_per_day * self.slot_minutes != 1440:
            raise ConfigError("slots_per_day * slot_minutes must equal 1440")
        if self.n_days < 1 or self.n_iterations < 1 or self.slot_stride < 1:
            raise ConfigError("n_days, n_iterations and slot_stride must be >= 1")
        sleeper_count(self.sleep_fraction, self.n_sbs)  # rejects a fraction outside (0, 1)
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed!r}")
        if self.data_source not in ("synthetic", "milan"):
            raise ConfigError(f"unknown data_source {self.data_source!r}")
        if self.data_source == "milan" and not self.loads_csv:
            raise ConfigError("data_source 'milan' requires loads_csv")
        if self.data_source == "milan" and not self.placements_json:
            raise ConfigError("data_source 'milan' requires placements_json")
        if not (0.0 <= self.base_mbs_load <= 1.0 and 0.0 <= self.base_haps_load <= 1.0):
            raise ConfigError("base tier loads must lie in [0, 1]")
        try:
            OffloadScales(to_mbs=self.offload_to_mbs, to_haps=self.offload_to_haps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            MlcConfig(k_override=self.mlc_k_override)
        except ValueError as exc:
            raise ConfigError(f"mlc_k_override: {exc}") from exc
        if self.exhaustive_cap > EXHAUSTIVE_SBS_CAP:
            raise ConfigError(
                f"exhaustive_cap must be at most {EXHAUSTIVE_SBS_CAP}, got {self.exhaustive_cap!r}"
            )
        try:
            check_epsilon(self.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def n_sleepers(self) -> int:
        return sleeper_count(self.sleep_fraction, self.n_sbs)

    def eval_slots(self) -> tuple[int, ...]:
        return tuple(range(0, self.slots_per_day, self.slot_stride))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # the power tiers become nested dicts


def config_from_dict(doc: dict, base: ExperimentConfig | None = None, *, path: str = "experiment") -> ExperimentConfig:
    """Build a config from a plain dict, rejecting unknown keys by path.

    Keys starting with ``_`` are treated as comments. ``base`` supplies the
    values for keys the dict does not mention.
    """
    base = base or ExperimentConfig()
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    updates: dict[str, object] = {}
    for key, value in doc.items():
        if key.startswith("_"):
            continue
        if key not in fields:
            raise ConfigError(f"unknown config key: {path}.{key}")
        if key in ("haps_power", "mbs_power", "sbs_power"):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}.{key} must be an object of power coefficients")
            power_fields = {f.name for f in dataclasses.fields(PowerParams)}
            for sub in value:
                if sub.startswith("_"):
                    continue
                if sub not in power_fields:
                    raise ConfigError(f"unknown config key: {path}.{key}.{sub}")
            merged = dataclasses.asdict(getattr(base, key))
            merged.update({k: v for k, v in value.items() if not k.startswith("_")})
            try:
                updates[key] = PowerParams(**merged)
            except ValueError as exc:
                raise ConfigError(f"{path}.{key}: {exc}") from exc
        else:
            updates[key] = value
    try:
        return dataclasses.replace(base, **updates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_hash(config: ExperimentConfig) -> str:
    """Stable hex digest of the fully resolved configuration."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def desk_profile(**overrides) -> ExperimentConfig:
    """Small, fast profile: whole study suite in minutes on a laptop."""
    values = dict(
        n_sbs=100,
        n_days=7,
        n_iterations=50,
        slot_stride=12,
        grid_side=10,
        correlation_length_m=700.0,
        profile="desk",
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def paper_profile(**overrides) -> ExperimentConfig:
    """Reference simulation scale; clustering k pinned to 3 for reproduction."""
    values = dict(
        n_sbs=5000,
        n_days=30,
        n_iterations=300,
        slot_stride=1,
        grid_side=100,
        correlation_length_m=2000.0,
        mlc_k_override=3,
        profile="paper",
    )
    values.update(overrides)
    return ExperimentConfig(**values)


PROFILES = {"desk": desk_profile, "paper": paper_profile}
