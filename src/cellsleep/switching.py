"""Switch-off state vectors, capacity checks and power minimization.

A switching state assigns each SBS either ON, or OFF together with an
offload target (the macro station or the HAPS). Offloaded traffic raises
the target tier's load by the SBS load times a per-tier conversion factor,
and a state is feasible only while both tiers stay at or below unit load.

Network power is affine in the state. Switching SBS j off onto tier t
changes it by ``sleep_j + cost_{t,j} - active_j``, where ``cost_{t,j}`` is
the tier's amplifier power for the offloaded load, and uses ``use_{t,j}`` of
the tier's headroom. Both optimizers read these per-SBS coefficients from
one ``_LinearModel``: an exhaustive search prices all 2^s on/off vectors
(the oracle, capped by ``max_sbs``), and a greedy heuristic switches SBSs
off in ascending-load order onto the cheaper tier that still fits, while
that delta is negative. Both are deterministic, including tie-breaks: among
equal-power optima the exhaustive search returns the lexicographically
smallest on/off vector, preferring MBS over HAPS targets position by
position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InfeasibleNetworkError
from .power import NetworkPowerConfig, network_power

EXHAUSTIVE_SBS_CAP = 20
INNER_ENUM_CAP = 10  # OFF-set sizes up to this are assigned by exact enumeration
_CHUNK_BITS = 14


class OffloadTarget(Enum):
    MBS = "M"
    HAPS = "H"


@dataclass(frozen=True)
class OffloadScales:
    """Load conversion factors: one unit of SBS load costs this much tier load."""

    to_mbs: float = 0.05
    to_haps: float = 0.02

    def __post_init__(self) -> None:
        if self.to_mbs < 0 or self.to_haps < 0:
            raise ValueError("offload scales must be nonnegative")


@dataclass(frozen=True)
class StateVector:
    """Per-SBS on/off bits plus an offload target for every OFF SBS."""

    on_off: tuple[bool, ...]
    targets: tuple[OffloadTarget | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_off", tuple(bool(b) for b in self.on_off))
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.on_off) != len(self.targets):
            raise ValueError("on_off and targets must have equal length")
        for j, (on, tgt) in enumerate(zip(self.on_off, self.targets)):
            if on and tgt is not None:
                raise ValueError(f"SBS {j} is ON but has an offload target")
            if not on and not isinstance(tgt, OffloadTarget):
                raise ValueError(f"SBS {j} is OFF but has no offload target")

    @classmethod
    def all_on(cls, n_sbs: int) -> "StateVector":
        return cls(on_off=(True,) * n_sbs, targets=(None,) * n_sbs)

    @property
    def n_sbs(self) -> int:
        return len(self.on_off)

    @property
    def n_off(self) -> int:
        return sum(1 for b in self.on_off if not b)

    def bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.on_off)

    def to_json_dict(self) -> dict:
        return {
            "on_off": self.bitstring(),
            "targets": "".join("-" if t is None else t.value for t in self.targets),
        }


@dataclass(frozen=True)
class CapacityState:
    """MBS/HAPS loads split into intrinsic and offloaded components."""

    base_mbs: float
    base_haps: float
    offloaded_mbs: float
    offloaded_haps: float

    @property
    def mbs_load(self) -> float:
        return self.base_mbs + self.offloaded_mbs

    @property
    def haps_load(self) -> float:
        return self.base_haps + self.offloaded_haps

    @property
    def feasible(self) -> bool:
        return self.mbs_load <= 1.0 and self.haps_load <= 1.0

    def to_json_dict(self) -> dict:
        return {
            "mbs_load": self.mbs_load,
            "haps_load": self.haps_load,
            "base_mbs": self.base_mbs,
            "base_haps": self.base_haps,
            "offloaded_mbs": self.offloaded_mbs,
            "offloaded_haps": self.offloaded_haps,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class SwitchingSolution:
    state: StateVector
    power: float
    feasible: bool
    capacity: CapacityState
    optimizer: str

    def to_json_dict(self) -> dict:
        return {
            "state": self.state.to_json_dict(),
            "power_w": self.power,
            "feasible": self.feasible,
            "capacity": self.capacity.to_json_dict(),
            "optimizer": self.optimizer,
        }


def _validated_loads(
    base_mbs_load: float, base_haps_load: float, sbs_loads: Sequence[float], n_sbs: int
) -> np.ndarray:
    loads = np.asarray(sbs_loads, dtype=float)
    if loads.shape != (n_sbs,):
        raise ValueError(f"expected {n_sbs} SBS loads, got shape {loads.shape}")
    for name, value in (("base_mbs_load", base_mbs_load), ("base_haps_load", base_haps_load)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    if loads.size and (np.isnan(loads).any() or loads.min() < 0.0 or loads.max() > 1.0):
        raise ValueError("SBS loads must lie in [0, 1]")
    return loads


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum; numpy's pairwise ``sum`` rounds differently."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def apply_offloads(
    base_mbs_load: float,
    base_haps_load: float,
    sbs_loads: Sequence[float],
    state: StateVector,
    scales: OffloadScales = OffloadScales(),
) -> CapacityState:
    """Accumulate the offloaded load of every OFF SBS onto its target tier.

    Infeasibility (a tier above unit load) is a flag on the returned state,
    not an error: optimizers evaluate and then skip infeasible states.
    """
    loads = _validated_loads(base_mbs_load, base_haps_load, sbs_loads, state.n_sbs)
    to_mbs = np.array([t is OffloadTarget.MBS for t in state.targets], dtype=bool)
    to_haps = np.array([t is OffloadTarget.HAPS for t in state.targets], dtype=bool)
    return CapacityState(
        base_mbs=float(base_mbs_load),
        base_haps=float(base_haps_load),
        offloaded_mbs=_ordered_sum(scales.to_mbs * loads[to_mbs]),
        offloaded_haps=_ordered_sum(scales.to_haps * loads[to_haps]),
    )


def objective(
    state: StateVector,
    sbs_loads: Sequence[float],
    capacity: CapacityState,
    power_config: NetworkPowerConfig,
) -> float:
    """Total network power of a state, using post-offload tier loads."""
    return network_power(
        power_config,
        haps_load=capacity.haps_load,
        mbs_load=capacity.mbs_load,
        sbs_loads=sbs_loads,
        on_off=state.on_off,
    )


def decision_change_rate(state_actual: StateVector, state_estimated: StateVector) -> float:
    """Fraction of SBS on/off decisions that differ (offload targets ignored)."""
    if state_actual.n_sbs != state_estimated.n_sbs:
        raise ValueError("state vectors must cover the same number of SBSs")
    diff = sum(1 for a, b in zip(state_actual.on_off, state_estimated.on_off) if a != b)
    return diff / state_actual.n_sbs


@dataclass(frozen=True)
class _LinearModel:
    """Network power of one instance as an affine function of the state.

    A state draws ``base_power`` plus ``active[j]`` for every ON SBS and
    ``sleep[j] + cost[t][j]`` for every SBS OFF onto tier t. It is feasible
    while each tier's summed ``use[t]`` stays within ``cap[t]``.
    """

    loads: np.ndarray
    active: np.ndarray
    sleep: np.ndarray
    cost: dict[OffloadTarget, np.ndarray]
    use: dict[OffloadTarget, np.ndarray]
    cap: dict[OffloadTarget, float]
    base_power: float


def _linear_model(
    sbs_loads: Sequence[float],
    base_mbs_load: float,
    base_haps_load: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales,
) -> _LinearModel:
    loads = _validated_loads(base_mbs_load, base_haps_load, sbs_loads, power_config.n_sbs)
    mbs, haps = power_config.mbs, power_config.haps
    tiers = {
        OffloadTarget.MBS: (mbs, scales.to_mbs, base_mbs_load),
        OffloadTarget.HAPS: (haps, scales.to_haps, base_haps_load),
    }
    return _LinearModel(
        loads=loads,
        active=np.array(
            [p.operational_power + p.amplifier_slope * l * p.transmit_power
             for p, l in zip(power_config.sbs, loads)]
        ),
        sleep=np.array([p.sleep_power for p in power_config.sbs]),
        cost={t: p.amplifier_slope * p.transmit_power * k * loads for t, (p, k, _) in tiers.items()},
        use={t: k * loads for t, (_, k, _) in tiers.items()},
        cap={t: 1.0 - base for t, (_, _, base) in tiers.items()},
        base_power=(
            haps.operational_power
            + haps.amplifier_slope * base_haps_load * haps.transmit_power
            + mbs.operational_power
            + mbs.amplifier_slope * base_mbs_load * mbs.transmit_power
        ),
    )


def _cheaper_target(
    model: _LinearModel, j: int, used: dict[OffloadTarget, float]
) -> OffloadTarget | None:
    """The cheaper tier that still fits SBS j on top of ``used``, MBS on ties."""
    fits = [t for t in OffloadTarget if used[t] + model.use[t][j] <= model.cap[t]]
    return min(fits, key=lambda t: model.cost[t][j], default=None)


def _solution(
    on_off: tuple[bool, ...],
    targets: tuple[OffloadTarget | None, ...],
    loads: np.ndarray,
    base_mbs: float,
    base_haps: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales,
    optimizer: str,
) -> SwitchingSolution:
    state = StateVector(on_off=on_off, targets=targets)
    capacity = apply_offloads(base_mbs, base_haps, loads, state, scales)
    power = objective(state, loads, capacity, power_config)
    return SwitchingSolution(
        state=state, power=power, feasible=capacity.feasible, capacity=capacity, optimizer=optimizer
    )


def _assign_offloads(
    model: _LinearModel, off_ids: np.ndarray
) -> tuple[float, list[OffloadTarget]] | None:
    """Cheapest feasible target assignment for one OFF set, or None.

    Exact enumeration up to ``INNER_ENUM_CAP`` OFF SBSs (candidates visited
    in lexicographic MBS-before-HAPS order, strict improvement only, so the
    first optimum wins ties); greedy best-fit in descending-load order
    beyond that.
    """
    m = off_ids.size
    if m <= INNER_ENUM_CAP:
        # Plain float lists and locals: this loop visits 2^m assignments.
        mbs, haps = OffloadTarget
        use_m, cost_m = model.use[mbs][off_ids].tolist(), model.cost[mbs][off_ids].tolist()
        use_h, cost_h = model.use[haps][off_ids].tolist(), model.cost[haps][off_ids].tolist()
        best: tuple[float, list[OffloadTarget]] | None = None
        for combo in itertools.product(OffloadTarget, repeat=m):
            used_m = used_h = cost = 0.0
            for i, tgt in enumerate(combo):
                if tgt is mbs:
                    used_m += use_m[i]
                    cost += cost_m[i]
                else:
                    used_h += use_h[i]
                    cost += cost_h[i]
            if used_m > model.cap[mbs] or used_h > model.cap[haps]:
                continue
            if best is None or cost < best[0]:
                best = (cost, list(combo))
        return best
    # Greedy best-fit, largest loads first so the tight ones are placed early.
    order = sorted(range(m), key=lambda i: (-model.loads[off_ids[i]], off_ids[i]))
    targets: list[OffloadTarget | None] = [None] * m
    used = dict.fromkeys(OffloadTarget, 0.0)
    cost = 0.0
    for i in order:
        j = off_ids[i]
        tgt = _cheaper_target(model, j, used)
        if tgt is None:
            return None
        used[tgt] += model.use[tgt][j]
        cost += model.cost[tgt][j]
        targets[i] = tgt
    return cost, targets


def optimize_exhaustive(
    sbs_loads: Sequence[float],
    base_mbs_load: float,
    base_haps_load: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales = OffloadScales(),
    *,
    max_sbs: int = EXHAUSTIVE_SBS_CAP,
) -> SwitchingSolution:
    """Global minimum-power state by enumerating every on/off vector.

    For each vector the offload assignment is optimized separately (exact
    for small OFF sets, greedy best-fit beyond ``INNER_ENUM_CAP``). States
    are visited in ascending lexicographic order of the on/off vector and
    only strict power improvements replace the incumbent, which implements
    the documented tie-break.

    Raises:
        ValueError: if the instance exceeds ``max_sbs``.
        InfeasibleNetworkError: never for valid inputs (the all-ON state is
            feasible whenever base loads are), kept for defense in depth.
    """
    model = _linear_model(sbs_loads, base_mbs_load, base_haps_load, power_config, scales)
    s = model.loads.size
    if s > max_sbs:
        raise ValueError(f"exhaustive search capped at {max_sbs} SBSs, got {s}")

    mbs, haps = OffloadTarget
    prefer_mbs = model.cost[mbs] <= model.cost[haps]
    best_off_cost = np.where(prefer_mbs, model.cost[mbs], model.cost[haps])
    shifts = np.arange(s - 1, -1, -1, dtype=np.uint64)  # bit i of the index is delta_{i+1}
    best_power = np.inf
    best_mask = -1
    best_targets: list[OffloadTarget] = []

    for start in range(0, 1 << s, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), 1 << s)
        idx = np.arange(start, stop, dtype=np.uint64)
        on = ((idx[:, None] >> shifts[None, :]) & 1).astype(bool)
        off = ~on
        fixed = on @ model.active + off @ model.sleep
        # Per-SBS cheapest target, valid whenever it happens to fit capacity.
        greedy_ok = (off @ (model.use[mbs] * prefer_mbs) <= model.cap[mbs]) & (
            off @ (model.use[haps] * ~prefer_mbs) <= model.cap[haps]
        )
        chunk_power = model.base_power + fixed + off @ best_off_cost
        chunk_power[~greedy_ok] = np.inf

        for local in np.flatnonzero(~greedy_ok):
            assigned = _assign_offloads(model, np.flatnonzero(off[local]))
            if assigned is not None:
                chunk_power[local] = model.base_power + fixed[local] + assigned[0]

        local_best = int(np.argmin(chunk_power))
        if chunk_power[local_best] < best_power:
            best_power = float(chunk_power[local_best])
            best_mask = start + local_best
            off_ids = np.flatnonzero(off[local_best])
            if greedy_ok[local_best]:
                best_targets = [mbs if prefer_mbs[j] else haps for j in off_ids]
            else:
                assigned = _assign_offloads(model, off_ids)
                assert assigned is not None
                best_targets = list(assigned[1])

    if best_mask < 0:
        raise InfeasibleNetworkError("exhaustive search found no feasible state")

    on_off = tuple(bool((best_mask >> int(sh)) & 1) for sh in shifts)
    targets: list[OffloadTarget | None] = [None] * s
    for j, tgt in zip(np.flatnonzero(~np.array(on_off)), best_targets):
        targets[j] = tgt
    return _solution(
        on_off, tuple(targets), model.loads, base_mbs_load, base_haps_load,
        power_config, scales, "exhaustive",
    )


def optimize_greedy(
    sbs_loads: Sequence[float],
    base_mbs_load: float,
    base_haps_load: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales = OffloadScales(),
) -> SwitchingSolution:
    """Scalable heuristic: switch SBSs off in ascending-load order.

    Starting from all-ON, each candidate (equal loads by index) is offered
    to the cheaper tier that still fits its offloaded load, MBS on ties.
    Switching SBS j off onto tier t changes total power by
    ``sleep_j + cost_{t,j} - active_j``: the move is kept while that delta
    is negative, and the scan stops at the first candidate that has no
    fitting tier or would not lower the power. Tier usage is kept as running
    sums, so a solve sorts once and prices only the returned state in full.
    """
    model = _linear_model(sbs_loads, base_mbs_load, base_haps_load, power_config, scales)
    s = model.loads.size
    on_off = [True] * s
    targets: list[OffloadTarget | None] = [None] * s
    used = dict.fromkeys(OffloadTarget, 0.0)
    for j in np.argsort(model.loads, kind="stable"):
        tgt = _cheaper_target(model, j, used)
        if tgt is None or model.sleep[j] + model.cost[tgt][j] - model.active[j] >= 0:
            break
        on_off[j] = False
        targets[j] = tgt
        used[tgt] += model.use[tgt][j]
    return _solution(
        tuple(on_off), tuple(targets), model.loads, base_mbs_load, base_haps_load,
        power_config, scales, "greedy",
    )
