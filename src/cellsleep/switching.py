"""Switch-off states, capacity checks and power minimization.

A switching state is one ``np.int8`` code per SBS: ``ON``, or OFF with its
traffic offloaded to the macro station (``TO_MBS``) or to the HAPS
(``TO_HAPS``); ``"-MH"[code]`` is the code's letter in JSON output.
Offloaded traffic raises the target tier's load by the SBS load times a
per-tier conversion factor, and a state is feasible only while both tiers
stay at or below unit load.

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
from typing import Sequence

import numpy as np

from .errors import InfeasibleNetworkError
from .power import NetworkPowerConfig, network_power

EXHAUSTIVE_SBS_CAP = 20
INNER_ENUM_CAP = 10  # OFF-set sizes up to this are assigned by exact enumeration
_CHUNK_BITS = 14

ON, TO_MBS, TO_HAPS = 0, 1, 2  # state codes; "-MH"[code] is the JSON letter
_TIERS = (TO_MBS, TO_HAPS)  # offload targets in tie-break order


@dataclass(frozen=True)
class OffloadScales:
    """Load conversion factors: one unit of SBS load costs this much tier load."""

    to_mbs: float = 0.05
    to_haps: float = 0.02

    def __post_init__(self) -> None:
        for name, value in (("to_mbs", self.to_mbs), ("to_haps", self.to_haps)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"offload scale {name} must be finite and nonnegative, got {value!r}")


def _checked_state(state: Sequence[int], n_sbs: int) -> np.ndarray:
    """A caller's state as an array of ``n_sbs`` integer codes in {ON, TO_MBS, TO_HAPS}."""
    codes = np.asarray(state)
    valid = codes.dtype.kind in "iu" and codes.shape == (n_sbs,)
    if not (valid and ((codes >= ON) & (codes <= TO_HAPS)).all()):
        raise ValueError(f"a state needs {n_sbs} codes in {{0, 1, 2}}, got {codes.dtype} {codes.shape}")
    return codes


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
    state: np.ndarray  # one int8 code per SBS
    power: float
    capacity: CapacityState
    optimizer: str

    @property
    def feasible(self) -> bool:
        return self.capacity.feasible

    def to_json_dict(self) -> dict:
        return {
            "state": {
                "on_off": "".join("1" if code == ON else "0" for code in self.state),
                "targets": "".join("-MH"[code] for code in self.state),
            },
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
    state: Sequence[int],
    scales: OffloadScales = OffloadScales(),
) -> CapacityState:
    """Accumulate the offloaded load of every OFF SBS onto its target tier.

    Infeasibility (a tier above unit load) is a flag on the returned state,
    not an error: optimizers evaluate and then skip infeasible states.
    """
    loads = _validated_loads(base_mbs_load, base_haps_load, sbs_loads, np.size(sbs_loads))
    state = _checked_state(state, loads.size)
    return CapacityState(
        base_mbs=float(base_mbs_load),
        base_haps=float(base_haps_load),
        offloaded_mbs=_ordered_sum(scales.to_mbs * loads[state == TO_MBS]),
        offloaded_haps=_ordered_sum(scales.to_haps * loads[state == TO_HAPS]),
    )


def objective(
    state: Sequence[int],
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
        on_off=_checked_state(state, power_config.n_sbs) == ON,
    )


def decision_change_rate(state_actual: Sequence[int], state_estimated: Sequence[int]) -> float:
    """Fraction of SBS on/off decisions that differ (offload targets ignored)."""
    actual = _checked_state(state_actual, np.size(state_actual))
    estimated = _checked_state(state_estimated, actual.size)
    return np.count_nonzero((actual == ON) != (estimated == ON)) / actual.size


@dataclass(frozen=True)
class _LinearModel:
    """Network power of one instance as an affine function of the state.

    A state draws ``base_power`` plus ``active[j]`` for every ON SBS and
    ``sleep[j] + cost[t, j]`` for every SBS OFF onto tier t. It is feasible
    while each tier's summed ``use[t, j]`` stays within ``cap[t]``. Rows of
    ``cost`` and ``use`` and entries of ``cap`` are indexed by state code;
    the ``ON`` row costs and uses nothing and its headroom is unbounded.
    """

    loads: np.ndarray
    active: np.ndarray
    sleep: np.ndarray
    cost: np.ndarray  # (3, s)
    use: np.ndarray  # (3, s)
    cap: np.ndarray  # (3,)
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
    tiers = ((mbs, scales.to_mbs), (haps, scales.to_haps))  # rows TO_MBS, TO_HAPS
    none = np.zeros_like(loads)
    return _LinearModel(
        loads=loads,
        active=np.array(
            [p.operational_power + p.amplifier_slope * l * p.transmit_power
             for p, l in zip(power_config.sbs, loads)]
        ),
        sleep=np.array([p.sleep_power for p in power_config.sbs]),
        cost=np.stack([none] + [p.amplifier_slope * p.transmit_power * k * loads for p, k in tiers]),
        use=np.stack([none] + [k * loads for _, k in tiers]),
        cap=np.array([np.inf, 1.0 - base_mbs_load, 1.0 - base_haps_load]),
        base_power=(
            haps.operational_power
            + haps.amplifier_slope * base_haps_load * haps.transmit_power
            + mbs.operational_power
            + mbs.amplifier_slope * base_mbs_load * mbs.transmit_power
        ),
    )


def _cheaper_target(model: _LinearModel, j: int, used: Sequence[float]) -> int:
    """The cheaper tier that still fits SBS j on top of ``used``, MBS on ties.

    Returns ``ON`` when neither tier fits.
    """
    fits = [t for t in _TIERS if used[t] + model.use[t, j] <= model.cap[t]]
    return min(fits, key=lambda t: model.cost[t, j], default=ON)


def _solution(
    state: np.ndarray,
    model: _LinearModel,
    base_mbs: float,
    base_haps: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales,
    optimizer: str,
) -> SwitchingSolution:
    capacity = apply_offloads(base_mbs, base_haps, model.loads, state, scales)
    power = objective(state, model.loads, capacity, power_config)
    return SwitchingSolution(state=state, power=power, capacity=capacity, optimizer=optimizer)


def _assign_offloads(model: _LinearModel, off_ids: np.ndarray) -> tuple[float, list[int]] | None:
    """Cheapest feasible target assignment for one OFF set, or None.

    Returns the offload cost and one target code per entry of ``off_ids``.
    Exact enumeration up to ``INNER_ENUM_CAP`` OFF SBSs (candidates visited
    in lexicographic MBS-before-HAPS order, strict improvement only, so the
    first optimum wins ties); greedy best-fit in descending-load order
    beyond that.
    """
    m = off_ids.size
    if m <= INNER_ENUM_CAP:
        # Plain float lists and locals: this loop visits 2^m assignments.
        mbs = TO_MBS
        use_m, cost_m = model.use[mbs, off_ids].tolist(), model.cost[mbs, off_ids].tolist()
        use_h, cost_h = model.use[TO_HAPS, off_ids].tolist(), model.cost[TO_HAPS, off_ids].tolist()
        _, cap_m, cap_h = model.cap.tolist()
        best: tuple[float, list[int]] | None = None
        for combo in itertools.product(_TIERS, repeat=m):
            used_m = used_h = cost = 0.0
            for i, tgt in enumerate(combo):
                if tgt == mbs:
                    used_m += use_m[i]
                    cost += cost_m[i]
                else:
                    used_h += use_h[i]
                    cost += cost_h[i]
            if used_m > cap_m or used_h > cap_h:
                continue
            if best is None or cost < best[0]:
                best = (cost, list(combo))
        return best
    # Greedy best-fit, largest loads first so the tight ones are placed early.
    order = sorted(range(m), key=lambda i: (-model.loads[off_ids[i]], off_ids[i]))
    targets = [ON] * m
    used = [0.0] * 3  # tier usage by state code
    cost = 0.0
    for i in order:
        j = off_ids[i]
        tgt = _cheaper_target(model, j, used)
        if tgt == ON:
            return None
        used[tgt] += model.use[tgt, j]
        cost += model.cost[tgt, j]
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

    prefer_mbs = model.cost[TO_MBS] <= model.cost[TO_HAPS]
    best_off_cost = np.where(prefer_mbs, model.cost[TO_MBS], model.cost[TO_HAPS])
    shifts = np.arange(s - 1, -1, -1, dtype=np.uint64)  # bit i of the index is delta_{i+1}
    best_power = np.inf
    best_state: np.ndarray | None = None

    for start in range(0, 1 << s, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), 1 << s)
        idx = np.arange(start, stop, dtype=np.uint64)
        on = ((idx[:, None] >> shifts[None, :]) & 1).astype(bool)
        off = ~on
        fixed = on @ model.active + off @ model.sleep
        # Per-SBS cheapest target, valid whenever it happens to fit capacity.
        greedy_ok = (off @ (model.use[TO_MBS] * prefer_mbs) <= model.cap[TO_MBS]) & (
            off @ (model.use[TO_HAPS] * ~prefer_mbs) <= model.cap[TO_HAPS]
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
            best_state = np.where(prefer_mbs, TO_MBS, TO_HAPS).astype(np.int8)
            best_state[on[local_best]] = ON
            if not greedy_ok[local_best]:
                off_ids = np.flatnonzero(off[local_best])
                assigned = _assign_offloads(model, off_ids)
                assert assigned is not None
                best_state[off_ids] = assigned[1]

    if best_state is None:
        raise InfeasibleNetworkError("exhaustive search found no feasible state")
    return _solution(
        best_state, model, base_mbs_load, base_haps_load, power_config, scales, "exhaustive"
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
    state = np.full(model.loads.size, ON, dtype=np.int8)
    used = [0.0] * 3  # tier usage by state code
    for j in np.argsort(model.loads, kind="stable"):
        tgt = _cheaper_target(model, j, used)
        if tgt == ON or model.sleep[j] + model.cost[tgt, j] - model.active[j] >= 0:
            break
        state[j] = tgt
        used[tgt] += model.use[tgt, j]
    return _solution(state, model, base_mbs_load, base_haps_load, power_config, scales, "greedy")
