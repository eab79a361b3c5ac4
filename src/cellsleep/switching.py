"""Switch-off states, capacity checks and power minimization.

A switching state is one ``np.int8`` code per SBS: ``ON``, or OFF with its
traffic offloaded to the macro station (``TO_MBS``) or to the HAPS
(``TO_HAPS``); ``"-MH"[code]`` is the code's letter in JSON output.
Offloaded traffic raises the target tier's load by the SBS load times a
per-tier conversion factor, and a state is feasible only while both tiers
stay at or below unit load. That is decided by one rule, ``_fits``: a
tier's base load plus the left-to-right sum of its offloaded loads in SBS
id order is at most 1.0. ``CapacityState`` and both optimizers apply it to
the same sums, so no optimizer returns a state that its pricing rejects at
a tier boundary.

Inputs are checked once, where they enter: at ``optimize_*``,
``apply_offloads``, ``objective`` and ``decision_change_rate``. Behind them,
one unchecked kernel, ``_priced``, prices every state an optimizer returns
and every decision a switching sweep deploys at the actual loads.

Network power is affine in the state. Switching SBS j off onto tier t
changes it by ``sleep_j + cost_{t,j} - active_j``, where ``cost_{t,j}`` is
the tier's amplifier power for the offloaded load, and uses ``use_{t,j}`` of
the tier's headroom. Both optimizers read these per-SBS coefficients from
one ``_LinearModel``: an exhaustive search prices all 2^s on/off vectors,
each with its exact cheapest offload assignment (the oracle, up to
``EXHAUSTIVE_SBS_CAP`` = 20 SBSs; it unpacks the vectors from the bits of
their indices and forms their id-order tier sums by doubling over the
SBSs, chunk by chunk), and a greedy heuristic switches SBSs off
in ascending-load order onto the cheaper tier that still fits, while that
delta is negative. Both are deterministic, including tie-breaks: among
equal-power optima the exhaustive search returns the lexicographically
smallest on/off vector, preferring MBS over HAPS targets position by
position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleNetworkError
from .power import NetworkPowerConfig, _network_power, network_power

EXHAUSTIVE_SBS_CAP = 20
_CHUNK_BITS = 14
# The scan-order and id-order sums of a greedy tier differ by rounding only,
# far below this for up to 10^6 nonnegative terms that sum to about 1.
_CAP_MARGIN = 1e-9

ON, TO_MBS, TO_HAPS = 0, 1, 2  # state codes; "-MH"[code] is the JSON letter


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
        return bool(_fits(self.base_mbs, self.offloaded_mbs) and _fits(self.base_haps, self.offloaded_haps))

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


def _fits(base_load, offloaded):
    """The capacity rule: base load plus the id-order offloaded sum is at most 1 (scalars or arrays)."""
    return base_load + offloaded <= 1.0


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
    return _capacity(base_mbs_load, base_haps_load, loads, _checked_state(state, loads.size), scales)


def _capacity(
    base_mbs_load: float, base_haps_load: float, loads: np.ndarray, state: np.ndarray, scales: OffloadScales
) -> CapacityState:
    """``apply_offloads`` on checked loads and state."""
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


def _priced(
    state: np.ndarray,
    loads: np.ndarray,
    base_mbs_load: float,
    base_haps_load: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales,
) -> tuple[CapacityState, float]:
    """The capacity and network power of a checked state at checked loads.

    The one pricing kernel behind every returned and deployed state. Each
    tier is priced at its load capped at 1: a state that fits is priced as
    ``objective`` prices it, and one that overloads a tier as if that tier
    ran at full load.
    """
    capacity = _capacity(base_mbs_load, base_haps_load, loads, state, scales)
    power = _network_power(
        power_config, min(capacity.haps_load, 1.0), min(capacity.mbs_load, 1.0), loads, state == ON
    )
    return capacity, power


def decision_change_rate(state_actual: Sequence[int], state_estimated: Sequence[int]) -> float:
    """Fraction of SBS on/off decisions that differ (offload targets ignored)."""
    actual = _checked_state(state_actual, np.size(state_actual))
    return _change_rate(actual, _checked_state(state_estimated, actual.size))


def _change_rate(actual: np.ndarray, estimated: np.ndarray) -> float:
    """``decision_change_rate`` of two checked states."""
    return np.count_nonzero((actual == ON) != (estimated == ON)) / actual.size


@dataclass(frozen=True)
class _LinearModel:
    """Network power of one instance as an affine function of the state.

    A state draws ``base_power`` plus ``active[j]`` for every ON SBS and
    ``sleep[j] + cost[t, j]`` for every SBS OFF onto tier t. It is feasible
    while, for each tier t, ``base_load[t]`` plus the id-order sum of its
    ``use[t, j]`` ``_fits``. Rows of ``cost`` and ``use`` and entries of
    ``base_load`` are indexed by state code; the ``ON`` row costs and uses
    nothing.
    """

    loads: np.ndarray
    active: np.ndarray
    sleep: np.ndarray
    cost: np.ndarray  # (3, s)
    use: np.ndarray  # (3, s)
    base_load: np.ndarray  # (3,)
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
        active=power_config.sbs.active_power(loads),
        sleep=np.full(loads.size, power_config.sbs.sleep_power),  # BLAS products take an array
        cost=np.stack([none] + [p.amplifier_slope * p.transmit_power * k * loads for p, k in tiers]),
        use=np.stack([none] + [k * loads for _, k in tiers]),
        base_load=np.array([0.0, base_mbs_load, base_haps_load]),
        base_power=(
            haps.operational_power
            + haps.amplifier_slope * base_haps_load * haps.transmit_power
            + mbs.operational_power
            + mbs.amplifier_slope * base_mbs_load * mbs.transmit_power
        ),
    )


def _solution(
    state: np.ndarray,
    model: _LinearModel,
    base_mbs: float,
    base_haps: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales,
    optimizer: str,
) -> SwitchingSolution:
    capacity, power = _priced(state, model.loads, base_mbs, base_haps, power_config, scales)
    return SwitchingSolution(state=state, power=power, capacity=capacity, optimizer=optimizer)


def _off_sums(start: np.ndarray, use: np.ndarray) -> np.ndarray:
    """Per row of ``use``, its sum over the OFF SBSs of every on/off vector.

    Columns of ``use`` are SBSs in id order; entry i of a result row is the
    vector whose bits, first SBS most significant, spell i (1 = ON). Each
    sum starts from the row's ``start`` value and adds the OFF SBSs' use
    left to right in id order, as ``apply_offloads`` adds it: the table
    doubles once per SBS, its OFF half adding that SBS's use.
    """
    sums = start[:, None]
    for column in use.T:
        doubled = np.empty((*sums.shape, 2))
        np.add(sums, column[:, None], out=doubled[..., 0])
        doubled[..., 1] = sums
        sums = doubled.reshape(use.shape[0], -1)
    return sums


def _state_chunks(use: np.ndarray):
    """Every on/off vector of ``use.shape[1]`` SBSs, in chunks of ascending index.

    Yields each chunk's on/off rows (C-contiguous bools, first SBS first,
    True = ON) and ``_off_sums`` of ``use`` over them. A chunk of 2^low
    states fixes the first s - low SBSs to its number's bits, so the OFF
    sums over those SBSs start its sums over the rest.
    """
    s = use.shape[1]
    low = min(s, _CHUNK_BITS)
    heads = _off_sums(np.zeros(use.shape[0]), use[:, : s - low])
    for chunk in range(1 << (s - low)):
        # Big-endian indices shifted up to bit 31: their first s bits, unpacked,
        # are each state's on/off row.
        idx = np.arange(chunk << low, (chunk + 1) << low, dtype=np.uint32) << (32 - s)
        on = np.unpackbits(idx.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1, count=s).view(bool)
        yield on, _off_sums(heads[:, chunk], use[:, s - low :])


def _assign_offloads(model: _LinearModel, off_ids: np.ndarray) -> tuple[float, list[int]] | None:
    """Cheapest feasible target assignment for one OFF set, or None.

    Returns the offload cost and one target code per entry of ``off_ids``.
    Every one of the 2^m assignments is priced in one table, grown one SBS at
    a time so that entry order is lexicographic (first SBS most significant,
    MBS before HAPS) and each entry is the left-to-right sum over the SBSs.
    ``argmin`` then picks the first cheapest feasible entry.
    """
    # Per OFF SBS, the (MBS, HAPS) branch values of cost, MBS use and HAPS
    # use; the zero ON row stands in for a tier that a branch leaves alone.
    branch = np.stack(
        (model.cost[[TO_MBS, TO_HAPS]], model.use[[TO_MBS, ON]], model.use[[ON, TO_HAPS]])
    )[:, :, off_ids]
    m = off_ids.size
    table = np.zeros((3, 1))
    for i in range(m):
        table = (table[:, :, None] + branch[:, None, :, i]).reshape(3, -1)
    cost, used_mbs, used_haps = table
    cost[~(_fits(model.base_load[TO_MBS], used_mbs) & _fits(model.base_load[TO_HAPS], used_haps))] = np.inf
    best = int(np.argmin(cost))
    if cost[best] == np.inf:
        return None
    return float(cost[best]), [TO_MBS + (best >> (m - 1 - i) & 1) for i in range(m)]


def optimize_exhaustive(
    sbs_loads: Sequence[float],
    base_mbs_load: float,
    base_haps_load: float,
    power_config: NetworkPowerConfig,
    scales: OffloadScales = OffloadScales(),
) -> SwitchingSolution:
    """Global minimum-power state by enumerating every on/off vector.

    Each vector whose per-SBS cheaper targets overflow a tier gets its
    exact cheapest offload assignment from one enumeration of all 2^m
    target choices of its m OFF SBSs. States are visited in ascending
    lexicographic order of the on/off vector and only strict power
    improvements replace the incumbent, which implements the documented
    tie-break.

    Raises:
        ValueError: above ``EXHAUSTIVE_SBS_CAP`` SBSs, where the 2^s states
            and the up to 3 * 2^s entry assignment table are out of reach.
        InfeasibleNetworkError: never for valid inputs (the all-ON state is
            feasible whenever base loads are), kept for defense in depth.
    """
    model = _linear_model(sbs_loads, base_mbs_load, base_haps_load, power_config, scales)
    s = model.loads.size
    if s > EXHAUSTIVE_SBS_CAP:
        raise ValueError(f"exhaustive search capped at {EXHAUSTIVE_SBS_CAP} SBSs, got {s}")

    prefer_mbs = model.cost[TO_MBS] <= model.cost[TO_HAPS]
    best_off_cost = np.where(prefer_mbs, model.cost[TO_MBS], model.cost[TO_HAPS])
    # Per tier, the use of each SBS whose cheaper target it is.
    cheaper_use = np.stack((model.use[TO_MBS] * prefer_mbs, model.use[TO_HAPS] * ~prefer_mbs))
    best_power = np.inf
    best_state: np.ndarray | None = None

    for on, used in _state_chunks(cheaper_use):
        off = ~on
        fixed = on @ model.active + off @ model.sleep
        # Per-SBS cheapest target, valid whenever it happens to fit capacity.
        greedy_ok = _fits(model.base_load[TO_MBS], used[0]) & _fits(model.base_load[TO_HAPS], used[1])
        chunk_power = model.base_power + fixed + off @ best_off_cost
        chunk_power[~greedy_ok] = np.inf

        targets = {}  # the assigned target codes of each binding-tier state
        for local in np.flatnonzero(~greedy_ok):
            assigned = _assign_offloads(model, np.flatnonzero(off[local]))
            if assigned is not None:
                chunk_power[local] = model.base_power + fixed[local] + assigned[0]
                targets[local] = assigned[1]

        local_best = int(np.argmin(chunk_power))
        if chunk_power[local_best] < best_power:
            best_power = float(chunk_power[local_best])
            best_state = np.where(prefer_mbs, TO_MBS, TO_HAPS).astype(np.int8)
            best_state[on[local_best]] = ON
            if not greedy_ok[local_best]:
                best_state[off[local_best]] = targets[local_best]

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
    sums in scan order, so a solve sorts once and prices only the returned
    state in full. A sum that lands within ``_CAP_MARGIN`` of a tier's cap
    is settled by ``_fits`` on the id-order sum, as ``CapacityState`` adds it.
    """
    model = _linear_model(sbs_loads, base_mbs_load, base_haps_load, power_config, scales)
    order = np.argsort(model.loads, kind="stable")
    # Rows by state code, columns in scan order, as plain Python floats: the
    # same double arithmetic as numpy scalars at a fraction of the cost.
    use, cost, delta = (
        a[:, order].tolist() for a in (model.use, model.cost, model.sleep + model.cost - model.active)
    )
    cap = (1.0 - model.base_load).tolist()
    clear = [c - _CAP_MARGIN for c in cap]  # a running sum up to here fits by either sum
    used = [0.0] * 3  # tier usage by state code
    targets = []

    def near_cap_fits(tier: int, j: int) -> bool:
        if used[tier] + use[tier][j] > cap[tier] + _CAP_MARGIN:
            return False
        ids = np.sort(np.append(order[: len(targets)][np.equal(targets, tier)], order[j]))
        return bool(_fits(model.base_load[tier], _ordered_sum(model.use[tier, ids])))

    for j in range(order.size):
        # The cheaper tier that still fits, MBS on ties; stop if none fits.
        fits_mbs = used[TO_MBS] + use[TO_MBS][j] <= clear[TO_MBS] or near_cap_fits(TO_MBS, j)
        fits_haps = used[TO_HAPS] + use[TO_HAPS][j] <= clear[TO_HAPS] or near_cap_fits(TO_HAPS, j)
        if fits_mbs and not (fits_haps and cost[TO_HAPS][j] < cost[TO_MBS][j]):
            tgt = TO_MBS
        elif fits_haps:
            tgt = TO_HAPS
        else:
            break
        if delta[tgt][j] >= 0:
            break
        targets.append(tgt)
        used[tgt] += use[tgt][j]
    state = np.full(model.loads.size, ON, dtype=np.int8)
    state[order[: len(targets)]] = targets
    return _solution(state, model, base_mbs_load, base_haps_load, power_config, scales, "greedy")
