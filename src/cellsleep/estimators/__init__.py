"""Sleeping-SBS load estimators behind a single dispatch interface.

Three families are available, selected by the config type:

* ``MlcConfig``      -- multi-level k-means clustering on load values.
* ``DistanceConfig`` -- mean / inverse-distance-weighted mean of the N
                        geographically nearest active SBSs.
* ``RandomConfig``   -- mean / weighted mean of N randomly drawn active SBSs.

All estimators are deterministic functions of (inputs, seed) and return a
convex combination of active loads, so estimates always lie inside the
range of the contributing neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..traffic import LoadSnapshot, SbsPlacement
from .kmeans import ClusteringState, compute_sse, elbow_select_k, kmeans_fit
from .mlc import check_mlc_params, mlc_estimate
from .neighbors import check_neighbor_params, distance_estimate, positions_array, random_estimate
from .result import EstimateResult, NeighborDetail


@dataclass(frozen=True)
class MlcConfig:
    """Multi-level clustering: ``layers`` refinement passes, k by elbow or fixed."""

    layers: int = 1
    k_override: int | None = None
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-9
    kmeans_seed: int = 0
    elbow_k_max: int = 8

    def __post_init__(self) -> None:
        check_mlc_params(
            self.layers, self.k_override, self.elbow_k_max, self.kmeans_max_iter, self.kmeans_tol
        )

    kind = "mlc"


@dataclass(frozen=True)
class DistanceConfig:
    """Nearest-neighbor selection; ``weighting`` is the IDW exponent (None = plain mean)."""

    neighbors: int = 1
    weighting: int | None = None
    distance_floor_m: float = 1.0

    def __post_init__(self) -> None:
        check_neighbor_params(self.neighbors, self.weighting, self.distance_floor_m)

    kind = "distance"


@dataclass(frozen=True)
class RandomConfig:
    """Seeded uniform neighbor draw; combination as in DistanceConfig."""

    neighbors: int = 1
    weighting: int | None = None
    seed: int = 0
    distance_floor_m: float = 1.0

    def __post_init__(self) -> None:
        check_neighbor_params(self.neighbors, self.weighting, self.distance_floor_m)

    kind = "random"


EstimatorConfig = Union[MlcConfig, DistanceConfig, RandomConfig]


def estimate(
    config: EstimatorConfig,
    snapshot: LoadSnapshot,
    placements: Sequence[SbsPlacement],
    history: np.ndarray | None = None,
) -> EstimateResult:
    """Fill the unknown loads of ``snapshot`` using the configured estimator.

    ``history`` (per-SBS stand-in features for this slot) is required for
    MLC and ignored by the neighbor estimators. Known entries are never
    touched; with no sleepers the result is empty.
    """
    if snapshot.active_ids.size == 0:
        raise ValueError("snapshot has no active SBS; nothing to interpolate from")
    if isinstance(config, MlcConfig):
        if history is None:
            raise ValueError("MLC estimation requires per-SBS history features")
        return mlc_estimate(
            snapshot,
            history,
            config.layers,
            k_override=config.k_override,
            kmeans_max_iter=config.kmeans_max_iter,
            kmeans_tol=config.kmeans_tol,
            kmeans_seed=config.kmeans_seed,
            elbow_k_max=config.elbow_k_max,
        )
    if isinstance(config, DistanceConfig):
        return distance_estimate(
            snapshot,
            placements,
            config.neighbors,
            config.weighting,
            distance_floor=config.distance_floor_m,
        )
    if isinstance(config, RandomConfig):
        return random_estimate(
            snapshot,
            placements,
            config.neighbors,
            config.weighting,
            config.seed,
            distance_floor=config.distance_floor_m,
        )
    raise TypeError(f"unknown estimator config type {type(config).__name__}")


@dataclass(frozen=True)
class ErrorSummary:
    """Mean relative estimation error with exclusion bookkeeping."""

    mean_error: float
    n_included: int
    n_excluded: int


def estimation_error(
    actual: Sequence[float] | np.ndarray,
    estimated: Sequence[float] | np.ndarray,
    epsilon: float = 1e-3,
) -> ErrorSummary:
    """Mean of |actual - estimated| / actual over sleepers with actual >= epsilon.

    Sleepers whose true load falls below ``epsilon`` are excluded (the
    relative error is unstable there) and counted in the summary.

    Raises:
        ValueError: on misaligned arrays or if every sleeper is excluded.
    """
    a = np.asarray(actual, dtype=float)
    e = np.asarray(estimated, dtype=float)
    if a.shape != e.shape or a.ndim != 1:
        raise ValueError("actual and estimated must be 1-D arrays of equal length")
    included = a >= epsilon
    n_exc = int((~included).sum())
    if not included.any():
        raise ValueError(f"all {a.size} sleepers fall below epsilon={epsilon}; error undefined")
    rel = np.abs(a[included] - e[included]) / a[included]
    return ErrorSummary(mean_error=float(rel.mean()), n_included=int(included.sum()), n_excluded=n_exc)


__all__ = [
    "ClusteringState",
    "DistanceConfig",
    "ErrorSummary",
    "EstimateResult",
    "EstimatorConfig",
    "MlcConfig",
    "NeighborDetail",
    "RandomConfig",
    "compute_sse",
    "distance_estimate",
    "elbow_select_k",
    "estimate",
    "estimation_error",
    "kmeans_fit",
    "mlc_estimate",
    "positions_array",
    "random_estimate",
]
