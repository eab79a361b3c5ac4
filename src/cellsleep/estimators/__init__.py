"""Sleeping-SBS load estimators behind a single dispatch interface.

Three families are available, selected by the config type:

* ``MlcConfig``      -- multi-level k-means clustering on load values.
* ``DistanceConfig`` -- mean / inverse-distance-weighted mean of the N
                        geographically nearest active SBSs.
* ``RandomConfig``   -- mean / weighted mean of N randomly drawn active SBSs.

Each config lives next to its kernel (``mlc``, ``neighbors``), and the
kernel takes it whole: constructing the config is the one check of its
settings. All estimators are deterministic functions of (inputs, seed) and
return a convex combination of active loads, so estimates always lie inside
the range of the contributing neighbors. ``estimation_error`` is the one
definition of the relative-error metric, for one slot's sleepers or for
rows of them; the CLI and the error sweeps both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..traffic import LoadSnapshot, SbsPlacement
from .kmeans import ClusteringState, elbow_select_k, kmeans_fit
from .mlc import MlcConfig, mlc_estimate
from .neighbors import DistanceConfig, RandomConfig, distance_estimate, positions_array, random_estimate
from .result import EstimateResult, NeighborDetail

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
        return mlc_estimate(snapshot, history, config)
    if isinstance(config, DistanceConfig):
        return distance_estimate(snapshot, placements, config)
    if isinstance(config, RandomConfig):
        return random_estimate(snapshot, placements, config)
    raise TypeError(f"unknown estimator config type {type(config).__name__}")


@dataclass(frozen=True)
class ErrorSummary:
    """Mean relative estimation error with exclusion bookkeeping.

    Plain numbers for one row of sleepers. For rows, ``mean_error`` and
    ``total_error`` are arrays of the estimates' leading shape and the
    counts one per row of the actual loads. ``total_error`` is the sum
    that ``mean_error`` divides by ``n_included``.
    """

    mean_error: float | np.ndarray
    total_error: float | np.ndarray
    n_included: int | np.ndarray
    n_excluded: int | np.ndarray


class ErrorUndefined(ValueError):
    """Every sleeper of row ``row`` of the actual loads falls below epsilon."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


def check_epsilon(epsilon: float) -> None:
    """Reject a negative or non-finite exclusion threshold."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")


def estimation_error(
    actual: Sequence[float] | np.ndarray,
    estimated: Sequence[float] | np.ndarray,
    epsilon: float = 1e-3,
) -> ErrorSummary:
    """Mean of |actual - estimated| / actual over sleepers with actual >= epsilon.

    ``actual`` holds one row of sleeper loads (m,) or rows of them (S, m);
    ``estimated`` has its shape, or that shape behind leading axes (one set
    of rows per estimator, say). A row's sum adds its included relative
    errors left to right in sleeper order (one ``np.cumsum`` along the row,
    each excluded entry +0.0), and its mean is that sum over their count.
    Sleepers whose true load falls below ``epsilon`` are excluded (the
    relative error is unstable there) and counted in the summary.

    Raises:
        ValueError: on an epsilon ``check_epsilon`` rejects or misaligned arrays.
        ErrorUndefined: if every sleeper of a row is excluded.
    """
    check_epsilon(epsilon)
    a = np.asarray(actual, dtype=float)
    e = np.asarray(estimated, dtype=float)
    if a.ndim not in (1, 2) or e.shape[e.ndim - a.ndim :] != a.shape:
        raise ValueError(f"estimated {e.shape} must end in the shape of actual {a.shape}, (m,) or (S, m)")
    included = a >= epsilon
    n_included = np.count_nonzero(included, axis=-1)
    if not n_included.all():
        raise ErrorUndefined(
            f"all {a.shape[-1]} sleepers fall below epsilon={epsilon}; error undefined",
            int(np.argmin(n_included)),
        )
    rel = np.where(included, np.abs(a - e) / np.where(included, a, 1.0), 0.0)
    # (a.shape[-1] is 0 only for no rows of no sleepers)
    total = np.cumsum(rel, axis=-1)[..., -1] if a.shape[-1] else np.zeros(rel.shape[:-1])
    mean = total / n_included
    n_excluded = a.shape[-1] - n_included
    if mean.ndim == 0:
        return ErrorSummary(float(mean), float(total), int(n_included), int(n_excluded))
    return ErrorSummary(mean, total, n_included, n_excluded)


__all__ = [
    "ClusteringState",
    "DistanceConfig",
    "ErrorSummary",
    "ErrorUndefined",
    "EstimateResult",
    "EstimatorConfig",
    "MlcConfig",
    "NeighborDetail",
    "RandomConfig",
    "check_epsilon",
    "distance_estimate",
    "elbow_select_k",
    "estimate",
    "estimation_error",
    "kmeans_fit",
    "mlc_estimate",
    "positions_array",
    "random_estimate",
]
