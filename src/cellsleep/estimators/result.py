"""Shared result containers for the load estimators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NeighborDetail:
    """Audit record: which active SBSs contributed to one estimate.

    Weights are normalized to sum to 1; the tuple is empty when no active
    neighbor contributed (the estimate then kept its prior value).
    """

    sleeper_id: int
    neighbor_ids: tuple[int, ...]
    weights: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "sleeper_id": self.sleeper_id,
            "neighbor_ids": list(self.neighbor_ids),
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class EstimateResult:
    """Estimated loads for the sleeping SBSs of one snapshot.

    ``estimates[i]`` belongs to ``sleeper_ids[i]``. ``layer_estimates``
    is only populated by the multi-level clustering estimator and holds
    one row of intermediate estimates per layer.
    """

    sleeper_ids: tuple[int, ...]
    estimates: np.ndarray
    detail: tuple[NeighborDetail, ...] = field(default=())
    layer_estimates: np.ndarray | None = None

    def __post_init__(self) -> None:
        est = np.asarray(self.estimates, dtype=float).copy()
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)
        if est.shape != (len(self.sleeper_ids),):
            raise ValueError("estimates must align with sleeper_ids")

    @property
    def n_sleepers(self) -> int:
        return len(self.sleeper_ids)

    def to_json_dict(self) -> dict:
        return {
            "sleeper_ids": list(self.sleeper_ids),
            "estimates": [float(e) for e in self.estimates],
            "detail": [d.to_json_dict() for d in self.detail],
        }
