from unittest import mock

import numpy as np
import pytest

from cellsleep.estimators import kmeans
from cellsleep.power import NetworkPowerConfig, PowerParams
from cellsleep.traffic import GRID_PITCH_M, LoadSnapshot, SbsPlacement


def grid_placements(n_sbs: int, grid_side: int | None = None) -> tuple[SbsPlacement, ...]:
    """SBSs 0..n-1 on consecutive squares of a row-major grid."""
    side = grid_side or int(np.ceil(np.sqrt(n_sbs)))
    out = []
    for i in range(n_sbs):
        col, row = i % side, i // side
        out.append(
            SbsPlacement(
                sbs_id=i,
                square_id=i + 1,
                x_m=(col + 0.5) * GRID_PITCH_M,
                y_m=(row + 0.5) * GRID_PITCH_M,
            )
        )
    return tuple(out)


def mlc_rule(seed=0, max_iter=100, tol=1e-9, elbow_k_max=8):
    """MLC's clustering constants in ``kmeans`` set to other values within a ``with`` block."""
    return mock.patch.multiple(
        kmeans, LLOYD_SEED=seed, LLOYD_MAX_ITER=max_iter, LLOYD_TOL=tol, ELBOW_K_MAX=elbow_k_max
    )


def snapshot_of(loads, sleeping) -> LoadSnapshot:
    loads = np.asarray(loads, dtype=float)
    mask = np.ones(loads.shape[0], dtype=bool)
    mask[list(sleeping)] = False
    return LoadSnapshot(loads=loads, known_mask=mask)


def random_power_params(rng: np.random.Generator) -> PowerParams:
    operational = float(rng.uniform(5.0, 200.0))
    return PowerParams(
        operational_power=operational,
        amplifier_slope=float(rng.uniform(0.5, 10.0)),
        transmit_power=float(rng.uniform(0.5, 100.0)),
        sleep_power=float(rng.uniform(0.0, operational)),
    )


def random_network_config(rng: np.random.Generator, n_sbs: int) -> NetworkPowerConfig:
    return NetworkPowerConfig(
        haps=random_power_params(rng),
        mbs=random_power_params(rng),
        sbs=random_power_params(rng),
        n_sbs=n_sbs,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
