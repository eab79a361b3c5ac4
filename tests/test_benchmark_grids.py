"""The benchmark's point counts come from its own copy of the figures' grids; it must
equal the defaults the figure definition runs at the profiles the workloads use."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cellsleep import experiments
from cellsleep.config import desk_profile, paper_profile

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("profile", [desk_profile, paper_profile])
def test_benchmark_grids_are_the_figure_defaults(profile):
    workloads, config = _workloads(), profile()
    defaults = {grid: tuple(default(config)) for grid, (default, _) in experiments._GRIDS.items()}
    assert (workloads.N_GRID, workloads.EXPONENTS, workloads.L_GRID) == (
        defaults["n_values"], defaults["exponents"], defaults["l_values"]
    )
