"""Exception types shared across the package.

The CLI maps these onto exit codes, so anything a subcommand may surface
to the user should derive from one of the classes below rather than a
bare Exception.
"""


class CellSleepError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CellSleepError):
    """Invalid configuration: unknown keys, out-of-range values, bad flags."""


class DataFormatError(CellSleepError):
    """Unreadable or semantically invalid input data."""


class InfeasibleNetworkError(CellSleepError):
    """No switching state satisfies the MBS/HAPS capacity constraints."""


class GridError(ConfigError, ValueError):
    """A sweep grid value that fails its check or repeats; ``grid`` names the grid."""

    def __init__(self, grid: str, reason) -> None:
        super().__init__(f"{grid}: {reason}")
        self.grid, self.reason = grid, str(reason)
