"""Exception hierarchy shared across the solver.

Exit-code mapping used by the CLI: ConfigError and SupportWindowError -> 2,
AssumptionError -> 3, ConvergenceError -> 4, NumericalError -> 5.
"""


class GHDError(Exception):
    """Base class for all package errors."""


class ConfigError(GHDError):
    """Invalid configuration: bad bounds, counts, schema violations."""


class AssumptionError(GHDError):
    """A rigorous admissibility bound is violated; the message names it."""


class ConvergenceError(GHDError):
    """An iterative solve failed to meet its tolerance within its budget."""


class SupportWindowError(GHDError):
    """Solution support escaped the spatial window of a diagnostic sweep."""


class NumericalError(GHDError):
    """Unexpected numerical failure (singular system, invalid table)."""
