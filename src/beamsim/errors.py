"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""


class BeamsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BeamsimError):
    """A run configuration is malformed or violates the documented schema."""


class NumericalError(BeamsimError):
    """A numerical routine failed to produce a trustworthy result.

    ``index`` is the position of the failing point when the routine
    evaluated a sequence of them, else None."""

    index: int | None = None


class ConvergenceError(NumericalError):
    """An iterative kernel hit its iteration cap before converging."""


class InfeasibleConfigError(BeamsimError):
    """No beam count yields positive throughput under the given overheads."""


class ApproximationInvalidError(BeamsimError):
    """A closed-form approximation is outside its domain of validity."""


class DegenerateSampleError(BeamsimError):
    """A conditional estimate was requested but every trial was discarded."""
