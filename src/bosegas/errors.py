"""Exception types shared across the toolkit."""


class CondensationBoundaryError(ValueError):
    """Chemical potential at or below the lowest mode: condensation boundary crossed."""


class DivergenceError(ValueError):
    """An integral or series required by the operation does not converge."""


class ActivityError(ValueError):
    """Activity outside the convergence region of the loop-gas winding sum."""


class ResourceBudgetError(RuntimeError):
    """Requested enumeration or mode count exceeds the configured memory budget."""


class TruncationError(RuntimeError):
    """Occupation or mode truncation carries more weight than the tolerance allows."""


class TuningError(RuntimeError):
    """Sampler acceptance collapsed; step sizes or move mix need retuning."""


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


class StabilityError(RuntimeError):
    """A configuration energy fell below the stability floor -beta B N: the
    potential's claimed stability constant B is wrong."""
