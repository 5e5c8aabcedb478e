"""Exception types shared across the toolkit."""


class HemoflowError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(HemoflowError, ValueError):
    """A precondition on an argument was violated."""


class SchemaError(HemoflowError, ValueError):
    """A case / config / manifest file does not match its schema."""


class SolverFailure(HemoflowError, RuntimeError):
    """A linear or nonlinear solve did not converge."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NoSolutionError(HemoflowError, ValueError):
    """An algebraic inversion has no admissible root."""


class UndefinedMetricError(HemoflowError, ZeroDivisionError):
    """A relative metric was requested against a zero reference."""


class ExtrapolationError(HemoflowError, ValueError):
    """A surrogate was queried outside its training box without an override."""


class DegenerateInputError(HemoflowError, ValueError):
    """Input data carries no usable information (e.g. all-zero snapshots)."""
