"""Exception types shared across the package.

Every precondition violation raises :class:`ConfigurationError` from the
object whose rule it is, naming the parameter in ``param`` when one breaks
it; :class:`ConfigFileError` anchors such an error at a config-file line.
Numerical breakdowns that are the caller's responsibility to avoid
(degenerate exponents with unregularized gradients, singular operators)
raise the dedicated types below so callers can tell them apart from bugs.
"""

__all__ = [
    "ConfigurationError",
    "ConfigFileError",
    "EvaluationError",
    "SingularOperatorError",
    "OracleFailure",
    "EmptySampleError",
]


class ConfigurationError(ValueError):
    """A precondition on user-supplied data does not hold; ``param`` names
    the parameter whose rule failed, when one does."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class ConfigFileError(ConfigurationError):
    """A config file failed to parse or validate; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EvaluationError(ValueError):
    """An expression could not be evaluated on the requested points."""


class SingularOperatorError(RuntimeError):
    """A linearized operator is singular beyond what regularization repairs."""


class OracleFailure(RuntimeError):
    """A reference oracle could not certify a solution."""


class EmptySampleError(RuntimeError):
    """Multi-start sampling produced no converged solutions."""
