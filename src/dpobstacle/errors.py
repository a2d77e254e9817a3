"""Exception types shared across the package.

Every precondition violation raises :class:`ConfigurationError` from the
object whose rule it is, naming the parameter in ``param`` when one breaks
it; :class:`ConfigFileError` anchors such an error at a config-file line.
A degenerate operator is such a violation: ``ProblemSpec`` refuses a
gradient regularization that cannot keep the coefficient finite, so no
solve meets a singular one.  An oracle that cannot certify its solution and
a sample with no converged solve raise the dedicated types below.
"""

__all__ = [
    "ConfigurationError",
    "ConfigFileError",
    "EvaluationError",
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


class OracleFailure(RuntimeError):
    """A reference oracle could not certify a solution."""


class EmptySampleError(RuntimeError):
    """Multi-start sampling produced no converged solutions."""
