"""Exception hierarchy for walkrank.

Every error raised by the library derives from :class:`WalkrankError`, so
callers (including the CLI) can distinguish "the input or parameters were
bad" from genuine bugs. Validation-type errors carry enough context in their
message to name the violated bound.
"""

from __future__ import annotations


class WalkrankError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(WalkrankError):
    """An input file could not be parsed. Carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class FormatError(WalkrankError):
    """A file is syntactically readable but in an unsupported format variant."""


class ValidationError(WalkrankError):
    """A graph, vector, or option violates a documented precondition."""


class DomainError(ValidationError):
    """A numeric parameter lies outside its feasible domain.

    The message names the parameter and the violated bound (e.g. ``alpha
    must lie in [0, t_star) with t_star = 1/lambda1 = ...``).
    """


class CapacityError(ValidationError):
    """The requested computation exceeds a configured size limit."""


class UnsupportedOperationError(ValidationError):
    """The operation is undefined for this kind of graph (e.g. directed)."""


class ConvergenceError(WalkrankError):
    """An iteration hit its step limit before meeting tolerance.

    The best iterate seen so far is attached as ``best``, with the last
    residual as ``residual``, so callers can inspect or salvage it.
    """

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual

