"""Exception types shared across the package; each carries in `exit_code`
the command line's exit status for it, 2 unless a subclass sets its own."""


class HartreeboxError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DomainError(HartreeboxError, ValueError):
    """An argument is outside the admissible parameter domain."""


class DiagnosticError(HartreeboxError, RuntimeError):
    """A numerical procedure finished but its self-check failed."""


class NumericError(HartreeboxError, ArithmeticError):
    """A computed quantity is NaN/Inf; the message names the component."""


class ConvergenceError(HartreeboxError, RuntimeError):
    """An iteration stopped short of its tolerance; carries the iteration
    history, in the rows of GroundStateResult.history, whose last row holds
    the last residuals, and from the solver the stop `reason`."""

    exit_code = 3

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = history


class VerificationError(HartreeboxError, RuntimeError):
    """A structural check ran to completion and its assertion failed."""

    exit_code = 4


class ConfigError(HartreeboxError):
    """Config file problem; the message names its 1-based line/column."""

    exit_code = 1

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
