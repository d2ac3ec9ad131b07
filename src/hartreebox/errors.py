"""Exception types shared across the package."""


class HartreeboxError(Exception):
    """Base class for all package errors."""


class DomainError(HartreeboxError, ValueError):
    """An argument is outside the admissible parameter domain."""


class DiagnosticError(HartreeboxError, RuntimeError):
    """A numerical procedure finished but its self-check failed."""


class BracketError(DiagnosticError):
    """A root bracket could not be established."""


class NumericError(HartreeboxError, ArithmeticError):
    """A computed quantity is NaN/Inf; the message names the component."""


class ConvergenceError(HartreeboxError, RuntimeError):
    """An iteration exhausted its budget; carries the last residuals and
    the iteration history, in the rows of GroundStateResult.history."""

    def __init__(self, message, nehari_residual=None, grad_residual=None,
                 iters=None, history=()):
        super().__init__(message)
        self.nehari_residual = nehari_residual
        self.grad_residual = grad_residual
        self.iters = iters
        self.history = history


class VerificationError(HartreeboxError, RuntimeError):
    """A structural check ran to completion and its assertion failed."""


class ConfigError(HartreeboxError):
    """Config file problem, with 1-based line/column of the offending token."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col
