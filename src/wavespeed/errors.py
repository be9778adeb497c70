"""Exception hierarchy shared across the package.

Callers mostly care about two branches: DomainError means the input
violated a documented hypothesis (the CLI maps it to exit code 2), and
NumericalError means a computation started from valid input but could
not finish trustworthily (exit code 3).
"""


class WavespeedError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(WavespeedError, ValueError):
    """Input violates a documented hypothesis (p > 1, h >= 0, ...)."""


class NumericalError(WavespeedError, ArithmeticError):
    """A numerical procedure failed; the result would be untrustworthy."""


class MgfOverflowError(NumericalError, OverflowError):
    """An exp() argument left floating-point range while evaluating M.

    Signals the caller to shrink its bracket; never a silent inf.
    """


class BracketError(NumericalError):
    """A root bracket could not be established or was invalid."""


class ConvergenceError(NumericalError):
    """An iteration hit its cap before meeting the requested tolerance."""


class CubicRootError(NumericalError):
    """The Gaussian cubic's fast path failed, for any reason; the solver
    catches it and lets the generic minimizer answer instead."""
