"""Exceptions shared by all modules, and the one rule of what a number is."""

import math
import numbers


def _finite_real(v) -> bool:
    """Whether v is a real number (a Python or numpy int or float, not a
    bool, which Python counts as an int) of finite value; an int beyond the
    double range is not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _integer(v) -> bool:
    """Whether v is an integer: a Python or numpy int, not a bool (which
    Python counts as an int)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_integers(settings, *names: str) -> None:
    """Raise ValueError naming the first of the fields ``names`` not an integer."""
    for name in names:
        if not _integer(getattr(settings, name)):
            raise ValueError(f"{name} must be an integer")


class HammcertError(Exception):
    """Base class for all library errors."""


class DslSyntaxError(HammcertError):
    """Raised when expression text cannot be parsed; carries the position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


class EvalDomainError(HammcertError):
    """Domain error (log of nonpositive, sqrt of negative, division by zero)
    during expression evaluation; names the offending subexpression."""

    def __init__(self, message: str, subexpr: str):
        self.subexpr = subexpr
        super().__init__(f"{message} in subexpression {subexpr!r}")


class QuadratureError(HammcertError):
    """Non-convergent or NaN-producing integral."""


class ModelViolationError(HammcertError):
    """A model condition (C1..C8) fails for the supplied problem data.

    The conditions are the library's standing assumptions on kernels,
    nonlinearities, boundary functions and functionals; see README.
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(f"condition ({condition}) violated: {message}")


class ConfigError(HammcertError):
    """Invalid configuration document; names the offending key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class MissingBoundError(HammcertError):
    """A certificate requires a declared bound that the config does not provide."""


class ContradictionError(HammcertError):
    """The same parameter point was certified both for existence and
    nonexistence with the same declared bounds; carries a full dump."""

    def __init__(self, message: str, dump: dict):
        self.dump = dump
        super().__init__(message)
