"""Exception types shared across the package, and its one integer rule.

Every integer argument (a dimension n, a cumulant or polygamma order m, a
run length k, the sphere identity's weight mu, a draw or audit count) is
checked by ``check_integer``: it accepts what ``operator.index`` accepts,
except a bool, inside the stated range, and refuses everything else with
``DomainError`` naming the function and the argument.  Integral floats (3.0,
``np.float64(2.0)``) are refused like any other float.

A result computed as the exp of its log (``checked_exp``) is returned when it
is a finite float, and refused with ``DomainError`` in the function's name
otherwise, never with ``OverflowError`` or as NaN.
"""

import math
import operator
import sys


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A numerical procedure failed to converge within its budget."""


def check_integer(function: str, argument: str, value, least: int, most=None) -> int:
    """``value`` as a Python int if it is an integer, not a bool, in
    [least, most] (no top when ``most`` is None); DomainError otherwise."""
    number = value
    if type(value) is not int:  # a plain int skips the conversion
        try:
            number = None if isinstance(value, bool) else operator.index(value)
        except TypeError:
            number = None
    if number is None or number < least or (most is not None and number > most):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise DomainError(f"{function}: needs an integer {argument} {bound}, got {value!r}")
    return number


def checked_exp(function: str, what: str, log_value: float, log_function=None) -> float:
    """exp(``log_value``), the result ``what`` of ``function``; DomainError in
    ``function``'s name where it exceeds the largest float or its log is NaN,
    naming ``log_function`` when that gives the log as a finite value."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    reason = "is undefined" if math.isnan(log_value) else f"exceeds the largest float ({sys.float_info.max:.3g})"
    hint = f"; {log_function} gives its log" if log_function else ""
    raise DomainError(f"{function}: {what} = exp({log_value:.6g}) {reason}{hint}")
