"""Exception types shared across the package, and its integer and real rules.

Every integer argument (a dimension n, a cumulant or polygamma order m, a
run length k, the sphere identity's weight mu, a draw or audit count) is
checked by ``check_integer``: it accepts what ``operator.index`` accepts,
except a bool, inside the stated range, and refuses everything else with
``DomainError`` naming the function and the argument.  Integral floats (3.0,
``np.float64(2.0)``) are refused like any other float.

Every real argument (a weight, an intensity, an order s, a point, a radius)
is checked by ``check_real``: it accepts a Python int or float, a numpy
integer or floating scalar or a 0-d numeric array between bounds, each open
or closed, and returns a Python float, so a numpy scalar gives the float's
bits.  It must be finite unless a closed bound is +-inf; anything else is
refused as above.  ``check_real_array`` does the same for every element.

A result computed as the exp of its log (``checked_exp``) is returned when it
is a finite float, and refused with ``DomainError`` in the function's name
otherwise, never with ``OverflowError`` or as NaN; ``refusing_fp_errors``
refuses where numpy would warn of an overflow on the way.
"""

import math
import operator
import sys

import numpy as np


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


def _interval(least, most, above, below):
    """(low, high, low closed, high closed): an open bound where one is
    given, else a closed one, else the open +-inf that keeps values finite."""
    low = above if above is not None else -math.inf if least is None else least
    high = below if below is not None else math.inf if most is None else most
    return low, high, above is None and least is not None, below is None and most is not None


def _refusal(function, argument, interval, got, article):
    """The DomainError for a value ``got`` outside ``interval``."""
    low, high, low_closed, high_closed = interval
    if high == math.inf and not high_closed:  # finite, above a bound if any
        bound = f"finite real {argument}" + (f" {'>=' if low_closed else '>'} {low!r}" if low > -math.inf else "")
    else:
        bound = f"real {argument} in {'[' if low_closed else '('}{low!r}, {high!r}{']' if high_closed else ')'}"
    return DomainError(f"{function}: needs {article}{bound}, got {got!r}")


def _real(value) -> float:
    """value as a float if it is an int or a numeric 0-d array or numpy
    scalar, not a bool; NaN otherwise."""
    try:
        numeric = isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0 and value.dtype.kind in "iuf"
        return float(value) if numeric or type(value) is int else math.nan
    except OverflowError:  # an int past the largest float
        return math.nan


def check_real(function: str, argument: str, value, least=None, most=None, above=None, below=None) -> float:
    """``value`` as a Python float if it is a real number, not a bool, with
    value >= least, <= most, > above and < below (a bound left None does not
    bind, but a value must then be finite on that side); DomainError
    otherwise."""
    number = value if type(value) is float else _real(value)  # a plain float skips the conversion
    if (number > above if above is not None else number >= least if least is not None else number > -math.inf) and (
        number < below if below is not None else number <= most if most is not None else number < math.inf
    ):
        return number
    raise _refusal(function, argument, _interval(least, most, above, below), value, "a ")


def check_real_array(function: str, argument: str, values, least=None, most=None, above=None, below=None):
    """``values`` as a float ndarray of its shape if every element passes
    ``check_real``'s test; DomainError naming the first that does not
    otherwise."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{function}: needs real {argument}, got an array of dtype {array.dtype}")
    array = array.astype(float, copy=False)
    low, high, low_closed, high_closed = interval = _interval(least, most, above, below)
    good = array >= low if low_closed else array > low
    if not (high_closed and high == math.inf):  # the low test has refused NaN
        good &= array <= high if high_closed else array < high
    if not good.all():
        raise _refusal(function, argument, interval, float(array[~good].flat[0]), "")
    return array


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


class in_name_of:
    """A context that re-raises a callee's DomainError or ConvergenceError in
    ``function``'s name, followed by the callee's message."""

    def __init__(self, function: str):
        self.function = function

    def __enter__(self):
        pass

    def __exit__(self, kind, err, traceback):
        if isinstance(err, (DomainError, ConvergenceError)):
            raise type(err)(f"{self.function}: {err}") from None


#: what numpy's floating-point events say of a result; an invalid value is undefined
_EVENTS = {"overflow": f"exceeds the largest float ({sys.float_info.max:.3g})", "divide by zero": "is infinite"}


def refusing_fp_errors(function: str, what: str):
    """numpy's error state under which an overflow, a division by zero or an
    invalid value, where numpy would warn, raises DomainError in
    ``function``'s name instead; the values computed are those of the
    default state."""

    def refuse(kind, flag):
        raise DomainError(f"{function}: {what} {_EVENTS.get(kind, 'is undefined')}")

    return np.errstate(over="call", divide="call", invalid="call", call=refuse)
