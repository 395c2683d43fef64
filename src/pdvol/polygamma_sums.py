"""Closed forms and bounds for partial sums of polygamma values at
half-integer-spaced arguments: sum_{j=1..k} psi^(m)((j+a)/2).

At a = mu+2 and k = n they are the row sums of the first two cumulants,
which ``cumulants.cumulant_exact`` takes from the exact-law plan instead: the
closed forms here are the paper's claims, each kept next to its
direct-summation counterpart and compared with it by the claim report.
``digamma_sum_closed_alt`` preserves an alternative grouping of the odd-k
tail that carries a spurious constant; its offset against the direct sum is
reported by the claim report's identity grid, not silently absorbed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_integer, check_real, check_real_array
from .specfun import _polygamma

__all__ = [
    "digamma_sum_direct",
    "digamma_sum_closed",
    "digamma_sum_closed_alt",
    "trigamma_sum_direct",
    "trigamma_sum_closed",
    "polygamma_sum_bound_check",
    "identity_grid_report",
]

_LOG2 = math.log(2.0)


def _direct_sum(m: int, a: float, k: int) -> float:
    """sum_{j=1..k} psi^(m)((j+a)/2), summed term by term."""
    j = np.arange(1, k + 1)
    return float(np.sum(_polygamma(m, (j + a) / 2.0)))


def digamma_sum_direct(a: float, k: int) -> float:
    """(1/2) sum_{j=1..k} psi((j+a)/2), summed term by term."""
    a = check_real("digamma_sum_direct", "a", a, above=0.0)
    k = check_integer("digamma_sum_direct", "k", k, 1)
    return 0.5 * _direct_sum(0, a, k)


def digamma_sum_closed(a: float, k: int) -> float:
    """Closed form of digamma_sum_direct in terms of digamma at shifted
    arguments; exact for every k >= 2 (both parities)."""
    a = check_real("digamma_sum_closed", "a", a, above=0.0)
    k = check_integer("digamma_sum_closed", "k", k, 2)
    c = k % 2
    q = (k - c) // 2
    return (
        (q + a / 2.0 - 0.5) * _polygamma(0, a + k - c - 1.0)
        - (a / 2.0 - 0.5) * _polygamma(0, a + 1.0)
        + 0.25 * _polygamma(0, a / 2.0 + q)
        - 0.25 * _polygamma(0, a / 2.0 + 1.0)
        - q * (1.0 + _LOG2)
        + 1.0
        + (c / 2.0) * _polygamma(0, (a + k) / 2.0)
    )


def digamma_sum_closed_alt(a: float, k: int) -> float:
    """Alternative closed form keeping the odd tail at doubled argument with
    the constant +1+2c.  Coincides with the direct sum for even k but is
    offset by exactly +3/2 for odd k; kept for diagnostic reporting."""
    a = check_real("digamma_sum_closed_alt", "a", a, above=0.0)
    k = check_integer("digamma_sum_closed_alt", "k", k, 2)
    c = k % 2
    q = (k - c) // 2
    return (
        (q + a / 2.0 - 0.5) * _polygamma(0, a + k - c - 1.0)
        + (c / 2.0) * _polygamma(0, a + k - 1.0)
        + 0.25 * _polygamma(0, (a + k) / 2.0)
        - (a / 2.0 - 0.5) * _polygamma(0, a + 1.0)
        - 0.25 * _polygamma(0, a / 2.0 + 1.0)
        - (k / 2.0) * (1.0 + _LOG2)
        + 1.0
        + 2.0 * c
    )


def trigamma_sum_direct(a: float, k: int) -> float:
    """(1/4) sum_{j=1..k} psi^(1)((j+a)/2)."""
    a = check_real("trigamma_sum_direct", "a", a, above=0.0)
    k = check_integer("trigamma_sum_direct", "k", k, 1)
    return 0.25 * _direct_sum(1, a, k)


def trigamma_sum_closed(a: float, k: int) -> float:
    """Closed form of trigamma_sum_direct; exact for every k >= 2."""
    a = check_real("trigamma_sum_closed", "a", a, above=0.0)
    k = check_integer("trigamma_sum_closed", "k", k, 2)
    c = k % 2
    top = a + k - c + 1.0
    return (
        0.5 * (_polygamma(0, top) - _polygamma(0, a + 1.0))
        + (a / 2.0) * (_polygamma(1, top) - _polygamma(1, a + 1.0))
        - 0.125 * (_polygamma(1, top / 2.0) - _polygamma(1, (a + 1.0) / 2.0))
        + ((k - c) / 2.0) * _polygamma(1, top)
        + (c / 4.0) * _polygamma(1, (k + a) / 2.0)
    )


def polygamma_sum_bound_check(a: float, k: int, m: int):
    """Evaluate |2^-(m+1) sum_{j=1..k} psi^(m)((j+a)/2)| against the bound
    4 m! / (a+1)^(m-1).  Returns (lhs_abs, bound, holds)."""
    a = check_real("polygamma_sum_bound_check", "a", a, above=0.0)
    k = check_integer("polygamma_sum_bound_check", "k", k, 2)
    m = check_integer("polygamma_sum_bound_check", "m", m, 2)
    lhs_abs = abs(_direct_sum(m, a, k) / 2.0 ** (m + 1))
    try:
        bound = 4.0 * math.factorial(m) / (a + 1.0) ** (m - 1)
    except OverflowError:  # (a+1)^(m-1) past the largest float: the bound is below it
        bound = math.exp(math.log(4.0 * math.factorial(m)) - (m - 1) * math.log(a + 1.0))
    return lhs_abs, bound, bool(lhs_abs <= bound)


def identity_tolerance(k: int, scale: float) -> float:
    # accumulation allowance for k-term sums
    return 1e-10 * (1.0 + k * np.finfo(float).eps * abs(scale)) * max(1.0, abs(scale))


DEFAULT_A_GRID = (0.3, 0.5, 1.0, 2.7, 10.0)
DEFAULT_K_GRID = (2, 3, 10, 11, 100, 101, 10**4)
DEFAULT_M_GRID = (2, 3, 4, 5, 6)


def _grid_row(a, k, m, proposition, lhs, rhs, abs_diff, holds):
    return dict(a=a, k=k, m=m, proposition=proposition, lhs=lhs, rhs=rhs, abs_diff=abs_diff, holds=holds)


def identity_grid_report(a_grid=DEFAULT_A_GRID, k_grid=DEFAULT_K_GRID, m_grid=DEFAULT_M_GRID):
    """Sweep the identity grids; yields dict rows
    {a, k, m, proposition, lhs, rhs, abs_diff, holds}."""
    rows = []
    for a in check_real_array("identity_grid_report", "a_grid", a_grid, above=0.0).ravel().tolist():
        for k in k_grid:
            direct = digamma_sum_direct(a, k)
            tdirect = trigamma_sum_direct(a, k)
            tol = identity_tolerance(k, direct)
            # (proposition, direct sum, closed form, tolerance)
            identities = [
                ("digamma_sum", direct, digamma_sum_closed(a, k), tol),
                ("digamma_sum_alt", direct, digamma_sum_closed_alt(a, k), tol),
                ("trigamma_sum", tdirect, trigamma_sum_closed(a, k), identity_tolerance(k, tdirect)),
            ]
            for prop, lhs, rhs, limit in identities:
                rows.append(_grid_row(a, k, "", prop, lhs, rhs, abs(lhs - rhs), abs(lhs - rhs) <= limit))
            for m in m_grid:
                lhs_abs, bound, holds = polygamma_sum_bound_check(a, k, m)
                rows.append(_grid_row(a, k, m, "polygamma_sum_bound", lhs_abs, bound,
                                      max(0.0, lhs_abs - bound), holds))
    return rows
