"""Closed forms and bounds for partial sums of polygamma values at
half-integer-spaced arguments: sum_{j=1..k} psi^(m)((j+a)/2).

These sums drive the cumulant expansions: ``cumulants.cumulant_exact`` takes
its orders 1 and 2 from the closed forms, at a = mu+2 and k = n.  Each closed
form is kept next to its direct-summation counterpart and the two are
compared as a harness.
``digamma_sum_closed_alt`` preserves an alternative grouping of the odd-k
tail that carries a spurious constant; its offset against the direct sum is
reported, not silently absorbed (see ``digamma_sum_offset``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma as _psi
from scipy.special import polygamma as _polygamma
from scipy.special import zeta as _zeta

from .errors import DomainError

__all__ = [
    "digamma_sum_direct",
    "digamma_sum_closed",
    "digamma_sum_closed_alt",
    "digamma_sum_offset",
    "trigamma_sum_direct",
    "trigamma_sum_closed",
    "polygamma_sum_bound_check",
    "identity_grid_report",
]

_LOG2 = math.log(2.0)


def _check(a: float, k: int, kmin: int = 2):
    if not a > 0:
        raise DomainError("polygamma sums: a must be positive")
    if k < kmin or k != int(k):
        raise DomainError(f"polygamma sums: k must be an integer >= {kmin}")


def digamma_sum_direct(a: float, k: int) -> float:
    """(1/2) sum_{j=1..k} psi((j+a)/2), summed term by term."""
    _check(a, k, kmin=1)
    j = np.arange(1, int(k) + 1)
    return 0.5 * float(np.sum(_psi((j + a) / 2.0)))


def digamma_sum_closed(a: float, k: int) -> float:
    """Closed form of digamma_sum_direct in terms of digamma at shifted
    arguments; exact for every k >= 2 (both parities)."""
    _check(a, k)
    c = int(k) % 2
    q = (int(k) - c) // 2
    return (
        (q + a / 2.0 - 0.5) * _psi(a + k - c - 1.0)
        - (a / 2.0 - 0.5) * _psi(a + 1.0)
        + 0.25 * _psi(a / 2.0 + q)
        - 0.25 * _psi(a / 2.0 + 1.0)
        - q * (1.0 + _LOG2)
        + 1.0
        + (c / 2.0) * _psi((a + k) / 2.0)
    )


def digamma_sum_closed_alt(a: float, k: int) -> float:
    """Alternative closed form keeping the odd tail at doubled argument with
    the constant +1+2c.  Coincides with the direct sum for even k but is
    offset by exactly +3/2 for odd k; kept for diagnostic reporting."""
    _check(a, k)
    c = int(k) % 2
    q = (int(k) - c) // 2
    return (
        (q + a / 2.0 - 0.5) * _psi(a + k - c - 1.0)
        + (c / 2.0) * _psi(a + k - 1.0)
        + 0.25 * _psi((a + k) / 2.0)
        - (a / 2.0 - 0.5) * _psi(a + 1.0)
        - 0.25 * _psi(a / 2.0 + 1.0)
        - (k / 2.0) * (1.0 + _LOG2)
        + 1.0
        + 2.0 * c
    )


def digamma_sum_offset(a: float, k: int) -> float:
    """Offset of the alternative closed form against the direct sum."""
    return digamma_sum_closed_alt(a, k) - digamma_sum_direct(a, k)


def trigamma_sum_direct(a: float, k: int) -> float:
    """(1/4) sum_{j=1..k} psi^(1)((j+a)/2)."""
    _check(a, k, kmin=1)
    j = np.arange(1, int(k) + 1)
    return 0.25 * float(np.sum(_polygamma(1, (j + a) / 2.0)))


def trigamma_sum_closed(a: float, k: int) -> float:
    """Closed form of trigamma_sum_direct; exact for every k >= 2.

    psi^(1)(x) is taken as zeta(2, x), the value scipy's polygamma(1, x)
    returns, without that wrapper's per-call overhead."""
    _check(a, k)
    c = int(k) % 2
    top = a + k - c + 1.0
    return (
        0.5 * (_psi(top) - _psi(a + 1.0))
        + (a / 2.0) * (_zeta(2.0, top) - _zeta(2.0, a + 1.0))
        - 0.125 * (_zeta(2.0, top / 2.0) - _zeta(2.0, (a + 1.0) / 2.0))
        + ((k - c) / 2.0) * _zeta(2.0, top)
        + (c / 4.0) * _zeta(2.0, (k + a) / 2.0)
    )


def polygamma_sum_bound_check(a: float, k: int, m: int):
    """Evaluate |2^-(m+1) sum_{j=1..k} psi^(m)((j+a)/2)| against the bound
    4 m! / (a+1)^(m-1).  Returns (lhs_abs, bound, holds)."""
    _check(a, k)
    if m < 2 or m != int(m):
        raise DomainError("polygamma_sum_bound_check: m must be an integer >= 2")
    j = np.arange(1, int(k) + 1)
    lhs_abs = abs(float(np.sum(_polygamma(int(m), (j + a) / 2.0))) / 2.0 ** (m + 1))
    bound = 4.0 * math.factorial(int(m)) / (a + 1.0) ** (m - 1)
    return lhs_abs, bound, bool(lhs_abs <= bound)


def identity_tolerance(a: float, k: int, scale: float) -> float:
    # accumulation allowance for k-term sums
    return 1e-10 * (1.0 + k * np.finfo(float).eps * abs(scale)) * max(1.0, abs(scale))


DEFAULT_A_GRID = (0.3, 0.5, 1.0, 2.7, 10.0)
DEFAULT_K_GRID = (2, 3, 10, 11, 100, 101, 10**4)
DEFAULT_M_GRID = (2, 3, 4, 5, 6)


def identity_grid_report(a_grid=DEFAULT_A_GRID, k_grid=DEFAULT_K_GRID, m_grid=DEFAULT_M_GRID):
    """Sweep the identity grids; yields dict rows
    {a, k, m, proposition, lhs, rhs, abs_diff, holds}."""
    rows = []
    for a in a_grid:
        for k in k_grid:
            direct = digamma_sum_direct(a, k)
            closed = digamma_sum_closed(a, k)
            tol = identity_tolerance(a, k, direct)
            rows.append(
                dict(a=a, k=k, m="", proposition="digamma_sum", lhs=direct, rhs=closed,
                     abs_diff=abs(direct - closed), holds=abs(direct - closed) <= tol)
            )
            alt = digamma_sum_closed_alt(a, k)
            rows.append(
                dict(a=a, k=k, m="", proposition="digamma_sum_alt", lhs=direct, rhs=alt,
                     abs_diff=abs(direct - alt), holds=abs(direct - alt) <= tol)
            )
            tdirect = trigamma_sum_direct(a, k)
            tclosed = trigamma_sum_closed(a, k)
            rows.append(
                dict(a=a, k=k, m="", proposition="trigamma_sum", lhs=tdirect, rhs=tclosed,
                     abs_diff=abs(tdirect - tclosed), holds=abs(tdirect - tclosed) <= identity_tolerance(a, k, tdirect))
            )
            for m in m_grid:
                lhs_abs, bound, holds = polygamma_sum_bound_check(a, k, m)
                rows.append(
                    dict(a=a, k=k, m=m, proposition="polygamma_sum_bound", lhs=lhs_abs, rhs=bound,
                         abs_diff=max(0.0, lhs_abs - bound), holds=holds)
                )
    return rows
