"""Exact cumulants of Y = log V_n(Z_mu) and their asymptotic expansions.

The m-th cumulant is the m-th derivative at 0 of the cumulant generating
function log E V^z, whose gamma product ``exactlaw._plan`` prepares once per
(n, mu): the moment formula is stated there only, and ``cumulant_exact``
differentiates that plan (``specfun.GammaRatioSum.derivative``).  The row of
n polygamma values is summed through the plan's runs at a cost that does not
depend on n, with no digits lost when the weight dwarfs the dimension.  The
paper's closed row sums in ``polygamma_sums`` are checked against their direct
sums by the claim report, and an independent finite-difference oracle
differentiates the cumulant generating function numerically.

Also here: the mean/variance expansions, the explicit cumulant bound for
m >= 3, per-regime leading terms, the deviation scale epsilon_n, and the
exponential concentration envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import DomainError, check_integer, check_real
from .exactlaw import STRIP_GUARD, ModelParams, _linear, _plan, cgf, strip_edge
from .specfun import _polygamma

__all__ = [
    "RegimeSpec",
    "cumulant_exact",
    "cumulant_fd_oracle",
    "cumulant_report",
    "mean_expansion",
    "variance_expansion",
    "cumulant_bound",
    "regime_expansion",
    "deviation_scale",
    "concentration_envelope",
]


def cumulant_exact(params: ModelParams, m: int) -> float:
    """m-th cumulant of log V_n(Z_mu), m >= 1: the m-th z-derivative at 0 of
    log E V^z, taken from the same prepared gamma-ratio plan that evaluates
    the cumulant generating function (``specfun.GammaRatioSum.derivative``),
    plus for m = 1 the part of log E V^z linear in z.

    Its cost does not depend on n, and no digits are lost when the weight
    dwarfs the dimension: against 50-digit mpmath over n <= 1e6, mu <= 1e8
    and m <= 8 the relative error is below 2.5e-14 where mu < 100 n and below
    4e-12 where mu >= 100 n, about n ulps of the moment formula's own
    cancellation.  An order at which (m-1)! or a gamma ratio's coefficient
    to the m-th power overflows a double (m >= 172, or m >= 84 at
    n = 1e4) is refused with DomainError, and so, without a warning, is one
    whose weighted polygamma sum overflows (m >= 154 at mu = -1.9).
    """
    m = check_integer("cumulant_exact", "m", m, 1)
    try:
        plan = _plan(params.n, params.mu)
    except DomainError as err:
        raise DomainError(f"cumulant_exact: {err}") from None
    return plan.derivative(m, "cumulant_exact") + (m == 1) * _linear(params)


#: the oracle's Ridders tableau: 8 steps, each 1.5 times smaller than the last
_FD_LEVELS = 8
_FD_RATIO = 1.5


def cumulant_fd_oracle(params: ModelParams, m: int) -> float:
    """Numerical m-th derivative of s -> cgf(params, s) at 0.

    Central differences with Ridders-style extrapolation: the stencil is
    evaluated at 8 steps shrinking by 1.5, sized from the extended
    analyticity strip (``exactlaw.strip_edge``), and the extrapolation stops
    where the error estimate turns.  The whole tableau's stencil points are
    one ``cgf`` call, and each row is summed exactly (``math.fsum``).
    Relative accuracy on the tested ranges (m <= 4, n <= 50) is better than
    1e-6; orders 5 and 6 degrade to roughly 1e-4.
    """
    m = check_integer("cumulant_fd_oracle", "m", m, 1, 6)
    span = -strip_edge(params, extended=True) - STRIP_GUARD
    h0 = min(0.45 * span / (m / 2.0 + 0.5), 0.6)
    if h0 < 1e-12:
        raise DomainError("cumulant_fd_oracle: step underflow at the strip edge")
    steps = [h0 / _FD_RATIO**j for j in range(_FD_LEVELS)]
    coefs = [(-1.0) ** k * comb(m, k) for k in range(m + 1)]
    vals = cgf(params, np.array([[(m / 2.0 - k) * h for k in range(m + 1)] for h in steps]), extended=True)
    tableau = [[math.fsum(c * v for c, v in zip(coefs, row.tolist())) / h**m] for h, row in zip(steps, vals)]
    best = tableau[0][0]
    err = math.inf
    for col in range(1, _FD_LEVELS):
        f = _FD_RATIO ** (2 * col)
        for row in range(_FD_LEVELS - col):
            tableau[row].append((f * tableau[row + 1][col - 1] - tableau[row][col - 1]) / (f - 1.0))
        est = abs(tableau[0][col] - tableau[0][col - 1])
        if _FD_LEVELS - col > 1:
            est += abs(tableau[1][col - 1] - tableau[0][col - 1])
        if est < err:
            err, best = est, tableau[0][col]
    return best


def cumulant_report(params: ModelParams, max_order: int = 4) -> list:
    """Exact cumulants next to their finite-difference oracle values: one row
    {m, exact, oracle, abs_diff} per order m = 1..max_order, for an integer
    max_order in [1, 6] (the oracle's orders), refused otherwise before any
    cumulant is computed."""
    max_order = check_integer("cumulant_report", "max_order", max_order, 1, 6)
    rows = []
    for m in range(1, max_order + 1):
        exact = cumulant_exact(params, m)
        oracle = cumulant_fd_oracle(params, m)
        rows.append(dict(m=m, exact=exact, oracle=oracle, abs_diff=abs(exact - oracle)))
    return rows


def mean_expansion(params: ModelParams) -> float:
    """First-order large-n expansion of E log V (O(1) remainder dropped)."""
    n, mu, gam = params.n, params.mu, params.gamma
    return (
        -(n / 2.0) * math.log(n)
        - n * math.log(math.sqrt(2.0 * math.pi))
        - math.log(gam)
        + (mu / 2.0 + 7.0 / 4.0) * math.log(n + mu)
        + 0.5 * math.log(n)
        - (mu + 1.0) / 2.0 * _polygamma(0, mu + 3.0)
        - 0.25 * _polygamma(0, mu / 2.0 + 2.0)
    )


def variance_expansion(params: ModelParams) -> float:
    """First-order large-n expansion of Var log V (remainder dropped).

    The exact variance differs from this expansion by about
    -(3/4) n / (n+mu)^2, i.e. the remainder is Theta(n/(n+mu)^2) rather than
    O(1/(n+mu)^2); see the claim report for the measured coefficient.
    """
    n, mu = params.n, params.mu
    return (
        (3.0 - n) / (2.0 * (n + mu))
        + 2.0 * n / (n + mu) ** 2
        + 0.5 * math.log(n + mu)
        + 0.5
        - 0.5 * _polygamma(0, mu + 3.0)
        - (mu + 2.0) / 2.0 * _polygamma(1, mu + 3.0)
        + 0.125 * _polygamma(1, (mu + 3.0) / 2.0)
    )


def cumulant_bound(params: ModelParams, m: int) -> float:
    """Explicit bound on |c_m| for m >= 3:
    (3n+4)(m-2)!/(2(n+mu)^(m-1)) + (2n+3)(m-1)!/(n+mu)^m + 4(m-1)!/(mu+3)^(m-2)."""
    m = check_integer("cumulant_bound", "m", m, 3)
    n, mu = params.n, params.mu
    return (
        (3.0 * n + 4.0) * math.factorial(m - 2) / (2.0 * (n + mu) ** (m - 1))
        + (2.0 * n + 3.0) * math.factorial(m - 1) / (n + mu) ** m
        + 4.0 * math.factorial(m - 1) / (mu + 3.0) ** (m - 2)
    )


_REGIME_TAGS = ("fixed_mu", "mu_power", "near_equal_weight", "mu_linear", "fixed_n", "n_power")


@dataclass(frozen=True)
class RegimeSpec:
    """Growth regime of the weight against the dimension.

    tag: fixed_mu, mu_power, near_equal_weight, mu_linear, fixed_n or
    n_power; alpha is required for mu_power / n_power (exponent in (0,1))
    and mu_linear (slope > 0), and must be absent otherwise.  The first four
    are n -> infinity regimes; fixed_n and n_power drive mu -> infinity.
    """

    tag: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _REGIME_TAGS:
            raise DomainError(f"RegimeSpec: unknown tag {self.tag!r}")
        needs_alpha = self.tag in ("mu_power", "mu_linear", "n_power")
        if needs_alpha and self.alpha is None:
            raise DomainError(f"RegimeSpec: tag {self.tag!r} requires alpha")
        if not needs_alpha and self.alpha is not None:
            raise DomainError(f"RegimeSpec: tag {self.tag!r} takes no alpha")
        if needs_alpha:
            # an exponent in (0, 1), or a positive slope
            below = None if self.tag == "mu_linear" else 1.0
            object.__setattr__(self, "alpha", check_real("RegimeSpec", "alpha", self.alpha, above=0.0, below=below))


def regime_expansion(regime: RegimeSpec, driver: float, gamma: float = 1.0):
    """Leading mean and variance predicted for the regime.

    ``driver`` is n for the n -> infinity regimes and mu for fixed_n /
    n_power.  Returns (mean_leading, variance_leading) with the stated
    leading terms; these are predictions to be compared against the exact
    cumulants, not re-derivations.
    """
    driver = check_real("regime_expansion", "driver", driver, above=0.0)
    gamma = check_real("regime_expansion", "gamma", gamma, above=0.0)
    lg = math.log(gamma)
    tag, alpha = regime.tag, regime.alpha
    if tag == "fixed_mu":
        n = driver
        return (-(n / 2.0) * math.log(n) - lg, 0.5 * math.log(n))
    if tag == "mu_power":
        n = driver
        return (-(n / 2.0) * math.log(n) - lg, (1.0 - alpha) / 2.0 * math.log(n))
    if tag == "near_equal_weight":
        n = driver
        return (-(n / 2.0) * math.log(n) - lg, 0.5 * math.log(2.0) - 0.25)
    if tag == "mu_linear":
        n = driver
        return (
            -(n / 2.0) * math.log(n) - lg,
            0.5 * math.log(1.0 + 1.0 / alpha) - 1.0 / (2.0 * (1.0 + alpha)),
        )
    if tag == "fixed_n":
        mu = driver
        return (math.log(mu) - lg, 3.0 / (4.0 * mu))
    # n_power: n = mu^alpha, mu -> infinity
    mu = driver
    mean = -(alpha / 2.0) * mu**alpha * math.log(mu) - lg
    if alpha < 0.5:
        var = 3.0 / (4.0 * mu)
    elif alpha == 0.5:
        var = 1.0 / mu
    else:
        var = 1.0 / (4.0 * mu ** (2.0 * (1.0 - alpha)))
    return (mean, var)


def deviation_scale(regime: RegimeSpec, n: int) -> float:
    """epsilon_n governing the deviation bounds: sqrt(log n) for fixed mu,
    n^alpha sqrt(log n) for mu = n^alpha, and n for mu proportional to n or
    n - mu = o(n).  Defined only for the n -> infinity regimes, at an integer
    n >= 3."""
    n = check_integer("deviation_scale", "n", n, 3)
    tag = regime.tag
    if tag == "fixed_mu":
        return math.sqrt(math.log(n))
    if tag == "mu_power":
        return n**regime.alpha * math.sqrt(math.log(n))
    if tag in ("mu_linear", "near_equal_weight"):
        return float(n)
    raise DomainError(f"deviation_scale: not defined for regime {tag!r}")


def concentration_envelope(y: float, c: float, eps: float) -> float:
    """Exponential envelope 2 exp(-y^2 / (2 + c y / eps)) for the two-sided
    tail of the standardized log volume, for finite y >= 0, c > 0 and
    eps > 0; nonincreasing in y."""
    y = check_real("concentration_envelope", "y", y, least=0.0)
    c = check_real("concentration_envelope", "c", c, above=0.0)
    eps = check_real("concentration_envelope", "eps", eps, above=0.0)
    exponent = y * y / (2.0 + c * y / eps)
    if exponent != exponent:
        # y^2 and c y / eps both overflowed: divide both by y instead
        exponent = y / (2.0 / y + c / eps)
    return 2.0 * math.exp(-exponent)
