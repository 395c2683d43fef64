"""Closed-form law of the weighted typical cell volume.

The model is a stationary Poisson process of intensity gamma in R^n, its
Delaunay tessellation, and the weighted typical cell Z_mu selected with
probability proportional to volume^(mu+1), mu > -2 (mu = -1 is the typical
cell, mu = 0 the volume-weighted / zero cell).  This module evaluates, all in
log space:

* the angular moments E[Delta^s] of the simplex spanned by n+1 uniform points
  on the unit sphere (normalized spherical measure),
* moments E V^s and the cumulant generating function of Y = log V,
* the circumradius law,
* and two independent cross-checks of the moment formula (the typical-cell
  constant route and the sphere-simplex product identity).

The moment formula is a product of four gamma ratios Gamma(x+cz)/Gamma(x)
and a row of n of them, prod_{i<=n} Gamma((i+mu)/2 + 1 + z/2) /
Gamma((i+mu)/2 + 1).  The row splits by parity of i into two runs, and the
ratios and runs together are one ``specfun.GammaRatioSum``, prepared once per
(n, mu) and then evaluated at every z: Stirling's series in shift form for
the ratios and each run's first terms, the Barnes G series in shift form for
the rest of each run.  A point therefore costs the same at every n, and no
log-gamma of size Theta(n^2 log n) is ever formed.

``log_angular_simplex_moment`` and ``sphere_representation_gap`` keep their
direct O(n) sums: they are independent routes to the same formula.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, check_integer, check_real, check_real_array, checked_exp, in_name_of
from .errors import refusing_fp_errors
from .specfun import GammaRatioSum, log_unit_ball_volume, log_unit_sphere_area

# strip_edge, a helper of cgf and the cumulant oracle, stays out of __all__:
# perfbench's tracer wraps and counts every name listed there.
__all__ = [
    "ModelParams",
    "log_angular_simplex_moment",
    "log_typical_cell_constant",
    "typical_volume_moment",
    "log_volume_moment",
    "volume_moment",
    "cgf",
    "radius_cdf",
    "sphere_representation_gap",
]

#: safety margin keeping gamma arguments off their poles at the strip edge
STRIP_GUARD = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Dimension n >= 2, weight mu > -2, Poisson intensity gamma > 0."""

    n: int
    mu: float = -1.0
    gamma: float = 1.0

    def __post_init__(self):
        # stored as a Python int and floats: n*n of a numpy integer can overflow
        object.__setattr__(self, "n", check_integer("ModelParams", "n", self.n, 2))
        object.__setattr__(self, "mu", check_real("ModelParams", "mu", self.mu, above=-2.0))
        object.__setattr__(self, "gamma", check_real("ModelParams", "gamma", self.gamma, above=0.0))


def strip_edge(params: ModelParams, extended: bool = False) -> float:
    """Left edge of the validity strip of the cumulant generating function.

    The moment formula holds for Re z > -(mu+2); the gamma-product extends
    analytically down to the first pole below it, which the extended mode
    evaluates as a continuation: -(mu+3) from the i = 1 factor of the row, or
    for n = 2 the higher pole -(n+mu) - 2/(n+1) = -(mu+2) - 2/3 of
    Gamma((n+1)(n+mu+z)/2 + 1).
    """
    if extended:
        n = params.n
        return max(-(params.mu + 3.0), -(n + params.mu) - 2.0 / (n + 1.0))
    return -(params.mu + 2.0)


def log_angular_simplex_moment(n: int, s: float) -> float:
    """log E[Delta_n^s] for the simplex of n+1 i.i.d. uniform unit-sphere
    points in R^n, with the normalized spherical measure (value 1 at s = 0).

    Valid for every finite s > -1 (all gamma arguments positive there).
    """
    n = check_integer("log_angular_simplex_moment", "n", n, 2)
    s = check_real("log_angular_simplex_moment", "s", s, above=-1.0)
    i = np.arange(1, n + 1)
    raw = (
        (n + 1) * math.log(2.0)
        + (n * (n + 1) / 2.0) * math.log(math.pi)
        + gammaln((n * n + n * (s - 1.0) + s) / 2.0)
        - s * gammaln(n + 1.0)
        - gammaln((n * n + n * (s - 1.0)) / 2.0)
        - (n + 1) * gammaln((n + s) / 2.0)
        + float(np.sum(gammaln((s + i) / 2.0) - gammaln(i / 2.0)))
    )
    # the closed form is for the unnormalized sphere measure of total mass
    # n*kappa_n; divide by its (n+1)-st power
    return raw - (n + 1) * log_unit_sphere_area(n)


def log_typical_cell_constant(n: int) -> float:
    """log of the normalizing constant entering the typical-cell moment
    formula: n^2 / (2^(n+1) pi^((n-1)/2)) * Gamma(n^2/2) / Gamma((n^2+1)/2)
    * [Gamma((n+1)/2) / Gamma(1 + n/2)]^n."""
    n = check_integer("log_typical_cell_constant", "n", n, 2)
    return (
        2.0 * math.log(n)
        - (n + 1) * math.log(2.0)
        - ((n - 1) / 2.0) * math.log(math.pi)
        + math.lgamma(n * n / 2.0)
        - math.lgamma((n * n + 1.0) / 2.0)
        + n * (math.lgamma((n + 1) / 2.0) - math.lgamma(1.0 + n / 2.0))
    )


def typical_volume_moment(n: int, gamma: float, s: float) -> float:
    """E V^s of the typical cell (weight mu = -1) via the direct constant
    route: constant * angular moment * Gamma(n+s) / (n kappa_n^(n+s) gamma^s).

    Independent of the weighted moment formula; agreement of the two routes is
    one of the package's cross-checks.  Requires finite s > -1; a moment
    above the largest float is refused.
    """
    n = check_integer("typical_volume_moment", "n", n, 2)
    gamma = check_real("typical_volume_moment", "gamma", gamma, above=0.0)
    s = check_real("typical_volume_moment", "s", s, above=-1.0)
    lkappa = log_unit_ball_volume(n)
    logm = (
        log_typical_cell_constant(n)
        + log_angular_simplex_moment(n, s + 1.0)
        + (n + 1) * log_unit_sphere_area(n)
        + math.lgamma(n + s)
        - math.log(n)
        - (n + s) * lkappa
        - s * math.log(gamma)
    )
    return checked_exp("typical_volume_moment", "E V^s", logm)


def _row_runs(n: int, mu: float):
    """The row sum_{i=1..n} [log Gamma((i+mu)/2 + 1 + a) - log Gamma((i+mu)/2 + 1)]
    as runs (b, k) of ``specfun.GammaRatioSum``: by parity of i, b = mu/2 + 2
    for the floor(n/2) even i and b = (mu+3)/2 for the ceil(n/2) odd i."""
    return ((mu / 2.0 + 2.0, n // 2), ((mu + 3.0) / 2.0, (n + 1) // 2))


@functools.lru_cache(maxsize=32)
def _plan(n: int, mu: float) -> GammaRatioSum:
    """log E V^z for (n, mu) less its part linear in z, prepared once: the
    four gamma ratios Gamma(x + c z)/Gamma(x) of the moment formula, as
    (x, c, weight in the log), and the row at a = z/2.  Callers sweep z at
    fixed (n, mu), so a few recent plans suffice.  A cache holding all 995
    plans of perfbench's smalln pass (maxsize 4096) made a repeated pass
    faster, 583 -> 487 and 621 -> 516 ms in process in two runs (minimum of
    8 interleaved passes each, 2-vCPU VM), but only because that pass
    repeats its points, and it held 6.8 MB of plans; so the cache stays at
    32 plans.  Where the arguments overflow they are refused, here or by
    GammaRatioSum (as plain numbers: numpy scalars would warn first)."""
    mu = float(mu)
    ratios = (
        ((n + 1) * (n + mu) / 2.0 + 1.0, (n + 1) / 2.0, 1.0),
        (n * (n + mu + 1.0) / 2.0, n / 2.0, -1.0),
        (n + mu + 1.0, 1.0, 1.0),
        ((n + mu) / 2.0 + 1.0, 0.5, -(n + 1.0)),
    )
    if not max(ratios[0][0], ratios[1][0]) < math.inf:
        raise DomainError(f"the moment formula's arguments overflow: (n+1)(n+mu)/2 = inf at n = {n}, mu = {mu:.3g}")
    return GammaRatioSum(ratios, _row_runs(n, mu), 0.5)


def _linear(params: ModelParams) -> float:
    """The part of log E V^z linear in z, over z: log Gamma(n/2 + 1) - log gamma
    - (n/2) log pi - log n!."""
    n = params.n
    return gammaln(n / 2.0 + 1.0) - math.log(params.gamma) - (n / 2.0) * math.log(math.pi) - gammaln(n + 1.0)


def _log_moment_terms(params: ModelParams, z, caller: str):
    """log E V^z at a real or complex array z that ``caller`` has checked.
    Its cost does not depend on n, no log-gamma of size Theta(n^2 log n) is
    ever formed, and it is exactly 0 at z = 0.  Where the plan refuses its
    arguments, or a term passes the largest float (the Barnes ends from about
    |z| = 2e153 on), the refusal is raised in ``caller``'s name."""
    try:
        plan = _plan(params.n, params.mu)
    except DomainError as err:
        raise DomainError(f"{caller}: {err}") from None
    # setting numpy's error state costs about a tenth of a scalar call, and
    # no term can overflow below |z| = 1e100, so a float there goes without
    if type(z) is float and abs(z) < 1e100:
        return plan._values(np.asarray(z)) + z * _linear(params)
    z = np.asarray(z)
    with refusing_fp_errors(caller, "a term of log E V^z"):
        return plan._values(z) + z * _linear(params)


def log_volume_moment(params: ModelParams, s: float) -> float:
    """log E V_n(Z_mu)^s for finite real s > -(mu+2)."""
    s = check_real("log_volume_moment", "s", s, above=strip_edge(params))
    return float(_log_moment_terms(params, s, "log_volume_moment"))


def volume_moment(params: ModelParams, s: float) -> float:
    """E V_n(Z_mu)^s for real s > -(mu+2); scales exactly as gamma^(-s).  A
    moment above the largest float is refused; ``log_volume_moment`` gives
    its log."""
    s = check_real("volume_moment", "s", s, above=strip_edge(params))
    with in_name_of("volume_moment"):
        log_moment = log_volume_moment(params, s)
    return checked_exp("volume_moment", "E V^s", log_moment, "log_volume_moment")


def cgf(params: ModelParams, z, extended: bool = False):
    """Cumulant generating function L(z) = log E exp(z log V_n(Z_mu)).

    Accepts complex z with Re z inside the validity strip (default edge
    -(mu+2); ``extended=True`` evaluates the analytic continuation down to
    -(mu+3), or to -(mu+2) - 2/3 at n = 2; see strip_edge).  Re z must
    exceed the edge by STRIP_GUARD.  L(0) = 0, L is real on the real axis,
    and exp(L(it)) is the characteristic function of log V.
    """
    edge = strip_edge(params, extended)
    arr = np.asarray(z)
    if arr.dtype.kind not in "iufc":
        raise DomainError(f"cgf: needs real or complex z, got values of dtype {arr.dtype}")
    re = arr.real
    # one test refuses NaN or +-inf in either part and Re z at or below the edge
    if not (np.isfinite(arr) & (re > edge + STRIP_GUARD)).all():
        if not np.isfinite(arr).all():
            raise DomainError("cgf: z must be finite")
        raise DomainError(
            f"cgf: Re z must exceed the strip edge {edge:g} (+ guard {STRIP_GUARD:g}); got Re z = {np.min(re):g}"
        )
    out = _log_moment_terms(params, arr if np.iscomplexobj(arr) else arr.astype(float), "cgf")
    if arr.ndim == 0:
        return complex(out) if np.iscomplexobj(arr) else float(out)
    return out


def radius_cdf(params: ModelParams, t):
    """CDF of the circumradius of Z_mu: P(n+mu+1, gamma kappa_n t^n); 1 at t = inf."""
    arr = check_real_array("radius_cdf", "t", t, least=0.0, most=math.inf)
    from scipy.special import gammainc

    n = params.n
    log_kappa = log_unit_ball_volume(n)
    kappa = math.exp(log_kappa)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        power = arr**n
        x = params.gamma * kappa * power
        # where t^n overflows or kappa_n is subnormal (n >= 436) the product
        # loses the argument, so form it in log space there; P(a, inf) = 1
        far = ~np.isfinite(power) | (kappa < sys.float_info.min)
        if far.any():
            x = np.where(far, np.exp(math.log(params.gamma) + log_kappa + n * np.log(arr)), x)
    out = gammainc(n + params.mu + 1.0, x)
    return float(out) if arr.ndim == 0 else out


def sphere_representation_gap(n: int, mu: int, s: float, gamma: float = 1.0) -> float:
    """Relative gap in the sphere-simplex product identity.

    Both sides of  E[xi^(n s) V^(2s)] = E[(rho/(gamma kappa_n))^(2s)] * M(s)
    are assembled from log-gammas, where xi is the Beta(n(n+mu+1)/2, (mu+2)/2)
    squared-distance factor, rho ~ Gamma(n+mu+1, 1), and M(s) is the 2s-moment
    of the simplex of n+1 uniform points on a sphere with Beta-type weight mu.
    Stated for integer mu >= -1; returns |lhs/rhs - 1|.
    """
    n = check_integer("sphere_representation_gap", "n", n, 2)
    mu = check_integer("sphere_representation_gap", "mu", mu, -1)
    s = check_real("sphere_representation_gap", "s", s, above=0.0)
    params = ModelParams(n, float(mu), check_real("sphere_representation_gap", "gamma", gamma, above=0.0))
    i = np.arange(1, n + 1)
    lkappa = log_unit_ball_volume(n)
    a = n * (n + mu + 1.0) / 2.0
    ab = (n + 1) * (n + mu) / 2.0 + 1.0
    with refusing_fp_errors("sphere_representation_gap", "a log-gamma term"):
        log_xi = gammaln(ab) + gammaln(a + n * s) - gammaln(a) - gammaln(ab + n * s)
        lhs = log_xi + float(_log_moment_terms(params, 2.0 * s, "sphere_representation_gap"))
        log_rho = gammaln(n + mu + 1.0 + 2.0 * s) - gammaln(n + mu + 1.0) - 2.0 * s * (math.log(params.gamma) + lkappa)
        log_m = (
            -2.0 * s * gammaln(n + 1.0)
            + float(np.sum(gammaln((mu + i) / 2.0 + 1.0 + s) - gammaln((mu + i) / 2.0 + 1.0)))
            + (n + 1) * (gammaln((n + mu) / 2.0 + 1.0) - gammaln((n + mu) / 2.0 + 1.0 + s))
            + gammaln((n + 1) * (n + mu) / 2.0 + 1.0 + (n + 1) * s)
            - gammaln((n + 1) * (n + mu) / 2.0 + 1.0 + n * s)
        )
        log_ratio = lhs - (log_rho + log_m)
    try:
        return abs(math.expm1(log_ratio))
    except OverflowError:
        raise DomainError(f"sphere_representation_gap: lhs/rhs = exp({log_ratio:.6g}) exceeds the largest float") from None
