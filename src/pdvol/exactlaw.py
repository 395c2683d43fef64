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

The moment formula is a product of gamma ratios Gamma(x+h)/Gamma(x) and a
row of n of them, prod_{i<=n} Gamma((i+mu)/2 + 1 + z/2) / Gamma((i+mu)/2 + 1).
Both are assembled in shift form, at a cost per point that does not depend
on n and with no log-gamma of size Theta(n^2 log n) ever formed:

* each ratio is a ``specfun.GammaShift``: Stirling's series differenced
  analytically at large x (plain log-gammas at small x);
* the row splits by parity of i into two runs of ratios that a
  ``specfun.GammaRun`` telescopes through G(w+1) = Gamma(w) G(w): the first
  11 terms of a run follow from one gamma shift by the recurrence
  Gamma(w+1) = w Gamma(w), the rest is a difference of two Barnes G shifts
  (``specfun.BarnesShift``, the Barnes series differenced analytically).

Both are prepared once per (n, mu) and then evaluated at every z.

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

from .errors import DomainError
from .specfun import GammaRun, GammaShift, log_unit_ball_volume, log_unit_sphere_area

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
    "weighted_intensity_ratio",
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
        if not 2 <= self.n < math.inf or self.n != int(self.n):
            raise DomainError("ModelParams: dimension n must be an integer >= 2")
        if not -2.0 < self.mu < math.inf:
            raise DomainError("ModelParams: weight mu must be finite and exceed -2")
        if not 0.0 < self.gamma < math.inf:
            raise DomainError("ModelParams: intensity gamma must be finite and positive")


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
    if not 2 <= n < math.inf or n != int(n):
        raise DomainError("log_angular_simplex_moment: n must be an integer >= 2")
    n = int(n)
    if not -1.0 < s < math.inf:
        raise DomainError("log_angular_simplex_moment: requires finite s > -1")
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
    if not 2 <= n < math.inf or n != int(n):
        raise DomainError("log_typical_cell_constant: n must be an integer >= 2")
    n = int(n)
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
    one of the package's cross-checks.  Requires s > -1.
    """
    if not 0.0 < gamma < math.inf:
        raise DomainError("typical_volume_moment: gamma must be finite and positive")
    if not s > -1.0:
        raise DomainError("typical_volume_moment: requires s > -1")
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
    return math.exp(logm)


@functools.lru_cache(maxsize=32)
def _plan(n: int, mu: float):
    """The z-independent part of log E V^z for (n, mu), prepared once: the
    four gamma ratios Gamma(x + c z)/Gamma(x) of the moment formula (x, c and
    their weights in the log) and the row.  Callers sweep z at fixed (n, mu),
    so a few recent plans suffice."""
    x = [(n + 1) * (n + mu) / 2.0 + 1.0, n * (n + mu + 1.0) / 2.0, n + mu + 1.0, (n + mu) / 2.0 + 1.0]
    coef = np.array([(n + 1) / 2.0, n / 2.0, 1.0, 0.5])
    weight = np.array([1.0, -1.0, 1.0, -(n + 1.0)])
    row = GammaRun(((mu / 2.0 + 2.0, n // 2), ((mu + 3.0) / 2.0, (n + 1) // 2)))
    return GammaShift(x), coef, weight, row


def _row_sum(n: int, mu: float, a):
    """sum_{i=1..n} [log Gamma((i+mu)/2 + 1 + a) - log Gamma((i+mu)/2 + 1)]
    at every point of the array a (Re a > -(mu+3)/2), at a cost that does not
    depend on n: by parity of i the terms form two runs, b = mu/2 + 2 for
    the floor(n/2) even i and b = (mu+3)/2 for the ceil(n/2) odd i, which
    ``specfun.GammaRun`` telescopes."""
    return _plan(n, mu)[3](a)


def _log_moment_terms(params: ModelParams, z):
    """Assembly of log E V^z from gamma shifts and the row; z may be a real
    or complex array.  Its cost does not depend on n, no log-gamma of size
    Theta(n^2 log n) is ever formed, and it is exactly 0 at z = 0."""
    n, mu, gam = params.n, params.mu, params.gamma
    ratios, coef, weight, _ = _plan(n, mu)
    z = np.asarray(z)
    t = ratios(z[..., None] * coef) @ weight + _row_sum(n, mu, z / 2.0)
    return t + z * (gammaln(n / 2.0 + 1.0) - math.log(gam) - (n / 2.0) * math.log(math.pi) - gammaln(n + 1.0))


def log_volume_moment(params: ModelParams, s: float) -> float:
    """log E V_n(Z_mu)^s for finite real s > -(mu+2)."""
    edge = strip_edge(params)
    if not s > edge:
        raise DomainError(f"log_volume_moment: s = {s:g} is at or below the domain edge -(mu+2) = {edge:g}")
    if s == math.inf:
        raise DomainError("log_volume_moment: s must be finite")
    return float(_log_moment_terms(params, float(s)))


def volume_moment(params: ModelParams, s: float) -> float:
    """E V_n(Z_mu)^s for real s > -(mu+2); scales exactly as gamma^(-s)."""
    return math.exp(log_volume_moment(params, s))


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
    if not np.isfinite(arr).all():
        raise DomainError("cgf: z must be finite")
    re = arr.real if np.iscomplexobj(arr) else arr
    if not np.all(re > edge + STRIP_GUARD):
        raise DomainError(
            f"cgf: Re z must exceed the strip edge {edge:g} (+ guard {STRIP_GUARD:g}); got Re z = {np.min(re):g}"
        )
    out = _log_moment_terms(params, arr if np.iscomplexobj(arr) else arr.astype(float))
    if arr.ndim == 0:
        return complex(out) if np.iscomplexobj(arr) else float(out)
    return out


def radius_cdf(params: ModelParams, t):
    """CDF of the circumradius of Z_mu: P(n+mu+1, gamma kappa_n t^n); 1 at t = inf."""
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0.0).all():
        raise DomainError("radius_cdf: radius must be nonnegative, not NaN")
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


def weighted_intensity_ratio(params: ModelParams) -> float:
    """Intensity of the weighted selection relative to the typical cell,
    gamma_mu / gamma_(-1) = E V_n(Z_(-1))^(mu+1)."""
    base = ModelParams(params.n, -1.0, params.gamma)
    return volume_moment(base, params.mu + 1.0)


def sphere_representation_gap(n: int, mu: int, s: float, gamma: float = 1.0) -> float:
    """Relative gap in the sphere-simplex product identity.

    Both sides of  E[xi^(n s) V^(2s)] = E[(rho/(gamma kappa_n))^(2s)] * M(s)
    are assembled from log-gammas, where xi is the Beta(n(n+mu+1)/2, (mu+2)/2)
    squared-distance factor, rho ~ Gamma(n+mu+1, 1), and M(s) is the 2s-moment
    of the simplex of n+1 uniform points on a sphere with Beta-type weight mu.
    Stated for integer mu >= -1; returns |lhs/rhs - 1|.
    """
    if not -1 <= mu < math.inf or mu != int(mu):
        raise DomainError("sphere_representation_gap: mu must be an integer >= -1")
    if not 0.0 < s < math.inf:
        raise DomainError("sphere_representation_gap: requires finite s > 0")
    params = ModelParams(n, float(mu), gamma)
    n = int(n)
    i = np.arange(1, n + 1)
    lkappa = log_unit_ball_volume(n)
    a = n * (n + mu + 1.0) / 2.0
    ab = (n + 1) * (n + mu) / 2.0 + 1.0
    log_xi = gammaln(ab) + gammaln(a + n * s) - gammaln(a) - gammaln(ab + n * s)
    lhs = log_xi + float(_log_moment_terms(params, 2.0 * s))
    log_rho = gammaln(n + mu + 1.0 + 2.0 * s) - gammaln(n + mu + 1.0) - 2.0 * s * (math.log(gamma) + lkappa)
    log_m = (
        -2.0 * s * gammaln(n + 1.0)
        + float(np.sum(gammaln((mu + i) / 2.0 + 1.0 + s) - gammaln((mu + i) / 2.0 + 1.0)))
        + (n + 1) * (gammaln((n + mu) / 2.0 + 1.0) - gammaln((n + mu) / 2.0 + 1.0 + s))
        + gammaln((n + 1) * (n + mu) / 2.0 + 1.0 + (n + 1) * s)
        - gammaln((n + 1) * (n + mu) / 2.0 + 1.0 + n * s)
    )
    return abs(math.expm1(lhs - (log_rho + log_m)))
