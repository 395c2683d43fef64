"""Seeded Monte Carlo realizations of the distributional representations:
circumradius draws, the angular simplex density by rejection (n = 2, 3), the
full volume sampler, both sides of the beta/gamma product identity, and
Kolmogorov-Smirnov checks.

The rejection sampler accepts a uniform proposal with probability
(Delta/Delta_max)^(mu+2), so its exact acceptance rate is
E[Delta^(mu+2)] / Delta_max^(mu+2) (closed form from the angular moment).  A
request whose expected proposal count size / rate exceeds the proposal budget
(1e7) is refused up front with ConvergenceError, before any random number is
drawn; the volume sampler checks it before drawing its radial part too.  A
request under the budget still fails if an unlucky run exceeds the budget.

All randomness flows through RngStream (counter-based Philox keyed by
(seed, stream_id)): identical streams reproduce bit-identical batches and
distinct stream ids are independent by construction, so batches shard across
streams and run in parallel with no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .exactlaw import ModelParams, log_angular_simplex_moment
from .specfun import log_unit_ball_volume

__all__ = [
    "RngStream",
    "KsReport",
    "MAX_TRIANGLE_AREA_IN_DISK",
    "MAX_TETRAHEDRON_VOLUME_IN_BALL",
    "sample_gamma",
    "sample_beta",
    "sample_circumradius",
    "sample_angular_simplex",
    "sample_angular_delta",
    "sample_volume",
    "sample_rhs_product",
    "sample_lhs_product",
    "check_product_identity",
    "ks_statistic",
]

DEFAULT_SEED = 0x5EED_DE1A_0A11

#: largest area of a triangle inscribed in the unit circle (equilateral)
MAX_TRIANGLE_AREA_IN_DISK = 3.0 * math.sqrt(3.0) / 4.0
#: largest volume of a tetrahedron inscribed in the unit sphere (regular)
MAX_TETRAHEDRON_VOLUME_IN_BALL = 8.0 / (9.0 * math.sqrt(3.0))

_PROPOSAL_BUDGET = 10**7


@dataclass(frozen=True)
class RngStream:
    """Reproducible stream: (seed, stream_id) -> independent Philox generator."""

    seed: int = DEFAULT_SEED
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass
class KsReport:
    statistic: float
    p_value: float
    n_lhs: int
    n_rhs: int


def sample_gamma(shape: float, rate: float, rng: np.random.Generator, size=None):
    """Gamma(shape, rate) draws (density rate^shape/Gamma(shape) t^(shape-1) e^(-rate t))."""
    if not (shape > 0 and rate > 0):
        raise DomainError("sample_gamma: shape and rate must be positive")
    return rng.gamma(shape, 1.0 / rate, size=size)


def sample_beta(a: float, b: float, rng: np.random.Generator, size=None):
    """Beta(a, b) draws on (0, 1)."""
    if not (a > 0 and b > 0):
        raise DomainError("sample_beta: both shapes must be positive")
    return rng.beta(a, b, size=size)


def sample_circumradius(params: ModelParams, rng: np.random.Generator, size=None):
    """Circumradius draws via R^n = rho / (gamma kappa_n), rho ~ Gamma(n+mu+1, 1)."""
    n = params.n
    rho = sample_gamma(n + params.mu + 1.0, 1.0, rng, size=size)
    kappa = math.exp(log_unit_ball_volume(n))
    return (rho / (params.gamma * kappa)) ** (1.0 / n)


def _uniform_circle(rng, count):
    # (cos, sin) of three uniform angles per proposal, each (count, 3)
    th = rng.uniform(0.0, 2.0 * math.pi, size=(count, 3))
    return np.cos(th), np.sin(th)


def _uniform_sphere(rng, count):
    g = rng.standard_normal(size=(count, 4, 3))
    return g / np.sqrt((g * g).sum(axis=2, keepdims=True))


def _simplex_volume(u):
    """Triangle area for a circle proposal (cos, sin), tetrahedron volume for
    a sphere proposal (count, 4, 3)."""
    if isinstance(u, tuple):
        x, y = u
        return 0.5 * np.abs(
            (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
        )
    # edge vectors u_j - u_0, one contiguous array per component
    a, b, c = ([u[:, j, k] - u[:, 0, k] for k in range(3)] for j in (1, 2, 3))
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return np.abs(det) / 6.0


def _directions(u, idx):
    """The selected proposals as (len(idx), n+1, n) unit vectors."""
    if isinstance(u, tuple):
        return np.stack([u[0][idx], u[1][idx]], axis=2)
    return u[idx]


def _delta_max(n: int) -> float:
    return MAX_TRIANGLE_AREA_IN_DISK if n == 2 else MAX_TETRAHEDRON_VOLUME_IN_BALL


def _check_proposal_budget(n: int, mu: float, size: int) -> None:
    """Refuse a rejection run whose expected proposal count exceeds the budget."""
    if n not in (2, 3):
        raise DomainError("angular sampler: only n in {2, 3} is supported")
    if not mu > -2.0:
        raise DomainError("angular sampler: mu must exceed -2")
    rate = math.exp(log_angular_simplex_moment(n, mu + 2.0) - (mu + 2.0) * math.log(_delta_max(n)))
    expected = size / rate if rate > 0.0 else math.inf
    if expected > _PROPOSAL_BUDGET:
        raise ConvergenceError(
            f"angular sampler: {size} draws need about {expected:.3g} proposals at the exact "
            f"acceptance rate {rate:.3g} (mu = {mu:g}), above the budget of {_PROPOSAL_BUDGET} proposals"
        )


def _rejection_batches(n: int, mu: float, rng, size: int, keep_directions: bool):
    _check_proposal_budget(n, mu, size)
    dmax = _delta_max(n)
    propose = _uniform_circle if n == 2 else _uniform_sphere
    deltas = np.empty(size)
    dirs = np.empty((size, n + 1, n)) if keep_directions else None
    got = 0
    spent = 0
    while got < size:
        if spent > _PROPOSAL_BUDGET:
            raise ConvergenceError(
                f"angular sampler: no acceptance within {_PROPOSAL_BUDGET} proposals (mu = {mu:g})"
            )
        count = min(max(4 * (size - got), 4096), 2_000_000)
        u = propose(rng, count)
        vol = _simplex_volume(u)
        accept = rng.uniform(size=count) < (vol / dmax) ** (mu + 2.0)
        spent += count
        idx = np.nonzero(accept)[0][: size - got]
        take = len(idx)
        deltas[got : got + take] = vol[idx]
        if keep_directions:
            dirs[got : got + take] = _directions(u, idx)
        got += take
    return dirs, deltas


def angular_acceptance_rate(n: int, mu: float, rng: np.random.Generator, n_proposals: int) -> float:
    """Monte Carlo acceptance rate of the rejection sampler, i.e. the mean of
    (Delta/Delta_max)^(mu+2) over uniform proposals; equals the ratio of the
    (mu+2) angular moment to Delta_max^(mu+2)."""
    if n not in (2, 3):
        raise DomainError("angular sampler: only n in {2, 3} is supported")
    propose = _uniform_circle if n == 2 else _uniform_sphere
    vol = _simplex_volume(propose(rng, n_proposals))
    return float(np.mean((vol / _delta_max(n)) ** (mu + 2.0)))


def sample_angular_delta(n: int, mu: float, rng: np.random.Generator, size: int):
    """Batch of simplex volumes Delta under the density proportional to
    Delta^(mu+2) on unit-sphere (n+1)-tuples, by rejection from uniform."""
    _, deltas = _rejection_batches(n, mu, rng, size, keep_directions=False)
    return deltas


def sample_angular_simplex(n: int, mu: float, rng: np.random.Generator):
    """One accepted tuple of unit vectors (u_0..u_n) and its simplex volume."""
    dirs, deltas = _rejection_batches(n, mu, rng, 1, keep_directions=True)
    return dirs[0], float(deltas[0])


def sample_volume(params: ModelParams, rng: np.random.Generator, size: int):
    """Volume draws V = R^n * Delta with independent radial and angular parts."""
    n = params.n
    _check_proposal_budget(n, params.mu, size)
    rho = sample_gamma(n + params.mu + 1.0, 1.0, rng, size=size)
    kappa = math.exp(log_unit_ball_volume(n))
    rn = rho / (params.gamma * kappa)
    return rn * sample_angular_delta(n, params.mu, rng, size)


def sample_rhs_product(params: ModelParams, rng: np.random.Generator, size: int):
    """Right-hand side of the product identity:
    (rho/(gamma kappa_n))^2 prod_i Beta((i+mu+1)/2, (n-i+1)/2) draws."""
    n, mu = params.n, params.mu
    kappa = math.exp(log_unit_ball_volume(n))
    rho = sample_gamma(n + mu + 1.0, 1.0, rng, size=size)
    log_out = 2.0 * (np.log(rho) - math.log(params.gamma * kappa))
    for i in range(1, n + 1):
        log_out += np.log(sample_beta((i + mu + 1.0) / 2.0, (n - i + 1.0) / 2.0, rng, size=size))
    return np.exp(log_out)


def sample_lhs_product(params: ModelParams, rng: np.random.Generator, size: int):
    """Left-hand side xi^n (1-xi) (n! V)^2 with xi ~ Beta(n(n+mu+1)/2, (mu+2)/2)
    independent of V; needs the volume sampler, so n in {2, 3}."""
    n, mu = params.n, params.mu
    v = sample_volume(params, rng, size)
    xi = sample_beta(n * (n + mu + 1.0) / 2.0, (mu + 2.0) / 2.0, rng, size=size)
    return xi**n * (1.0 - xi) * (math.factorial(n) * v) ** 2


def check_product_identity(params: ModelParams, n_draws: int, rng: np.random.Generator) -> KsReport:
    """Two-sample KS test of the product identity (compared on the log scale,
    which leaves the statistic unchanged)."""
    lhs = np.log(sample_lhs_product(params, rng, n_draws))
    rhs = np.log(sample_rhs_product(params, rng, n_draws))
    from scipy import stats

    res = stats.ks_2samp(lhs, rhs)
    return KsReport(float(res.statistic), float(res.pvalue), n_draws, n_draws)


def ks_statistic(sample, reference):
    """One-sample (reference = CDF callable) or two-sample (reference = array)
    Kolmogorov-Smirnov statistic with asymptotic p-value."""
    sample = np.asarray(sample, dtype=float)
    if sample.size < 25:
        raise DomainError("ks_statistic: need at least 25 observations")
    from scipy import stats

    if callable(reference):
        res = stats.kstest(sample, reference)
    else:
        reference = np.asarray(reference, dtype=float)
        if reference.size < 25:
            raise DomainError("ks_statistic: need at least 25 observations")
        res = stats.ks_2samp(sample, reference)
    return float(res.statistic), float(res.pvalue)
