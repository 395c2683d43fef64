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

Stream contract: every call consumes its generator in one fixed way, which
any proposal kernel must keep so that a seed keeps giving the same draws.

* ``sample_volume`` draws its ``size`` Gamma radial parts, then the angular
  batches.
* With ``got`` of ``size`` draws accepted, the next batch proposes
  ``count = min(max(4 (size - got), 4096), 2e6)`` tuples.
* Within a batch, all proposals are drawn first (three uniform angles per
  triangle at n = 2, twelve standard normals per tetrahedron at n = 3, in
  (tuple, vertex, coordinate) order), then ``count`` acceptance uniforms.
  A kernel may draw a batch's proposals in consecutive blocks of tuples:
  successive draws from one generator consume it exactly as one draw of the
  whole batch does, number for number.
* The first ``size - got`` acceptances, in proposal order, are kept; the rest
  of the batch is consumed and discarded.
* Only the calling thread draws.  A block's reduction to volumes (cosines,
  sines and triangle areas at n = 2; normalisation and tetrahedron volumes at
  n = 3) needs no random numbers, and may run on the package's helper thread
  (``specfun._helper``) while the calling thread draws the next block.  A
  batch of one block never asks for the helper, which is started on first use
  in a process that may run on two CPUs or more.  It touches no generator,
  and every element goes through the same operations in the same order
  wherever it is reduced, so the volumes and the generator state are the
  same bit for bit.

All randomness flows through RngStream (counter-based Philox keyed by
(seed, stream_id)): identical streams reproduce bit-identical draws, and
distinct stream ids are independent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
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
#: fewest observations in each sample of a Kolmogorov-Smirnov test
_KS_MIN = 25
#: proposal tuples a kernel draws and reduces at a time, so that one block's
#: arrays stay in cache whatever the batch size
_BLOCK = 8192


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


def _check_size(name: str, size, least: int = 0) -> None:
    """Refuse a draw count that is not an integer >= least, before any draw;
    ``name`` reads 'function: argument'."""
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {size!r}")


def _radial_power(params: ModelParams, rng: np.random.Generator, size):
    """R^n draws: rho / (gamma kappa_n) with rho ~ Gamma(n+mu+1, 1)."""
    rho = sample_gamma(params.n + params.mu + 1.0, 1.0, rng, size=size)
    kappa = math.exp(log_unit_ball_volume(params.n))
    return rho / (params.gamma * kappa)


def sample_circumradius(params: ModelParams, rng: np.random.Generator, size=None):
    """Circumradius draws via R^n = rho / (gamma kappa_n), rho ~ Gamma(n+mu+1, 1);
    one draw for size None."""
    if size is not None:
        _check_size("sample_circumradius: size", size)
    return _radial_power(params, rng, size) ** (1.0 / params.n)


def _blocked(draw, reduce, count):
    """Volumes of ``count`` >= 1 proposal tuples: ``draw(m)`` draws the next m
    tuples and ``reduce(block, out)`` writes their volumes to ``out`` and
    returns the block's points.  Every block is drawn on the calling thread,
    in stream order; a block is reduced on the helper thread when it is idle
    and inline otherwise, so at most two blocks are alive.  The points are
    returned for a one-block batch only, which is reduced inline."""
    out = np.empty(count)
    if count <= _BLOCK:
        return out, reduce(draw(count), out)
    helper = specfun._helper()
    pending = None
    try:
        for lo in range(0, count, _BLOCK):
            block = draw(min(count - lo, _BLOCK))
            if pending is not None and pending.done():
                pending, done = None, pending
                done.result()
            if helper is not None and pending is None:
                pending = helper.submit(reduce, block, out[lo : lo + len(block)])
            else:
                reduce(block, out[lo : lo + len(block)])
    finally:
        if pending is not None:
            pending.result()
    return out, None


def _triangle_areas(th, area):
    """Areas of the triangles on the unit-circle angles ``th`` (m, 3) into
    ``area``; returns the points as [cos, sin], each (m, 3)."""
    x, y = np.cos(th), np.sin(th)
    area[:] = 0.5 * np.abs(
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    )
    return [x, y]


def _tetrahedron_volumes(g, vol):
    """Volumes of the tetrahedra on the standard normals ``g`` (m, 4, 3),
    each vertex scaled to the unit sphere, into ``vol``; returns the unit
    vectors as [ux, uy, uz], each (m, 4)."""
    m = len(g)
    x, y, z = g.reshape(4 * m, 3).T
    r = np.sqrt(x * x + y * y + z * z)
    u = [np.divide(comp, r).reshape(m, 4) for comp in (x, y, z)]
    # edge vectors u_j - u_0, one array per component
    a, b, c = ([comp[:, j] - comp[:, 0] for comp in u] for j in (1, 2, 3))
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    vol[:] = np.abs(det) / 6.0
    return u


def _uniform_circle(rng, count):
    """Areas of ``count`` >= 1 triangles on three uniform points of the unit
    circle each, drawn ``_BLOCK`` triangles at a time (``_blocked``); for a
    one-block batch also the points as [cos, sin], each (count, 3)."""
    return _blocked(lambda m: rng.uniform(0.0, 2.0 * math.pi, size=(m, 3)), _triangle_areas, count)


def _uniform_sphere(rng, count):
    """Volumes of ``count`` >= 1 tetrahedra on four uniform points of the unit
    sphere each, drawn ``_BLOCK`` tetrahedra at a time (``_blocked``); for a
    one-block batch also the points as [ux, uy, uz], each (count, 4)."""
    return _blocked(lambda m: rng.standard_normal(size=(m, 4, 3)), _tetrahedron_volumes, count)


def _angular_kernel(n: int, mu: float):
    """The proposal kernel and Delta_max of the angular sampler at n in
    {2, 3}, mu > -2.  The kernel is read from the module globals on each
    call, so a wrapper bound over one of them sees every batch."""
    if not mu > -2.0:
        raise DomainError("angular sampler: mu must exceed -2")
    if n == 2:
        return _uniform_circle, MAX_TRIANGLE_AREA_IN_DISK
    if n == 3:
        return _uniform_sphere, MAX_TETRAHEDRON_VOLUME_IN_BALL
    raise DomainError("angular sampler: only n in {2, 3} is supported")


def _check_proposal_budget(n: int, mu: float, size: int) -> None:
    """Refuse a rejection run whose expected proposal count exceeds the budget."""
    _, dmax = _angular_kernel(n, mu)
    rate = math.exp(log_angular_simplex_moment(n, mu + 2.0) - (mu + 2.0) * math.log(dmax))
    expected = size / rate if rate > 0.0 else math.inf
    if expected > _PROPOSAL_BUDGET:
        raise ConvergenceError(
            f"angular sampler: {size} draws need about {expected:.3g} proposals at the exact "
            f"acceptance rate {rate:.3g} (mu = {mu:g}), above the budget of {_PROPOSAL_BUDGET} proposals"
        )


def _rejection_batches(n: int, mu: float, rng, size: int, keep_directions: bool):
    """Accepted volumes (and unit vectors) of a run its caller has checked
    against the proposal budget."""
    propose, dmax = _angular_kernel(n, mu)
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
        # the kernels return unit vectors for one-block batches only
        assert count <= _BLOCK or not keep_directions
        vol, comps = propose(rng, count)
        accept = rng.uniform(size=count) < (vol / dmax) ** (mu + 2.0)
        spent += count
        idx = np.nonzero(accept)[0][: size - got]
        take = len(idx)
        deltas[got : got + take] = vol[idx]
        if keep_directions:
            dirs[got : got + take] = np.stack([comp[idx] for comp in comps], axis=2)
        got += take
        # free this batch before the next one is drawn
        del vol, comps, accept
    return dirs, deltas


def angular_acceptance_rate(n: int, mu: float, rng: np.random.Generator, n_proposals: int) -> float:
    """Monte Carlo acceptance rate of the rejection sampler, i.e. the mean of
    (Delta/Delta_max)^(mu+2) over uniform proposals; equals the ratio of the
    (mu+2) angular moment to Delta_max^(mu+2)."""
    _check_size("angular_acceptance_rate: n_proposals", n_proposals, least=1)
    propose, dmax = _angular_kernel(n, mu)
    vol, _ = propose(rng, n_proposals)
    return float(np.mean((vol / dmax) ** (mu + 2.0)))


def sample_angular_delta(n: int, mu: float, rng: np.random.Generator, size: int):
    """Batch of simplex volumes Delta under the density proportional to
    Delta^(mu+2) on unit-sphere (n+1)-tuples, by rejection from uniform."""
    _check_size("sample_angular_delta: size", size)
    _check_proposal_budget(n, mu, size)
    return _rejection_batches(n, mu, rng, size, keep_directions=False)[1]


def sample_angular_simplex(n: int, mu: float, rng: np.random.Generator):
    """One accepted tuple of unit vectors (u_0..u_n) and its simplex volume."""
    _check_proposal_budget(n, mu, 1)
    dirs, deltas = _rejection_batches(n, mu, rng, 1, keep_directions=True)
    return dirs[0], float(deltas[0])


def sample_volume(params: ModelParams, rng: np.random.Generator, size: int):
    """Volume draws V = R^n * Delta with independent radial and angular parts."""
    _check_size("sample_volume: size", size)
    _check_proposal_budget(params.n, params.mu, size)
    rn = _radial_power(params, rng, size)
    return rn * _rejection_batches(params.n, params.mu, rng, size, keep_directions=False)[1]


def sample_rhs_product(params: ModelParams, rng: np.random.Generator, size: int):
    """Right-hand side of the product identity:
    (rho/(gamma kappa_n))^2 prod_i Beta((i+mu+1)/2, (n-i+1)/2) draws."""
    _check_size("sample_rhs_product: size", size)
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
    _check_size("sample_lhs_product: size", size)
    n, mu = params.n, params.mu
    v = sample_volume(params, rng, size)
    xi = sample_beta(n * (n + mu + 1.0) / 2.0, (mu + 2.0) / 2.0, rng, size=size)
    return xi**n * (1.0 - xi) * (math.factorial(n) * v) ** 2


def check_product_identity(params: ModelParams, n_draws: int, rng: np.random.Generator) -> KsReport:
    """Two-sample KS test of the product identity (compared on the log scale,
    which leaves the statistic unchanged); fewer than 25 draws per side are
    refused before any is drawn."""
    if n_draws < _KS_MIN:
        raise DomainError(f"check_product_identity: need at least {_KS_MIN} draws")
    lhs = np.log(sample_lhs_product(params, rng, n_draws))
    rhs = np.log(sample_rhs_product(params, rng, n_draws))
    statistic, p_value = ks_statistic(lhs, rhs)
    return KsReport(statistic, p_value, n_draws, n_draws)


def ks_statistic(sample, reference):
    """One-sample (reference = CDF callable) or two-sample (reference = array)
    Kolmogorov-Smirnov statistic with asymptotic p-value."""
    samples = [np.asarray(sample, dtype=float)]
    if not callable(reference):
        samples.append(np.asarray(reference, dtype=float))
    if min(x.size for x in samples) < _KS_MIN:
        raise DomainError(f"ks_statistic: need at least {_KS_MIN} observations")
    from scipy import stats

    res = stats.kstest(samples[0], reference) if callable(reference) else stats.ks_2samp(*samples)
    return float(res.statistic), float(res.pvalue)
