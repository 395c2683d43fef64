"""Seeded Monte Carlo realizations of the distributional representations:
circumradius draws, the volume sampler V = R^n Delta (n = 2, 3, with the
angular part Delta by rejection), both sides of the beta/gamma product
identity, and Kolmogorov-Smirnov checks.

The rejection sampler accepts a uniform proposal with probability
(Delta/Delta_max)^(mu+2), so its exact acceptance rate is
E[Delta^(mu+2)] / Delta_max^(mu+2) (closed form from the angular moment).  A
request whose expected proposal count size / rate exceeds the proposal budget
(1e7) is refused up front with ConvergenceError, before any random number is
drawn; the volume sampler checks it before drawing its radial part too.  A
request under the budget still fails if an unlucky run exceeds the budget.
Radial draws that overflow the largest float, where gamma kappa_n is tiny
but normal, are refused with DomainError once drawn, in the sampler's name.

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
  (``specfun._helper``), under the caller's numpy error state, while the
  calling thread draws the next block.  A batch of one block never asks for
  the helper, which is started on first use in a process that may run on two
  CPUs or more.  It touches no generator, and every element goes through the
  same operations in the same order wherever it is reduced, so the volumes
  and the generator state are the same bit for bit.

All randomness flows through RngStream (counter-based Philox keyed by
(seed, stream_id)): identical streams reproduce bit-identical draws, and
distinct stream ids are independent by construction.
"""

from __future__ import annotations

import contextvars
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, check_integer, check_real_array, in_name_of, refusing_fp_errors
from .exactlaw import ModelParams, log_angular_simplex_moment
from .specfun import log_unit_ball_volume

__all__ = [
    "RngStream",
    "KsReport",
    "MAX_TRIANGLE_AREA_IN_DISK",
    "MAX_TETRAHEDRON_VOLUME_IN_BALL",
    "sample_circumradius",
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


def _radial_scale(function: str, params: ModelParams) -> float:
    """gamma kappa_n, the divisor of rho ~ Gamma(n+mu+1, 1) in R^n, refused
    in ``function``'s name where it is below the smallest normal float (from
    n = 436 at gamma = 1, or a subnormal gamma): the draws would overflow."""
    scale = params.gamma * math.exp(log_unit_ball_volume(params.n))
    if not scale >= sys.float_info.min:
        raise DomainError(
            f"{function}: gamma kappa_n = {scale:.3g} (n = {params.n}, gamma = {params.gamma:.3g}) is below "
            f"the smallest normal float, so R^n = rho / (gamma kappa_n) overflows"
        )
    return scale


def _radial_power(scale: float, params: ModelParams, rng: np.random.Generator, size):
    """R^n draws: rho / scale with rho ~ Gamma(n+mu+1, 1) and scale = gamma
    kappa_n from ``_radial_scale``."""
    return rng.gamma(params.n + params.mu + 1.0, 1.0, size=size) / scale


def _refuse_overflow(function: str, params: ModelParams, draw):
    """``draw()`` with numpy's overflow warnings off, refused in
    ``function``'s name where a value overflowed to inf (its random numbers
    are drawn by then): R^n = rho / (gamma kappa_n) overflows from about
    n = 434 at mu = -1 and gamma = 1, and its square in the product identity
    from about n = 343."""
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf: an overflow upstream
        out = draw()
    # the draws are nonnegative, so an overflow shows in their maximum, which
    # takes no temporary array the size of the draws
    if np.size(out) and not np.max(out) < math.inf:
        raise DomainError(
            f"{function}: a draw overflows the largest float (n = {params.n}, mu = {params.mu:g}, "
            f"gamma = {params.gamma:.3g})"
        )
    return out


def sample_circumradius(params: ModelParams, rng: np.random.Generator, size=None):
    """Circumradius draws via R^n = rho / (gamma kappa_n), rho ~ Gamma(n+mu+1, 1);
    one draw for size None."""
    if size is not None:
        size = check_integer("sample_circumradius", "size", size, 0)
    scale = _radial_scale("sample_circumradius", params)
    rn = _refuse_overflow("sample_circumradius", params, lambda: _radial_power(scale, params, rng, size))
    return rn ** (1.0 / params.n)


def _blocked(draw, reduce, count):
    """Volumes of ``count`` >= 1 proposal tuples: ``draw(m)`` draws the next m
    tuples and ``reduce(block, out)`` writes their volumes to ``out``.  Every
    block is drawn on the calling thread, in stream order; a block is reduced
    on the helper thread when it is idle, in a copy of the caller's context
    (and so under its numpy error state), and inline otherwise, so at most two
    blocks are alive.  A one-block batch is reduced inline."""
    out = np.empty(count)
    if count <= _BLOCK:
        reduce(draw(count), out)
        return out
    helper = specfun._helper()
    pending = None
    try:
        for lo in range(0, count, _BLOCK):
            block = draw(min(count - lo, _BLOCK))
            if pending is not None and pending.done():
                pending, done = None, pending
                done.result()
            if helper is not None and pending is None:
                pending = helper.submit(contextvars.copy_context().run, reduce, block, out[lo : lo + len(block)])
            else:
                reduce(block, out[lo : lo + len(block)])
    finally:
        if pending is not None:
            pending.result()
    return out


def _triangle_areas(th, area):
    """Areas of the triangles on the unit-circle angles ``th`` (m, 3) into
    ``area``."""
    x, y = np.cos(th), np.sin(th)
    area[:] = 0.5 * np.abs(
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    )


def _tetrahedron_volumes(g, vol):
    """Volumes of the tetrahedra on the standard normals ``g`` (m, 4, 3),
    each vertex scaled to the unit sphere, into ``vol``."""
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


def _uniform_circle(rng, count):
    """Areas of ``count`` >= 1 triangles on three uniform points of the unit
    circle each, drawn ``_BLOCK`` triangles at a time (``_blocked``)."""
    return _blocked(lambda m: rng.uniform(0.0, 2.0 * math.pi, size=(m, 3)), _triangle_areas, count)


def _uniform_sphere(rng, count):
    """Volumes of ``count`` >= 1 tetrahedra on four uniform points of the unit
    sphere each, drawn ``_BLOCK`` tetrahedra at a time (``_blocked``)."""
    return _blocked(lambda m: rng.standard_normal(size=(m, 4, 3)), _tetrahedron_volumes, count)


def _check_proposal_budget(function: str, n: int, mu: float, size: int):
    """(proposal kernel, Delta_max) of a rejection run at n in {2, 3}
    (refused otherwise in ``function``'s name) and a weight mu that
    ``ModelParams`` has checked; the run is refused when its expected proposal
    count exceeds the budget.  The kernel is read from the module globals on
    each call, so a wrapper bound over one of them sees every batch."""
    n = check_integer(function, "n", n, 2, 3)
    propose, dmax = (
        (_uniform_circle, MAX_TRIANGLE_AREA_IN_DISK) if n == 2 else (_uniform_sphere, MAX_TETRAHEDRON_VOLUME_IN_BALL)
    )
    rate = math.exp(log_angular_simplex_moment(n, mu + 2.0) - (mu + 2.0) * math.log(dmax))
    expected = size / rate if rate > 0.0 else math.inf
    if expected > _PROPOSAL_BUDGET:
        raise ConvergenceError(
            f"{function}: {size} draws need about {expected:.3g} proposals at the exact "
            f"acceptance rate {rate:.3g} (mu = {mu:g}), above the budget of {_PROPOSAL_BUDGET} proposals"
        )
    return propose, dmax


def _rejection_batches(kernel, mu: float, rng, size: int):
    """Accepted volumes of a run whose kernel ``sample_volume`` has taken
    from ``_check_proposal_budget``."""
    propose, dmax = kernel
    deltas = np.empty(size)
    got = 0
    spent = 0
    while got < size:
        if spent > _PROPOSAL_BUDGET:
            raise ConvergenceError(
                f"sample_volume: no acceptance within {_PROPOSAL_BUDGET} proposals (mu = {mu:g})"
            )
        count = min(max(4 * (size - got), 4096), 2_000_000)
        vol = propose(rng, count)
        accept = rng.uniform(size=count) < (vol / dmax) ** (mu + 2.0)
        spent += count
        idx = np.nonzero(accept)[0][: size - got]
        deltas[got : got + len(idx)] = vol[idx]
        got += len(idx)
        # free this batch before the next one is drawn
        del vol, accept
    return deltas


def sample_volume(params: ModelParams, rng: np.random.Generator, size: int):
    """Volume draws V = R^n * Delta with independent radial and angular parts."""
    size = check_integer("sample_volume", "size", size, 0)
    kernel = _check_proposal_budget("sample_volume", params.n, params.mu, size)
    scale = _radial_scale("sample_volume", params)
    rn = _refuse_overflow("sample_volume", params, lambda: _radial_power(scale, params, rng, size))
    # V formed in the angular draws' own array: a product in a new array,
    # with those draws freed after it, left the heap 8 MB larger after a
    # million draws
    deltas = _rejection_batches(kernel, params.mu, rng, size)
    return _refuse_overflow("sample_volume", params, lambda: np.multiply(deltas, rn, out=deltas))


def sample_rhs_product(params: ModelParams, rng: np.random.Generator, size: int):
    """Right-hand side of the product identity:
    (rho/(gamma kappa_n))^2 prod_i Beta((i+mu+1)/2, (n-i+1)/2) draws."""
    size = check_integer("sample_rhs_product", "size", size, 0)
    n, mu = params.n, params.mu
    scale = _radial_scale("sample_rhs_product", params)
    rho = rng.gamma(n + mu + 1.0, 1.0, size=size)
    log_out = 2.0 * (np.log(rho) - math.log(scale))
    for i in range(1, n + 1):
        log_out += np.log(rng.beta((i + mu + 1.0) / 2.0, (n - i + 1.0) / 2.0, size=size))
    return _refuse_overflow("sample_rhs_product", params, lambda: np.exp(log_out))


def sample_lhs_product(params: ModelParams, rng: np.random.Generator, size: int):
    """Left-hand side xi^n (1-xi) (n! V)^2 with xi ~ Beta(n(n+mu+1)/2, (mu+2)/2)
    independent of V; needs the volume sampler, so n in {2, 3}."""
    size = check_integer("sample_lhs_product", "size", size, 0)
    n, mu = check_integer("sample_lhs_product", "n", params.n, 2, 3), params.mu
    _radial_scale("sample_lhs_product", params)
    with in_name_of("sample_lhs_product"):
        v = sample_volume(params, rng, size)
    xi = rng.beta(n * (n + mu + 1.0) / 2.0, (mu + 2.0) / 2.0, size=size)
    return _refuse_overflow("sample_lhs_product", params, lambda: xi**n * (1.0 - xi) * (math.factorial(n) * v) ** 2)


def check_product_identity(params: ModelParams, n_draws: int, rng: np.random.Generator) -> KsReport:
    """Two-sample KS test of the product identity (compared on the log scale,
    which leaves the statistic unchanged); fewer than 25 draws per side, or
    n outside {2, 3}, are refused before any is drawn."""
    n_draws = check_integer("check_product_identity", "n_draws", n_draws, 0)
    if n_draws < _KS_MIN:
        raise DomainError(f"check_product_identity: need at least {_KS_MIN} draws, got n_draws = {n_draws}")
    check_integer("check_product_identity", "n", params.n, 2, 3)
    _radial_scale("check_product_identity", params)
    logs = []
    for sample in (sample_lhs_product, sample_rhs_product):
        with in_name_of("check_product_identity"):
            draws = sample(params, rng, n_draws)
        # near mu = -2 a draw can round to 0: 1 - xi, or a Beta draw, underflows
        with refusing_fp_errors("check_product_identity", f"the log of a {sample.__name__} draw"):
            logs.append(np.log(draws))
    statistic, p_value = ks_statistic(*logs)
    return KsReport(statistic, p_value, n_draws, n_draws)


def ks_statistic(sample, reference):
    """One-sample (reference = CDF callable) or two-sample (reference = array)
    Kolmogorov-Smirnov statistic with asymptotic p-value.  Observations and
    reference CDF values must be finite."""
    samples = [check_real_array("ks_statistic", "sample", sample)]
    if not callable(reference):
        samples.append(check_real_array("ks_statistic", "reference", reference))
    if min(x.size for x in samples) < _KS_MIN:
        raise DomainError(f"ks_statistic: need at least {_KS_MIN} observations")
    if callable(reference):
        # the CDF at the sorted sample, as scipy evaluates it, checked once
        # and handed to kstest
        samples[0] = np.sort(samples[0])
        cdf = np.asarray(reference(samples[0]), dtype=float)
        if not np.isfinite(cdf).all():
            raise DomainError("ks_statistic: the reference CDF must return finite values")
    from scipy import stats

    res = stats.kstest(samples[0], lambda _: cdf) if callable(reference) else stats.ks_2samp(*samples)
    return float(res.statistic), float(res.pvalue)
