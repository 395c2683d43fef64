"""The actual distribution of Y = log V_n(Z_mu): characteristic function,
CDF by numerical inversion, Kolmogorov distance to the Gaussian, the two
candidate centering sequences, the mod-Gaussian residual, and the scaled
cumulant generating function for the large-deviations limit.

Inversion uses the Gil-Pelaez formula on the standardized variable,
F(y) = 1/2 - (1/pi) int_0^tmax Im(e^{-ity} phi(t))/t dt, with a composite
Gauss-Legendre rule whose panel count doubles until the result is stable and
a truncation point found by expanding search on |phi|.  One refinement loop
serves two evaluators of the quadrature sum: arbitrary points (the CDF and
tail functions) take one row of exponentials e^{-iyt} per point, while the
uniform 2048-point Kolmogorov grid, split as 32 coarse offsets c plus 64 fine
steps f, uses e^{-i(c+f)t} = e^{-ict} e^{-ift}: 96 rows of exponentials and
one matrix product.  The characteristic function at the nodes is one CGF
call, which is split in two from 512 nodes (``specfun._split``); each table
of exponentials of 8192 entries or more is split by rows the same way, its
trailing rows computed on the package's helper thread.  Every entry gets
the same cos and sin either way, so the CDF keeps its bits.  Tail
probabilities below the inversion floor (~1e-8) are out of scope;
exponential-scale statements go through the scaled CGF instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

from .cumulants import concentration_envelope, cumulant_exact
from .errors import ConvergenceError, DomainError
from .exactlaw import ModelParams, cgf
from .specfun import _split, log_barnes_g

__all__ = [
    "StandardizedLaw",
    "CenteringVariant",
    "LDP_CENTERING",
    "MODPHI_CENTERING",
    "char_fn",
    "cdf_inverted",
    "standardized_cdf",
    "kolmogorov_distance_to_normal",
    "centering",
    "mod_gaussian_speed",
    "ldp_scaled_cgf",
    "mod_gaussian_limit",
    "mod_gaussian_residual",
    "two_sided_tail",
    "fit_envelope_coefficient",
]


@dataclass(frozen=True)
class StandardizedLaw:
    """Mean and standard deviation of Y = log V, from the exact cumulants."""

    params: ModelParams
    mean: float
    sd: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "StandardizedLaw":
        c2 = cumulant_exact(params, 2)
        if not c2 > 0:
            raise DomainError("StandardizedLaw: variance must be positive")
        return cls(params=params, mean=cumulant_exact(params, 1), sd=math.sqrt(c2))


@dataclass(frozen=True)
class CenteringVariant:
    """Which centering sequence m_n to use; kind in {'LDP', 'MODPHI'}.

    LDP:     m_n = -(n/2) log n - (n/2)(log pi + 1) + (mu/2 + 9/4) log n - log gamma
    MODPHI:  m_n = log(4 Gamma(n/2) / (gamma n! pi^((n-1)/2)))
                   + (mu/2 + 13/4) log(n/2) - (mu+n+1)/2

    The two differ by (n/2)(1 - log 2) + O(1); which one the scaled CGF
    actually converges under is adjudicated empirically, not assumed.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("LDP", "MODPHI"):
            raise DomainError("CenteringVariant: kind must be 'LDP' or 'MODPHI'")


LDP_CENTERING = CenteringVariant("LDP")
MODPHI_CENTERING = CenteringVariant("MODPHI")


# Inversion constants: the Kolmogorov distance is a maximum over 2048
# standardized points on [-8, 8], evaluated as 32 coarse offsets times 64 fine
# steps; the quadrature is truncated where |phi| first falls below 1e-12 and
# runs 24 Gauss-Legendre nodes per panel on at most 1280 panels.
_GRID_SPLIT = (32, 64)
_GRID_POINTS = _GRID_SPLIT[0] * _GRID_SPLIT[1]
_X_RANGE = (-8.0, 8.0)
_TAIL_TOL = 1e-12
_NODES_PER_PANEL = 24
_MAX_PANELS = 1280
#: entries from which an exponential table is split by rows (``_cis_neg``):
#: the split breaks even near 5000 entries and saves about 15% at 8192 and
#: 30% at 24576 (2-vCPU Xeon)
_CIS_SPLIT = 8192


def char_fn(params: ModelParams, t):
    """Characteristic function phi(t) = E exp(i t log V) = exp(cgf(i t))."""
    arr = np.asarray(t, dtype=float)
    out = np.exp(cgf(params, 1j * arr))
    return complex(out) if arr.ndim == 0 else out


def _log_phi_std(law: StandardizedLaw, t):
    """log CF of the standardized variable (Y - mean)/sd at real t."""
    return cgf(law.params, 1j * np.asarray(t) / law.sd) - 1j * np.asarray(t) * law.mean / law.sd


def _find_t_max(law: StandardizedLaw) -> float:
    t = 4.0
    for _ in range(60):
        if math.exp(float(np.real(_log_phi_std(law, t)))) < _TAIL_TOL:
            return t
        t *= 1.4
    raise ConvergenceError("cdf inversion: |phi| did not fall below the tail tolerance")


@functools.cache
def _gl_nodes():
    """Gauss-Legendre nodes and weights of one panel on [-1, 1], read-only
    since every inversion shares them."""
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_grid(t_max: float, panels: int):
    x, w = _gl_nodes()
    edges = np.linspace(0.0, t_max, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    tg = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wg = (half[:, None] * w[None, :]).ravel()
    return tg, wg


def _invert(law: StandardizedLaw, evaluate):
    """Refine the Gil-Pelaez quadrature of the standardized CDF until it is stable.

    ``evaluate(tg, phi_w)`` returns F at the caller's points from the nodes tg
    and the weighted integrand phi(tg) w / tg.  The panel count starts at
    max(32, 2 t_max) and doubles until successive refinements agree to 1e-8
    in sup norm (ConvergenceError past 1280 panels).  Returns (F, panels).
    """
    t_max = _find_t_max(law)
    panels = max(32, int(t_max * 2))
    prev = None
    while panels <= _MAX_PANELS:
        tg, wg = _gl_grid(t_max, panels)
        phi_w = np.exp(np.asarray(_log_phi_std(law, tg))) / tg * wg
        F = evaluate(tg, phi_w)
        if prev is not None and np.max(np.abs(F - prev)) < 1e-8:
            return F, panels
        prev = F
        panels *= 2
    raise ConvergenceError("cdf inversion: quadrature did not stabilize within the panel budget")


def _cis_neg(y, tg):
    """exp(-i y t) on the outer grid of y and t, formed as cos - i sin in one
    complex array: the bits of np.exp(-1j * np.outer(y, t)) without its
    complex temporaries.  A grid of at least ``_CIS_SPLIT`` entries is split
    by rows with the helper thread (``specfun._split``)."""
    theta = np.multiply.outer(-y, tg)
    out = np.empty(theta.shape, dtype=complex)

    def rows(lo, hi):
        np.cos(theta[lo:hi], out=out.real[lo:hi])
        np.sin(theta[lo:hi], out=out.imag[lo:hi])

    if theta.size < _CIS_SPLIT:
        rows(0, len(theta))
    else:
        _split(rows, len(theta))
    return out


def _chunked_cdf(ys):
    """Evaluator of F at arbitrary points ys, 256 rows of exponentials at a time."""

    def evaluate(tg, phi_w):
        F = np.empty_like(ys)
        for lo in range(0, len(ys), 256):
            chunk = ys[lo : lo + 256]
            osc = _cis_neg(chunk, tg)
            F[lo : lo + 256] = 0.5 - (osc @ phi_w).imag / math.pi
        return F

    return evaluate


def _factored_cdf(tg, phi_w):
    """Evaluator of F on the Kolmogorov grid, whose point 64 a + b is
    coarse[a] + fine[b]: the sum over nodes becomes one (coarse x nodes) @
    (nodes x fine) product, read out row by row in grid order."""
    n_coarse, n_fine = _GRID_SPLIT
    step = (_X_RANGE[1] - _X_RANGE[0]) / (_GRID_POINTS - 1)
    coarse = _X_RANGE[0] + n_fine * step * np.arange(n_coarse)
    fine = step * np.arange(n_fine)
    E1 = _cis_neg(coarse, tg)
    E1 *= phi_w
    E2 = _cis_neg(fine, tg)
    return 0.5 - (E1 @ E2.T).imag.ravel() / math.pi


def _standardized_cdf(law: StandardizedLaw, y):
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.isfinite(ys).all():
        raise DomainError("standardized_cdf: evaluation points must be finite")
    F, _ = _invert(law, _chunked_cdf(ys))
    # the quadrature's rounding leaves F up to about 1e-11 outside [0, 1] in the tails
    F = np.clip(F, 0.0, 1.0)
    return F if np.ndim(y) else float(F[0])


def standardized_cdf(params: ModelParams, y):
    """CDF of (Y - mean)/sd on a vector of points y, by Gil-Pelaez inversion.

    The panel count doubles until successive refinements agree to 1e-8 in
    sup norm (ConvergenceError past 1280 panels).
    """
    return _standardized_cdf(StandardizedLaw.from_params(params), y)


def cdf_inverted(params: ModelParams, x):
    """CDF of Y = log V at raw points x (inverted through the standardized CF)."""
    law = StandardizedLaw.from_params(params)
    return _standardized_cdf(law, (np.asarray(x, dtype=float) - law.mean) / law.sd)


def kolmogorov_distance_to_normal(params: ModelParams) -> float:
    """sup_y |F_std(y) - Phi(y)| over 2048 points on [-8, 8]."""
    ys = np.linspace(_X_RANGE[0], _X_RANGE[1], _GRID_POINTS)
    F, _ = _invert(StandardizedLaw.from_params(params), _factored_cdf)
    return float(np.max(np.abs(F - ndtr(ys))))


def centering(variant: CenteringVariant, params: ModelParams) -> float:
    """The centering sequence m_n for the given variant."""
    n, mu, gam = params.n, params.mu, params.gamma
    if variant.kind == "LDP":
        return (
            -(n / 2.0) * math.log(n)
            - (n / 2.0) * (math.log(math.pi) + 1.0)
            + (mu / 2.0 + 9.0 / 4.0) * math.log(n)
            - math.log(gam)
        )
    return (
        math.log(4.0)
        + gammaln(n / 2.0)
        - math.log(gam)
        - gammaln(n + 1.0)
        - (n - 1.0) / 2.0 * math.log(math.pi)
        + (mu / 2.0 + 13.0 / 4.0) * math.log(n / 2.0)
        - (mu + n + 1.0) / 2.0
    )


def mod_gaussian_speed(n: int) -> float:
    """The Gaussian variance parameter w_n = (1/2) log(n/2)."""
    return 0.5 * math.log(n / 2.0)


def ldp_scaled_cgf(params: ModelParams, t: float, variant: CenteringVariant) -> float:
    """[cgf(t) - t m_n] / w_n with w_n = (1/2) log(n/2).

    If the centering is right to o(1) this converges to t^2/2; a Theta(n)
    centering error diverges linearly in n / log n.  Which variant converges
    is an empirical output, reported by the claim suite.  Needs n >= 3 (the
    speed vanishes at n = 2).
    """
    w = mod_gaussian_speed(params.n)
    if w <= 0.0:
        raise DomainError("ldp_scaled_cgf: the speed log(n/2)/2 vanishes; needs n >= 3")
    return (float(cgf(params, float(t))) - t * centering(variant, params)) / w


def mod_gaussian_limit(mu: float, z: float) -> float:
    """Limiting function of the normalized moment generating function:
    G((3+mu)/2) G(2+mu/2) / (G((3+mu+z)/2) G(2+(mu+z)/2)) with Barnes G.
    Requires z > -(mu+3)."""
    if not z > -(mu + 3.0):
        raise DomainError("mod_gaussian_limit: requires z > -(mu+3)")
    return math.exp(
        log_barnes_g((3.0 + mu) / 2.0)
        + log_barnes_g(2.0 + mu / 2.0)
        - log_barnes_g((3.0 + mu + z) / 2.0)
        - log_barnes_g(2.0 + (mu + z) / 2.0)
    )


def mod_gaussian_residual(params: ModelParams, z: float, adjusted: bool = True) -> float:
    """Distance of the Gaussian-normalized MGF from its limiting function:

        | exp(cgf(z) - z m_n - z^2/2 w_n) - limit |

    with the MODPHI centering and w_n = (1/2) log(n/2).  With
    ``adjusted=True`` (default) the limit carries the numerically adjudicated
    Gaussian normalization, limit = psi(z) exp(-z^2/4) (equivalently
    w_n = (log(n/2)-1)/2 against psi itself), under which the residual decays
    like O((1+|z|^3)/n).  ``adjusted=False`` compares against psi(z) alone;
    that residual converges to the constant |psi(z)| |1 - exp(-z^2/4)| and is
    kept for the adjudication report."""
    w = mod_gaussian_speed(params.n)
    m_n = centering(MODPHI_CENTERING, params)
    value = math.exp(float(cgf(params, float(z), extended=True)) - z * m_n - z * z / 2.0 * w)
    limit = mod_gaussian_limit(params.mu, z)
    if adjusted:
        limit *= math.exp(-z * z / 4.0)
    return abs(value - limit)


def two_sided_tail(params: ModelParams, y: float) -> float:
    """P(|Y_std| >= y) from the inverted CDF (trustworthy down to ~1e-8)."""
    if y < 0:
        raise DomainError("two_sided_tail: y must be nonnegative")
    F = standardized_cdf(params, np.array([-y, y]))
    return float(F[0] + 1.0 - F[1])


#: the coefficients fit_envelope_coefficient tries, in increasing order
_ENVELOPE_C_GRID = np.concatenate([np.linspace(0.01, 5.0, 500), np.linspace(5.1, 100.0, 950)])


def fit_envelope_coefficient(tails, ys, eps: float) -> float:
    """Smallest coefficient c on a fixed grid (0.01 to 100) for which every
    observed two-sided tail is below the concentration envelope
    2 exp(-y^2/(2 + c y/eps)).  Constants here are fitted, never asserted."""
    for c in _ENVELOPE_C_GRID:
        if all(p <= concentration_envelope(y, float(c), eps) for p, y in zip(tails, ys)):
            return float(c)
    return float("inf")
