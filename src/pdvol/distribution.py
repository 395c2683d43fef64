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
steps f, uses e^{-i(c+f)t} = e^{-ict} e^{-ift}: one table of 96 rows of
exponentials and one matrix product, split by its 32 coarse rows.  The
first pass is never accepted alone, so the characteristic function at its
nodes and the second pass's is one CGF call, which is split in two from
1536 nodes (``specfun._SPLIT_POINTS``): on the Kolmogorov grid, 32 + 64
panels (2304 nodes) in one split call, then one split call per refined
pass.  Each table of exponentials of 8192 entries or more has its cosines
and sines taken in two halves the same way, the trailing half on the
package's helper thread, and no table of angles is allocated.  Every CGF
point, entry and product row gets the same bits either way, so the CDF
keeps its bits.  With these, a Kolmogorov distance at n = 1e3 and 1e4
costs no fresh-page faults (1664 per pair before) and perfbench's highdim
``ref_wall_s`` fell from 30.6 to 24.0-24.4 ms (2-vCPU VM).  Tail probabilities
below the inversion floor (~1e-8) are out of scope; exponential-scale
statements go through the scaled CGF instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

from .cumulants import concentration_envelope, cumulant_exact
from .errors import ConvergenceError, DomainError, check_integer, check_real, check_real_array, checked_exp, in_name_of
from .exactlaw import STRIP_GUARD, ModelParams, cgf, strip_edge
from .specfun import _split, log_barnes_g

__all__ = [
    "StandardizedLaw",
    "CenteringVariant",
    "LDP_CENTERING",
    "MODPHI_CENTERING",
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

    def __post_init__(self):
        object.__setattr__(self, "mean", check_real("StandardizedLaw", "mean", self.mean))
        object.__setattr__(self, "sd", check_real("StandardizedLaw", "sd", self.sd, above=0.0))

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
#: entries from which an exponential table is split in two (``_cis_neg``):
#: the split breaks even near 5000 entries and saves about 15% at 8192 and
#: 30% at 24576 (2-vCPU Xeon)
_CIS_SPLIT = 8192


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


def _levels(law: StandardizedLaw, t_max: float, panels: int):
    """The quadrature's refinement levels from ``panels`` panels, doubling up
    to ``_MAX_PANELS``, as (panels, nodes tg, weighted integrand
    phi(tg) w / tg).  The first level is never accepted alone, so its nodes
    and the second level's take phi in one CGF call (2304 nodes at 32 + 64
    panels, which ``specfun._SPLIT_POINTS`` splits across both threads);
    every later level takes its own.  A level's values are those of a call
    of its nodes alone, since each CGF point keeps its bits in any call."""
    counts = [panels, 2 * panels] if 2 * panels <= _MAX_PANELS else [panels]
    while counts[0] <= _MAX_PANELS:
        grids = [_gl_grid(t_max, p) for p in counts]
        log_phi = np.asarray(_log_phi_std(law, np.concatenate([tg for tg, _ in grids])))
        lo = 0
        for p, (tg, wg) in zip(counts, grids):
            yield p, tg, np.exp(log_phi[lo : lo + tg.size]) / tg * wg
            lo += tg.size
        counts = [2 * counts[-1]]


def _invert(law: StandardizedLaw, evaluate):
    """Refine the Gil-Pelaez quadrature of the standardized CDF until it is stable.

    ``evaluate(tg, phi_w)`` returns F at the caller's points from the nodes tg
    and the weighted integrand phi(tg) w / tg, once per level.  The panel
    count starts at max(32, 2 t_max) and doubles until successive refinements
    agree to 1e-8 in sup norm (ConvergenceError past 1280 panels); the first
    two levels take phi in one CGF call (``_levels``).  Returns (F, panels).
    """
    t_max = _find_t_max(law)
    prev = None
    for panels, tg, phi_w in _levels(law, t_max, max(32, int(t_max * 2))):
        F = evaluate(tg, phi_w)
        if prev is not None and np.max(np.abs(F - prev)) < 1e-8:
            return F, panels
        prev = F
    raise ConvergenceError("cdf inversion: quadrature did not stabilize within the panel budget")


def _cis_neg(y, tg):
    """exp(-i y t) on the outer grid of y and t, formed as cos - i sin in one
    complex array: the bits of np.exp(-1j * np.outer(y, t)) without its
    complex temporaries or a table of angles.  The angles are written into
    the imaginary parts, their cosines taken into the real parts and then
    their sines in place, so beyond the output only numpy's fixed-size ufunc
    buffers are allocated (125 kB for the broadcast product).  A grid
    of at least ``_CIS_SPLIT`` entries has its cosines and sines taken in two
    halves of its flattened entries, whatever its row count, with the helper
    thread (``specfun._split``)."""
    out = np.empty((len(y), len(tg)), dtype=complex)
    np.multiply.outer(-y, tg, out=out.imag)
    # views of the same memory: each entry is written where the table has it
    flat = out.reshape(-1)

    def entries(lo, hi):
        angles = flat.imag[lo:hi]
        np.cos(angles, out=flat.real[lo:hi])
        np.sin(angles, out=angles)

    if out.size < _CIS_SPLIT:
        entries(0, out.size)
    else:
        _split(entries, out.size)
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
    (nodes x fine) product, read out row by row in grid order.  The 32
    coarse and 64 fine offsets share one 96-row table of exponentials (one
    split), and the product is split by coarse rows (``specfun._split``),
    each row the bits of the whole product's."""
    n_coarse, n_fine = _GRID_SPLIT
    step = (_X_RANGE[1] - _X_RANGE[0]) / (_GRID_POINTS - 1)
    coarse = _X_RANGE[0] + n_fine * step * np.arange(n_coarse)
    fine = step * np.arange(n_fine)
    table = _cis_neg(np.concatenate([coarse, fine]), tg)
    E1, E2 = table[:n_coarse], table[n_coarse:]
    E1 *= phi_w
    rows = _split(lambda lo, hi: (E1[lo:hi] @ E2.T).imag, n_coarse)
    return 0.5 - np.concatenate(rows).ravel() / math.pi


def _standardized_cdf(law: StandardizedLaw, y):
    """F at the standardized points y, a float array its caller has checked."""
    ys = np.atleast_1d(y)
    F, _ = _invert(law, _chunked_cdf(ys))
    # the quadrature's rounding leaves F up to about 1e-11 outside [0, 1] in the tails
    F = np.clip(F, 0.0, 1.0)
    return F if np.ndim(y) else float(F[0])


def standardized_cdf(params: ModelParams, y):
    """CDF of (Y - mean)/sd on a vector of points y, by Gil-Pelaez inversion.

    The panel count doubles until successive refinements agree to 1e-8 in
    sup norm (ConvergenceError past 1280 panels).
    """
    y = check_real_array("standardized_cdf", "y", y)
    with in_name_of("standardized_cdf"):
        return _standardized_cdf(StandardizedLaw.from_params(params), y)


def cdf_inverted(params: ModelParams, x):
    """CDF of Y = log V at raw points x (inverted through the standardized CF)."""
    x = check_real_array("cdf_inverted", "x", x)
    with in_name_of("cdf_inverted"):
        law = StandardizedLaw.from_params(params)
        return _standardized_cdf(law, (x - law.mean) / law.sd)


def kolmogorov_distance_to_normal(params: ModelParams) -> float:
    """sup_y |F_std(y) - Phi(y)| over 2048 points on [-8, 8]."""
    ys = np.linspace(_X_RANGE[0], _X_RANGE[1], _GRID_POINTS)
    with in_name_of("kolmogorov_distance_to_normal"):
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
    """The Gaussian variance parameter w_n = (1/2) log(n/2), for an integer n >= 2."""
    return 0.5 * math.log(check_integer("mod_gaussian_speed", "n", n, 2) / 2.0)


def ldp_scaled_cgf(params: ModelParams, t: float, variant: CenteringVariant) -> float:
    """[cgf(t) - t m_n] / w_n with w_n = (1/2) log(n/2).

    If the centering is right to o(1) this converges to t^2/2; a Theta(n)
    centering error diverges linearly in n / log n.  Which variant converges
    is an empirical output, reported by the claim suite.  Needs n >= 3 (the
    speed vanishes at n = 2).
    """
    t = check_real("ldp_scaled_cgf", "t", t, above=strip_edge(params) + STRIP_GUARD)
    # the speed log(n/2)/2 vanishes at n = 2
    w = mod_gaussian_speed(check_integer("ldp_scaled_cgf", "n", params.n, 3))
    with in_name_of("ldp_scaled_cgf"):
        value = float(cgf(params, t))
    return (value - t * centering(variant, params)) / w


def mod_gaussian_limit(mu: float, z: float) -> float:
    """Limiting function of the normalized moment generating function:
    G((3+mu)/2) G(2+mu/2) / (G((3+mu+z)/2) G(2+(mu+z)/2)) with Barnes G.
    Requires finite mu > -2 and z > -(mu+3); refused where a Barnes value or
    the limit exceeds the largest float."""
    mu = check_real("mod_gaussian_limit", "mu", mu, above=-2.0)
    z = check_real("mod_gaussian_limit", "z", z, above=-(mu + 3.0))
    try:
        log_limit = (
            log_barnes_g((3.0 + mu) / 2.0)
            + log_barnes_g(2.0 + mu / 2.0)
            - log_barnes_g((3.0 + mu + z) / 2.0)
            - log_barnes_g(2.0 + (mu + z) / 2.0)
        )
    except DomainError as err:
        raise DomainError(f"mod_gaussian_limit: at mu = {mu:.3g}, z = {z:.3g}, {err}") from None
    return checked_exp("mod_gaussian_limit", "the limit", log_limit)


def mod_gaussian_residual(params: ModelParams, z: float, adjusted: bool = True) -> float:
    """Distance of the Gaussian-normalized MGF from its limiting function:

        | exp(cgf(z) - z m_n - z^2/2 w_n) - limit |

    with the MODPHI centering and w_n = (1/2) log(n/2).  With
    ``adjusted=True`` (default) the limit carries the numerically adjudicated
    Gaussian normalization, limit = psi(z) exp(-z^2/4) (equivalently
    w_n = (log(n/2)-1)/2 against psi itself), under which the residual decays
    like O((1+|z|^3)/n).  ``adjusted=False`` compares against psi(z) alone;
    that residual converges to the constant |psi(z)| |1 - exp(-z^2/4)| and is
    kept for the adjudication report.  z must lie in the extended strip
    (``exactlaw.cgf``); refused where the MGF or the limit exceeds a double."""
    z = check_real("mod_gaussian_residual", "z", z, above=strip_edge(params, extended=True) + STRIP_GUARD)
    w = mod_gaussian_speed(params.n)
    m_n = centering(MODPHI_CENTERING, params)
    with in_name_of("mod_gaussian_residual"):
        log_value = float(cgf(params, z, extended=True)) - z * m_n - z * z / 2.0 * w
    value = checked_exp("mod_gaussian_residual", "the normalized MGF", log_value)
    with in_name_of("mod_gaussian_residual"):
        limit = mod_gaussian_limit(params.mu, z)
    if adjusted:
        limit *= math.exp(-z * z / 4.0)
    return abs(value - limit)


def two_sided_tail(params: ModelParams, y: float) -> float:
    """P(|Y_std| >= y) from the inverted CDF (trustworthy down to ~1e-8)."""
    y = check_real("two_sided_tail", "y", y, least=0.0)
    with in_name_of("two_sided_tail"):
        F = standardized_cdf(params, np.array([-y, y]))
    return float(F[0] + 1.0 - F[1])


#: the coefficients fit_envelope_coefficient tries, in increasing order
_ENVELOPE_C_GRID = np.concatenate([np.linspace(0.01, 5.0, 500), np.linspace(5.1, 100.0, 950)])


def fit_envelope_coefficient(tails, ys, eps: float) -> float:
    """Smallest coefficient c on a fixed grid (0.01 to 100) for which every
    observed two-sided tail is below the concentration envelope
    2 exp(-y^2/(2 + c y/eps)).  Constants here are fitted, never asserted."""
    tails = check_real_array("fit_envelope_coefficient", "tails", tails, least=0.0).ravel().tolist()
    ys = check_real_array("fit_envelope_coefficient", "ys", ys, least=0.0).ravel().tolist()
    eps = check_real("fit_envelope_coefficient", "eps", eps, above=0.0)
    for c in _ENVELOPE_C_GRID:
        if all(p <= concentration_envelope(y, float(c), eps) for p, y in zip(tails, ys)):
            return float(c)
    return float("inf")
