"""Special-function kernel: log-gamma, digamma, polygamma, log Barnes G,
regularized incomplete gamma and unit-ball volumes.

Everything downstream (exact moment formulas, cumulants, characteristic
functions, limiting functions) is evaluated through this module.  The gamma
family is delegated to scipy.special; the Barnes G-function, which scipy does
not provide, is evaluated from its Taylor series at 1+z, the functional
equation G(z+1) = Gamma(z) G(z), and a Bernoulli asymptotic series anchored at
the Glaisher-Kinkelin constant.  Differences log Gamma(x+h) - log Gamma(x)
and log G(x+a+1) - log G(x+1) at large x come from Stirling's and the Barnes
series in shift form, with their large parts cancelled analytically
(``GammaShift``, ``BarnesShift``), and runs of gamma ratios
sum_{j<k} log Gamma(b+a+j)/Gamma(b+j) telescope through them (``GammaRun``);
these are prepared once per set of arguments and then called with the
shifts.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError

__all__ = [
    "BarnesShift",
    "EvalPrecision",
    "GammaRun",
    "GammaShift",
    "DEFAULT_PRECISION",
    "log_gamma",
    "digamma",
    "polygamma",
    "log_barnes_g",
    "log_barnes_g_shift_asymptotic",
    "reg_lower_incomplete_gamma",
    "log_unit_ball_volume",
    "log_unit_sphere_area",
]


@dataclass(frozen=True)
class EvalPrecision:
    """Tolerances and truncation caps for series evaluation."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 10**6

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("EvalPrecision: tolerances must be positive")
        if self.max_terms < 16:
            raise DomainError("EvalPrecision: max_terms must be >= 16")


DEFAULT_PRECISION = EvalPrecision()

# log of the Glaisher-Kinkelin constant A = 1.2824271291...
_LN_GLAISHER = 0.24875447713391599274
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Bernoulli numbers B_4 .. B_14 for the Barnes and Stirling asymptotic tails.
_BERNOULLI = {4: -1.0 / 30.0, 6: 1.0 / 42.0, 8: -1.0 / 30.0, 10: 5.0 / 66.0, 12: -691.0 / 2730.0, 14: 7.0 / 6.0}
# B_(2k+2) / (4k(k+1)), k = 1..6: the tail of log G(w+1) in powers of w^-2
_BARNES_TAIL = np.array([_BERNOULLI[2 * k + 2] / (4 * k * (k + 1)) for k in range(1, 7)])
# B_(2k) / (2k(2k-1)), k = 1..7: the tail of log Gamma(w) in odd powers of 1/w
_STIRLING_TAIL = np.array([1.0 / 12.0] + [_BERNOULLI[2 * k] / (2 * k * (2 * k - 1)) for k in range(2, 8)])
_POWERS = np.arange(7.0)
#: real parts from which the shift forms are used: the first omitted terms
#: of both series are below 4e-16 there
SHIFT_MIN = 10.0


def _is_pole(x) -> bool:
    return x <= 0 and float(x) == round(float(x))


def log_gamma(z):
    """Principal-branch log Gamma.

    Real arguments must be positive (the negative real axis is out of scope);
    complex arguments are accepted anywhere off the poles 0, -1, -2, ...
    Satisfies log_gamma(z+1) = log_gamma(z) + log(z).
    """
    arr = np.asarray(z)
    if np.iscomplexobj(arr):
        carr = arr.astype(complex)
        real_axis = carr.imag == 0
        if np.any(real_axis & (carr.real <= 0) & (carr.real == np.rint(carr.real))):
            raise DomainError("log_gamma: argument is a pole of Gamma (0, -1, -2, ...)")
        out = sp.loggamma(carr)
        return complex(out) if arr.ndim == 0 else out
    farr = arr.astype(float)
    if np.any(farr <= 0.0):
        raise DomainError("log_gamma: real argument must be positive")
    out = sp.gammaln(farr)
    return float(out) if arr.ndim == 0 else out


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("digamma: argument must be positive")
    out = sp.digamma(arr)
    return float(out) if arr.ndim == 0 else out


def polygamma(m: int, x):
    """psi^(m)(x), the m-th derivative of digamma, for m >= 1 and x > 0."""
    if m < 1 or m != int(m):
        raise DomainError("polygamma: order m must be an integer >= 1 (use digamma for m = 0)")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("polygamma: argument must be positive")
    out = sp.polygamma(int(m), arr)
    return float(out) if arr.ndim == 0 else out


def _log_barnes_g_series(z: float, precision: EvalPrecision) -> float:
    # Taylor series of log G(1+z) around 0, |z| <= 0.5:
    #   z (log(2 pi) - 1)/2 - (1 + gamma) z^2/2 + sum_{k>=3} (-1)^(k-1) zeta(k-1) z^k / k
    total = z * (math.log(2.0 * math.pi) - 1.0) / 2.0 - (1.0 + np.euler_gamma) * z * z / 2.0
    zk = z * z
    for k in range(3, precision.max_terms):
        zk *= z
        term = ((-1.0) ** (k - 1)) * sp.zeta(k - 1) * zk / k
        total += term
        if abs(term) < 0.01 * precision.abs_tol:
            return total
    raise DomainError("log_barnes_g: series did not converge within max_terms")


def _log_barnes_g_asymptotic(x: float) -> float:
    # log G(z+1) for z = x-1 via z^2/4 + z log Gamma(z+1)
    #   - (z(z+1)/2 + 1/12) log z - log A + Bernoulli tail; machine precision for x >= 15.
    z = x - 1.0
    lz = math.log(z)
    s = z * z / 4.0 + z * math.lgamma(z + 1.0) - (z * (z + 1.0) / 2.0 + 1.0 / 12.0) * lz - _LN_GLAISHER
    for k in (1, 2, 3, 4):
        s += _BERNOULLI[2 * k + 2] / (2 * k * (2 * k + 1) * (2 * k + 2) * z ** (2 * k))
    return s


def log_barnes_g(x: float, precision: EvalPrecision = DEFAULT_PRECISION) -> float:
    """log G(x) for x > 0, with G the Barnes function, G(z+1) = Gamma(z) G(z).

    G(1) = G(2) = G(3) = 1.  Evaluation: asymptotic series for x >= 15,
    otherwise the Taylor series at a base point in [0.5, 1.5) plus the
    functional equation.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError("log_barnes_g: argument must be positive")
    if x >= 15.0:
        return _log_barnes_g_asymptotic(x)
    shift = 0.0
    b = x
    while b < 0.5:
        # G(b) = G(b+1)/Gamma(b)
        shift -= math.lgamma(b)
        b += 1.0
    climbs = []
    while b >= 1.5:
        b -= 1.0
        climbs.append(math.lgamma(b))
    return _log_barnes_g_series(b - 1.0, precision) + shift + math.fsum(climbs)


def _log1p(u):
    # log(1+u) for Re(1+u) > 0 to full relative accuracy near 0: numpy's
    # complex log1p loses ~1e-5 absolute at |u| ~ 1e-5, 2 atanh(u/(2+u)) not
    if not np.iscomplexobj(u):
        return np.log1p(u)
    return 2.0 * np.arctanh(u / (2.0 + u))


def _stirling_tail(w):
    v = 1.0 / w
    return v * (np.power.outer(v * v, _POWERS[: len(_STIRLING_TAIL)]) @ _STIRLING_TAIL)


def _barnes_tail(w):
    v = 1.0 / (w * w)
    return v * (np.power.outer(v, _POWERS[: len(_BARNES_TAIL)]) @ _BARNES_TAIL)


class GammaShift:
    """x -> log Gamma(x+h) - log Gamma(x), prepared at fixed real x > 0 and
    called with arrays of real or complex shifts h (broadcasting against x,
    Re(x+h) > 0 off the poles).

    Where x and Re(x+h) >= SHIFT_MIN this is the shift form of Stirling's
    series log Gamma(w) = (w - 1/2) log w - w + log sqrt(2 pi) + sum_k B_2k /
    (2k(2k-1) w^(2k-1)): with log w = log x + log1p(h/x) the difference is
    (x+h-1/2) log1p(h/x) + h (log x - 1) plus the difference of the tails,
    so no log Gamma(x)-sized term is formed.  Elsewhere it is the difference
    of two scipy log-gammas, both from the complex loop when h is complex
    (scipy's real and complex loops differ in the last bits).  Exactly 0 at
    h = 0.  Everything that depends on x alone is computed once.
    """

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        self.far = self.x >= SHIFT_MIN
        # the series is prepared at SHIFT_MIN where x is below it
        self.x_far = np.where(self.far, self.x, SHIFT_MIN)
        self.inv = 1.0 / self.x_far
        self.log_m1 = np.log(self.x_far) - 1.0
        self.tail = _stirling_tail(self.x_far)

    def __call__(self, h):
        h = np.asarray(h)
        w = self.x + h
        far = self.far & (w.real >= SHIFT_MIN)
        if far.all():
            return self._series(h, w)
        if np.iscomplexobj(h):
            out = sp.loggamma(w) - sp.loggamma(self.x.astype(complex))
        else:
            out = sp.gammaln(w) - sp.gammaln(self.x)
        if far.any():
            # near entries run the series at h = 0, where it is exactly 0
            h = np.where(far, h, 0.0)
            out = np.where(far, self._series(h, self.x_far + h), out)
        return out

    def _series(self, h, w):
        return (w - 0.5) * _log1p(h * self.inv) + h * self.log_m1 + (_stirling_tail(w) - self.tail)


class BarnesShift:
    """x -> log G(x+a+1) - log G(x+1), prepared at fixed real x >= SHIFT_MIN
    and called with arrays of real or complex a (broadcasting against x,
    Re(x+a) >= SHIFT_MIN).

    Shift form of the asymptotic series
    log G(w+1) = w^2/2 log w - 3w^2/4 + w log sqrt(2 pi) - log(w)/12 + zeta'(-1)
    + sum_k B_(2k+2) / (4k(k+1) w^(2k)) taken at w = x+a and at x: with
    log w = log x + log1p(a/x), the Theta(x^2 log x) parts cancel exactly and
    the difference is
    (w^2/2 - 1/12) log1p(a/x) + a(2x+a)(log(x)/2 - 3/4) + a log sqrt(2 pi)
    plus the difference of the Bernoulli tails.  Exactly 0 at a = 0.
    """

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        if (self.x < SHIFT_MIN).any():
            raise DomainError(f"BarnesShift: requires x >= {SHIFT_MIN:g}")
        self.inv = 1.0 / self.x
        self.two_x = 2.0 * self.x
        self.log_c = 0.5 * np.log(self.x) - 0.75
        self.tail = _barnes_tail(self.x)

    def __call__(self, a):
        a = np.asarray(a)
        w = self.x + a
        if (w.real < SHIFT_MIN).any():
            raise DomainError(f"BarnesShift: requires Re(x+a) >= {SHIFT_MIN:g}")
        return (
            (0.5 * w * w - 1.0 / 12.0) * _log1p(a * self.inv)
            + a * (self.two_x + a) * self.log_c
            + a * _LN_SQRT_2PI
            + (_barnes_tail(w) - self.tail)
        )


#: terms at the start of a run taken by recurrence from one gamma shift;
#: past them b+j and Re(b+a+j) are at least SHIFT_MIN whenever Re(b+a) > 0
RUN_HEAD = int(SHIFT_MIN) + 1


class GammaRun:
    """a -> sum over runs (b, k) of sum_{j<k} [log Gamma(b+a+j) - log Gamma(b+j)],
    prepared for runs of real b > 0 and integer k >= 1 and called with arrays
    of real or complex a with Re(b+a) > 0; a call costs the same at every k.

    With g(w) = log Gamma(w+a) - log Gamma(w) and J = min(k, RUN_HEAD), the
    head follows from g(w+1) = g(w) + log1p(a/w):
    sum_{j<J} g(b+j) = J g(b+J) - sum_{i<J} (i+1) log1p(a/(b+i)),
    and the rest telescopes through G(w+1) = Gamma(w) G(w) to
    S(b+k-1, a) - S(b+J-1, a), S the Barnes G shift (BarnesShift).
    """

    def __init__(self, runs):
        anchors, anchor_w, heads, head_w, ends = [], [], [], [], []
        for b, k in runs:
            j = min(k, RUN_HEAD)
            anchors.append(b + j)
            anchor_w.append(float(j))
            heads += [b + i for i in range(j)]
            head_w += [-(i + 1.0) for i in range(j)]
            if k > j:
                ends += [b + k - 1.0, b + j - 1.0]
        self.anchors, self.anchor_w = GammaShift(anchors), np.array(anchor_w)
        self.inv_heads, self.head_w = 1.0 / np.array(heads), np.array(head_w)
        self.ends = BarnesShift(ends) if ends else None
        self.signs = np.array([1.0, -1.0] * (len(ends) // 2))

    def __call__(self, a):
        ac = np.asarray(a)[..., None]
        total = self.anchors(ac) @ self.anchor_w + _log1p(ac * self.inv_heads) @ self.head_w
        if self.ends is not None:
            total = total + self.ends(ac) @ self.signs
        return total


def log_barnes_g_shift_asymptotic(z: float, a: float) -> float:
    """Leading approximation a (z log z - z + log sqrt(2 pi)) + a^2/2 log z
    for log G(z+a+1) - log G(z+1); the error decays like O((|a|^3 + 1)/z)."""
    if not (z > 0 and z + a > 0):
        raise DomainError("log_barnes_g_shift_asymptotic: requires z > 0 and z + a > 0")
    return a * (z * math.log(z) - z + _LN_SQRT_2PI) + 0.5 * a * a * math.log(z)


def reg_lower_incomplete_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) in [0, 1]."""
    if not a > 0:
        raise DomainError("reg_lower_incomplete_gamma: shape a must be positive")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("reg_lower_incomplete_gamma: x must be nonnegative")
    out = sp.gammainc(a, arr)
    return float(out) if arr.ndim == 0 else out


def log_unit_ball_volume(n: int) -> float:
    """log of the n-dimensional unit-ball volume pi^(n/2) / Gamma(1 + n/2)."""
    if n < 1 or n != int(n):
        raise DomainError("log_unit_ball_volume: dimension must be an integer >= 1")
    return (n / 2.0) * math.log(math.pi) - math.lgamma(1.0 + n / 2.0)


def log_unit_sphere_area(n: int) -> float:
    """log of the surface area of the unit sphere in R^n (= n * ball volume)."""
    if n < 1 or n != int(n):
        raise DomainError("log_unit_sphere_area: dimension must be an integer >= 1")
    return math.log(n) + log_unit_ball_volume(n)
