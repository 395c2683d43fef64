"""Special-function kernel: log-gamma, digamma, polygamma, log Barnes G,
regularized incomplete gamma and unit-ball volumes.

The exact law's gamma products, every polygamma value psi^(q) in the package
(``_polygamma``, behind the public ``digamma`` and ``polygamma``) and the
Barnes G-function are evaluated here.  Log-gammas and incomplete gammas
elsewhere are not: exactlaw (its direct O(n) routes, linear term and radius
law), distribution (centering constants, normal CDF) and delaunay2d call
scipy.special themselves.  The gamma family is delegated to scipy.special;
the Barnes G-function, which scipy does not provide, is evaluated from its
Taylor series at 1+z (coefficients zeta(k-1) from a table) and the functional
equation G(z+1) = Gamma(z) G(z) below x = 15, and from its Bernoulli
asymptotic series, anchored at the Glaisher-Kinkelin constant, above.
Weighted sums of gamma ratios log Gamma(x+cz)/Gamma(x), together with runs
sum_{j<k} log Gamma(b+j+a)/Gamma(b+j), are one ``GammaRatioSum``: prepared
once per set of arguments, then called with arrays of real or complex z, or
differentiated in z at 0.  At large arguments it takes Stirling's and the same
Barnes series in shift form, with their large parts cancelled analytically, so
a call costs the same at every run length, and each point is reduced by its
own dot product, so its value does not depend on the shape of the call.  The
series' Bernoulli tails are summed in one of two forms, chosen by the dtype of
the call: as power sums for real z, which keeps their bits and is the cheaper
form on the few entries of a scalar call, and by Horner's rule for complex z,
where a power sum runs one scalar complex pow per entry and power.  A plan
prepares its tails at its own arguments in the form of each dtype it is
called with, so a call is exactly 0 at z = 0 in either.  All functions are
pure and thread-safe.

The log1p in the shift forms is taken in real arithmetic for complex z, as
atan2 for its imaginary part and log1p(|1+u|^2 - 1)/2 for its real part:
2.3-3.7x faster than 2 atanh(u/(2+u)) on the 768-1536 x 28 entries of a
large call, and accurate next to u = -1, where that form loses digits.  Only
the Barnes ends keep the atanh form: their log1p is multiplied by w^2/2 and
the two ends cancel, so any change of its last bits would redraw the
large-mu errors of the CGF ratchet.

The package has one helper thread (``_helper``), started on first use in a
process that may run on two CPUs or more; a forked child starts its own.  The
sampler reduces proposal blocks on it, and ``_split`` runs the trailing half
of a large call on it while the calling thread runs the leading half: a
``GammaRatioSum`` call of at least ``_SPLIT_POINTS`` points (among them the
Gil-Pelaez inversion's first two levels, 2304 nodes in one call on the
Kolmogorov grid), the cosines and sines of the large exponential tables of
``distribution`` and the Kolmogorov grid's matrix product, split by its
coarse rows, and the Qhull calls of a torus triangulation's trailing strips
in ``delaunay2d``.  Only private code that never splits again runs there, in
a copy of the caller's context (so under its numpy error state), and every
element goes through the same operations wherever it is computed, so a split
call gives the bits of an unsplit one.  Smaller calls never ask for the
helper.
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
import threading

import numpy as np
from scipy import special as sp

from .errors import DomainError, check_integer, check_real, check_real_array, refusing_fp_errors

__all__ = [
    "GammaRatioSum",
    "log_gamma",
    "digamma",
    "polygamma",
    "log_barnes_g",
    "log_barnes_g_shift_asymptotic",
    "reg_lower_incomplete_gamma",
    "log_unit_ball_volume",
    "log_unit_sphere_area",
]


# log of the Glaisher-Kinkelin constant A = 1.2824271291...
_LN_GLAISHER = 0.24875447703378426255
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Bernoulli numbers B_4 .. B_14 for the Barnes and Stirling asymptotic tails.
_BERNOULLI = {4: -1.0 / 30.0, 6: 1.0 / 42.0, 8: -1.0 / 30.0, 10: 5.0 / 66.0, 12: -691.0 / 2730.0, 14: 7.0 / 6.0}
# B_(2k+2) / (4k(k+1)), k = 1..6: the tail of log G(w+1) in powers of w^-2
_BARNES_TAIL = np.array([_BERNOULLI[2 * k + 2] / (4 * k * (k + 1)) for k in range(1, 7)])
# B_(2k) / (2k(2k-1)), k = 1..7: the tail of log Gamma(w) in odd powers of 1/w
_STIRLING_TAIL = np.array([1.0 / 12.0] + [_BERNOULLI[2 * k] / (2 * k * (2 * k - 1)) for k in range(2, 8)])
_POWERS = np.arange(7.0)
# the largest float whose square is finite, and that float's log
_SQRT_MAX = math.sqrt(np.finfo(float).max)
_LOG_MAX = math.log(np.finfo(float).max)
# the largest q whose factorial is a finite float (170! = 7.3e306)
_FACTORIAL_MAX = 170
#: real parts from which the shift forms are used: the first omitted terms
#: of both series are below 4e-16 there
SHIFT_MIN = 10.0
# the Taylor series of log G(1+z) stops at the first term below 1e-14 in
# magnitude (1% of an absolute tolerance of 1e-12): by k = 42 on |z| <= 0.5,
# inside its table of coefficients zeta(k-1), k = 3..62
_SERIES_STOP = 0.01 * 1e-12
_SERIES_ZETA = sp.zeta(np.arange(2.0, 62.0)).tolist()
#: points from which a GammaRatioSum call is split in two (``_split``), one
#: threshold for both dtypes, where both pay.  Split in two, a complex call
#: took 1.19-1.84x the time of a whole one at 512-768 points, 0.69-1.39x at
#: 1024, 0.67-0.97x at 1536 and 0.53-0.87x at 2048; a real call 1.06-1.33x
#: at 1024 and 0.81-1.16x at 1536 (three series of paired timings at n = 10,
#: 1e3 and 1e6, 2-vCPU VM)
_SPLIT_POINTS = 1536
#: (pid, executor) of the package's helper thread, see ``_helper``
_helper_pool = None
_helper_lock = threading.Lock()
# marks the helper thread itself, whose work never splits again
_on_helper = threading.local()


def _enter_helper():
    _on_helper.active = True


def _helper():
    """The package's one helper thread next to the calling thread, started on
    first use in each process (a forked child starts its own); None when the
    process may run on one CPU only, or when asked from the helper itself."""
    global _helper_pool
    if getattr(_on_helper, "active", False):
        return None
    pid = os.getpid()
    if _helper_pool is None or _helper_pool[0] != pid:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            return None
        from concurrent.futures import ThreadPoolExecutor

        with _helper_lock:
            if _helper_pool is None or _helper_pool[0] != pid:
                pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pdvol-helper", initializer=_enter_helper)
                _helper_pool = (pid, pool)
    return _helper_pool[1]


def _split(fn, count):
    """[fn(0, half), fn(half, count)] with the trailing half run on the helper
    thread while the calling thread runs the leading one, or [fn(0, count)]
    when no helper is available.  Both halves are done when it returns or
    raises: an exception from the leading half is raised after the helper's
    half ends, and one from the helper's half is re-raised here.  The helper
    runs in a copy of the caller's context, so numpy's error state holds for
    both halves alike."""
    helper = _helper()
    if helper is None:
        return [fn(0, count)]
    half = count // 2
    trailing = helper.submit(contextvars.copy_context().run, fn, half, count)
    try:
        leading = fn(0, half)
    except BaseException:
        trailing.exception()  # wait for the helper's half before leaving
        raise
    return [leading, trailing.result()]


def log_gamma(z):
    """Principal-branch log Gamma.

    Real arguments must be positive and finite (the negative real axis is out
    of scope); complex arguments are accepted anywhere off the poles 0, -1,
    -2, ...  NaN is refused.  Satisfies log_gamma(z+1) = log_gamma(z) + log(z).
    """
    arr = np.asarray(z)
    if arr.dtype.kind == "c":
        carr = arr.astype(complex)
        if np.isnan(carr).any():
            raise DomainError("log_gamma: argument must not be NaN")
        real_axis = carr.imag == 0
        if np.any(real_axis & (carr.real <= 0) & (carr.real == np.rint(carr.real))):
            raise DomainError("log_gamma: argument is a pole of Gamma (0, -1, -2, ...)")
        out = sp.loggamma(carr)
        return complex(out) if arr.ndim == 0 else out
    out = sp.gammaln(check_real_array("log_gamma", "z", arr, above=0.0))
    return float(out) if arr.ndim == 0 else out


def _polygamma(q, x):
    # psi^(q)(x) for an integer q >= 0 and x > 0, without the public checks:
    # the package's one polygamma kernel
    return sp.digamma(x) if q == 0 else (-1.0) ** (q + 1) * math.factorial(q) * sp.zeta(q + 1.0, x)


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for finite x > 0."""
    arr = check_real_array("digamma", "x", x, above=0.0)
    out = _polygamma(0, arr)
    return float(out) if arr.ndim == 0 else out


def polygamma(m: int, x):
    """psi^(m)(x), the m-th derivative of digamma, for an integer m in
    [1, 170] (``digamma`` is m = 0; 171! exceeds the largest float) and
    finite x > 0, refused where |psi^(m)(x)| ~ m! / x^(m+1) exceeds the
    largest float."""
    m = check_integer("polygamma", "m", m, 1, 170)
    arr = check_real_array("polygamma", "x", x, above=0.0)
    with np.errstate(over="ignore"):
        out = _polygamma(m, arr)
    if not np.isfinite(out).all():
        raise DomainError(
            f"polygamma: |psi^({m})(x)| exceeds the largest float ({sys.float_info.max:.3g}) at x = {np.min(arr):.3g}"
        )
    return float(out) if arr.ndim == 0 else out


def _log_barnes_g_series(z: float) -> float:
    # Taylor series of log G(1+z) around 0, |z| <= 0.5:
    #   z (log(2 pi) - 1)/2 - (1 + gamma) z^2/2 + sum_{k>=3} (-1)^(k-1) zeta(k-1) z^k / k
    total = z * (math.log(2.0 * math.pi) - 1.0) / 2.0 - (1.0 + np.euler_gamma) * z * z / 2.0
    zk = z * z
    for k, zeta in enumerate(_SERIES_ZETA, 3):
        zk *= z
        term = ((-1.0) ** (k - 1)) * zeta * zk / k
        total += term
        if abs(term) < _SERIES_STOP:
            return total
    raise DomainError(f"log_barnes_g: series did not converge within {len(_SERIES_ZETA)} terms")


def _log_barnes_g_asymptotic(x: float) -> float:
    # log G(w+1), w = x-1, from the Barnes series
    #   w^2/2 log w - 3w^2/4 + w log sqrt(2 pi) - log(w)/12 + 1/12 - log A + tail(w)
    # with the six-term Bernoulli tail; machine precision for x >= 15
    w = x - 1.0
    lw = math.log(w)
    return w * w * (0.5 * lw - 0.75) + w * _LN_SQRT_2PI - lw / 12.0 + (1.0 / 12.0 - _LN_GLAISHER) + float(_barnes_tail(w))


def log_barnes_g(x: float) -> float:
    """log G(x) for x > 0, with G the Barnes function, G(z+1) = Gamma(z) G(z).

    G(1) = G(2) = G(3) = 1.  Evaluation: asymptotic series for x >= 15,
    otherwise the Taylor series at a base point in [0.5, 1.5) plus the
    functional equation.  log G(x) exceeds the largest float from about
    x = 1.01e153 on, where it is refused.
    """
    x = check_real("log_barnes_g", "x", x, above=0.0)
    if x >= 15.0:
        out = _log_barnes_g_asymptotic(x)
        if not out < math.inf:
            raise DomainError(
                f"log_barnes_g: log G(x) exceeds the largest float ({sys.float_info.max:.3g}) from about "
                f"x = 1.01e153 on; got x = {x:.3g}"
            )
        return out
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
    return _log_barnes_g_series(b - 1.0) + shift + math.fsum(climbs)


def _log1p_complex(u):
    # log(1+u) for complex u with Re(1+u) > 0, in real arithmetic: the
    # argument atan2(y, 1+x) and the log-modulus log1p(x(2+x) + y^2)/2, or
    # log hypot(1+x, y) where 1+u is near 0 and x(2+x) + y^2 near -1 has
    # lost its digits.  Exactly 0 at u = 0, to full relative accuracy near 0
    # (numpy's complex log1p loses ~1e-5 absolute at |u| ~ 1e-5) and near
    # u = -1, where 2 atanh(u/(2+u)) reads 1.7e-3 off at -1 + 1e-15.  It
    # overwrites u with the result: a large call's fresh temporaries cost
    # page faults
    x, y = u.real, u.imag
    t = x + 2.0
    t *= x
    x1 = y * y
    t += x1
    np.add(x, 1.0, out=x1)  # y^2's buffer takes 1 + x
    low = None
    if np.minimum.reduce(t, None, initial=0.0) < -0.5:
        low = t < -0.5
        near = np.log(np.hypot(x1[low], y[low]))
        t[low] = 0.0
    np.arctan2(y, x1, out=y)
    np.log1p(t, out=t)
    np.multiply(t, 0.5, out=x)
    if low is not None:
        x[low] = near
    return u


def _log1p_ends(u, cplx):
    # log(1+u) at the Barnes ends, as 2 atanh(u/(2+u)) for complex u.  Its
    # value is multiplied by w^2/2 and the two ends of a run cancel, so a
    # last-bit change here redraws the large-mu errors that the CGF ratchet
    # records; ROADMAP item 10's difference form replaces this expression
    if not cplx:
        return np.log1p(u)
    return 2.0 * np.arctanh(u / (2.0 + u))


def _tail_sum(u, coefs, horner):
    # sum_k coefs[k] u^k as a power sum, or by Horner's rule in place, 6-11x
    # faster on 2048 x 6 complex entries (see the module docstring for which
    # call takes which); at a real point the complex Horner gives the bits of
    # the real one
    if not horner:
        return np.power.outer(u, _POWERS[: len(coefs)]) @ coefs
    coefs = coefs.tolist()  # numpy scalars slow the in-place steps
    acc = u * coefs[-1]
    for c in coefs[-2:0:-1]:
        acc += c
        acc *= u
    acc += coefs[0]
    return acc


def _stirling_tail(w, horner=False):
    v = 1.0 / w
    return v * _tail_sum(v * v, _STIRLING_TAIL, horner)


def _barnes_tail(w, horner=False):
    v = 1.0 / (w * w)
    return v * _tail_sum(v, _BARNES_TAIL, horner)


def _horner_at(tail, x):
    # a tail's Horner form at a plan's real points, in Python floats (cheaper
    # than numpy on a plan's few entries): the bits of a complex call at x + 0j
    return np.array([tail(v, True) for v in x.tolist()])


def _psi_difference(q, y, log, psi_top, psi_start):
    """psi^(q)(y+h) - psi^(q)(y) with log = log1p(h/y).  Below y = 20 + 2q it
    is the difference of the given values; from there on it is the (q+1)-th
    derivative of Stirling's series (y - 1/2) log y - y + sum_k t_k y^(1-2k)
    (t_k the entries of _STIRLING_TAIL), a sum of terms C y^-p, with each
    (y+h)^-p - y^-p taken as y^-p expm1(-p log), so no digits are lost when
    y >> h.  The first omitted term is below 3e-18 of the difference (checked
    to q = 60)."""
    if y < 20.0 + 2.0 * q:
        return psi_top - psi_start
    # (p, C) from the q-th derivative of log y, then of -1/(2y) and of the tail
    terms = [(q, (-1.0) ** (q - 1) * math.factorial(q - 1))] if q else []
    terms.append((q + 1, -0.5 * (-1.0) ** q * math.factorial(q)))
    for k, t in enumerate(_STIRLING_TAIL.tolist(), 1):
        terms.append((2 * k + q, t * math.prod(range(1 - 2 * k - q, 2 - 2 * k))))
    return sum(c * y**-p * math.expm1(-p * log) for p, c in terms) + (0.0 if q else log)


#: terms at the start of a run taken by recurrence from its anchor; past
#: them b+j and Re(b+a+j) are at least SHIFT_MIN whenever Re(b+a) >= 0
RUN_HEAD = int(SHIFT_MIN) + 1


class GammaRatioSum:
    """z -> sum over ratios (x, c, w) of w [log Gamma(x+cz) - log Gamma(x)]
    plus sum over runs (b, k) of sum_{j<k} [log Gamma(b+j+a) - log Gamma(b+j)]
    with a = run_coef z, prepared for real x > 0, b > 0 and integers k >= 1,
    and called with arrays of real or complex z (Re(x+cz) > 0 off the poles,
    Re(b+a) >= 0).  A call costs the same at every k and is exactly 0 at
    z = 0.  Everything that depends on the arguments alone is computed once,
    in three flat blocks:

    * Stirling shifts log Gamma(x+h) - log Gamma(x), h = cz, for every ratio
      and for each run's anchor x = b+J, J = min(k, RUN_HEAD), c = run_coef.
      Where x and Re(x+h) >= SHIFT_MIN this is Stirling's series in shift
      form: with log(x+h) = log x + log1p(h/x) the difference is
      (x+h-1/2) log1p(h/x) + h (log x - 1) plus the difference of the tails,
      so no log Gamma(x)-sized term is formed.  Elsewhere it is the
      difference of two scipy log-gammas, both from the complex loop when z
      is complex (scipy's real and complex loops differ in the last bits).
      Each call splits the whole block into near and far entries once.
    * Heads: g(w) = log Gamma(w+a) - log Gamma(w) obeys
      g(w+1) = g(w) + log1p(a/w), so a run's first J terms are
      J g(b+J) - sum_{i<J} (i+1) log1p(a/(b+i)).
    * Barnes ends: the rest of a run telescopes through G(w+1) = Gamma(w) G(w)
      to S(b+k-1) - S(b+J-1), where S(x) = log G(x+a+1) - log G(x+1) is the
      Barnes series (see _log_barnes_g_asymptotic) in shift form: the
      Theta(x^2 log x) parts cancel and, with w = x+a, S(x) is
      (w^2/2 - 1/12) log1p(a/x) + a(2x+a)(log(x)/2 - 3/4) + a log sqrt(2 pi)
      plus the difference of the tails.

    Both series end in a Bernoulli tail.  A real call sums it as a power sum,
    a complex call by Horner's rule (``_tail_sum``).  The tails at the
    prepared x and ends, which each call differences against, are prepared in
    the same form: the power sums with the plan, Horner on its first complex
    call.  The log1p of the shifts and the heads is numpy's for a real call;
    a complex call takes it in real arithmetic (``_log1p_complex``), in one
    call over both blocks.  The Barnes ends keep 2 atanh(u/(2+u)) for
    complex z (``_log1p_ends``).

    Its real arguments follow the package's real rule (``errors.check_real``).
    A Barnes end past the square root of the largest float is refused when
    the plan is prepared, and a call whose terms pass the largest float (the
    Barnes ends from about |z| = 1e153 on) when it is made.
    """

    def __init__(self, ratios, runs=(), run_coef=1.0):
        x, coef, weight = [], [], []
        for x_r, c, w in ratios:
            x.append(check_real("GammaRatioSum", "x", x_r, above=0.0))
            coef.append(check_real("GammaRatioSum", "c", c))
            weight.append(check_real("GammaRatioSum", "w", w))
        run_coef = check_real("GammaRatioSum", "run_coef", run_coef)
        self.split = len(x)
        heads, head_w, ends, spans = [], [], [], []
        for b, k in runs:
            k = check_integer("GammaRatioSum", "k", k, 1)
            b = check_real("GammaRatioSum", "b", b, above=0.0)
            j = min(k, RUN_HEAD)
            x.append(b + j)
            coef.append(run_coef)
            weight.append(float(j))
            heads += [b + i for i in range(j)]
            head_w += [-(i + 1.0) for i in range(j)]
            if k > j:
                ends += [b + k - 1.0, b + j - 1.0]
                spans.append((b + j, float(k - j)))
        self.x, self.coef, self.run_coef = np.array(x, dtype=float), np.array(coef, dtype=float), run_coef
        # the Barnes series squares its argument (w^2/2 and w^-2)
        if not (np.array(ends) < _SQRT_MAX).all():
            raise DomainError(f"GammaRatioSum: arguments overflow: a Barnes end must be below {_SQRT_MAX:.3g}")
        self.ratio_w, self.anchor_w = np.array(weight[: self.split]), np.array(weight[self.split :])
        self.log_gamma_x, self.log_gamma_xc = sp.gammaln(self.x), sp.loggamma(self.x.astype(complex))
        self.far = self.x >= SHIFT_MIN
        self.all_far, self.any_far = min(x, default=SHIFT_MIN) >= SHIFT_MIN, max(x, default=0.0) >= SHIFT_MIN
        # the series is prepared at SHIFT_MIN where x is below it
        self.x_far = np.where(self.far, self.x, SHIFT_MIN)
        self.inv = 1.0 / self.x_far
        self.log_m1 = np.log(self.x_far) - 1.0
        self.heads, self.head_w = np.array(heads), np.array(head_w)
        # the columns of the shifts' and the heads' log1p arguments in _series
        self.log_cols = (len(x) + len(heads),)
        self.shift_cols, self.head_cols = (..., slice(None, len(x))), (..., slice(len(x), None))
        self.inv_heads = 1.0 / self.heads
        self.ends = np.array(ends)
        self.inv_ends, self.two_ends = 1.0 / self.ends, 2.0 * self.ends
        self.log_c = 0.5 * np.log(self.ends) - 0.75
        self.signs = np.array([1.0, -1.0] * (len(ends) // 2))
        # derivative(m): a Barnes end spans the h = k-J terms from y = b+J on;
        # psi^(m-1) is taken at the ratios, the anchors, the ends' tops y+h
        # (weight h) and their starts y
        self.spans = [(y, h, math.log1p(h / y)) for y, h in spans]
        self.psi_x = np.array(x + [y + h for y, h in spans] + [y for y, _ in spans])
        self.psi_w = np.array(weight + [h for _, h in spans])
        self.psi_c = np.array(coef + [run_coef] * len(spans), dtype=float)
        # the highest order m whose (m-1)! and c^m at the largest |c| are
        # finite floats (c^m cannot overflow where |c| <= 1)
        c_max = max(1.0, abs(run_coef) if spans else 1.0, *map(abs, coef))
        power_max = int(_LOG_MAX / math.log(c_max)) if c_max > 1.0 else _FACTORIAL_MAX + 1
        self.max_order = min(_FACTORIAL_MAX + 1, power_max)
        #: derivative(m) by m: the value depends on the arguments and m alone
        self.derivatives = {}
        #: the Stirling tails at x_far and the Barnes tails at the ends, keyed
        #: by whether z is complex, in the form those calls take, so that a
        #: call at z = 0 is exactly 0; the complex form on the first complex call
        self.tails = {False: (_stirling_tail(self.x_far), _barnes_tail(self.ends))}

    def __call__(self, z):
        # a term past the largest float (from about |z| = 1e153 on, in the
        # Barnes ends) is refused where numpy would warn
        with refusing_fp_errors("GammaRatioSum", "a term"):
            return self._values(np.asarray(z))

    def _values(self, z):
        # the call at an array z, under its caller's numpy error state
        cplx = z.dtype.kind == "c"
        if cplx not in self.tails:
            # before any split, so the helper thread only reads them
            self.tails[cplx] = (_horner_at(_stirling_tail, self.x_far), _horner_at(_barnes_tail, self.ends))
        if z.size < _SPLIT_POINTS:
            return self._evaluate(z)
        # each point is its own dot product, so halves of the flattened
        # points give the bits of the whole call
        flat = z.reshape(-1)
        return np.concatenate(_split(lambda lo, hi: self._evaluate(flat[lo:hi]), flat.size)).reshape(z.shape)

    def _evaluate(self, z):
        # one dtype decision per evaluation: complex z takes loggamma's
        # complex loop, the real-arithmetic log1p and the Horner tails, real
        # z the real loops, numpy's log1p and the power sums
        cplx = z.dtype.kind == "c"
        h = z[..., None] * self.coef
        a = z[..., None] * self.run_coef
        w = self.x + h
        # one reduction when every entry is far (initial: an empty z is too)
        if self.all_far and np.minimum.reduce(w.real, None, initial=SHIFT_MIN) >= SHIFT_MIN:
            shifts, heads = self._series(h, w, a, cplx)
        else:
            far = self.far & (w.real >= SHIFT_MIN)
            near = sp.loggamma(w) - self.log_gamma_xc if cplx else sp.gammaln(w) - self.log_gamma_x
            if self.any_far:
                # near entries run the series at h = 0, where it is exactly 0
                h = np.where(far, h, 0.0)
                shifts, heads = self._series(h, self.x_far + h, a, cplx)
                shifts = np.where(far, shifts, near)
            else:
                heads = a * self.inv_heads
                shifts, heads = near, _log1p_complex(heads) if cplx else np.log1p(heads)
        # a point's value does not depend on its call's shape: the runs' shift
        # stays one column (numpy's complex loops round a broadcast copy by
        # call size), and each point is its own dot product, not a row of a
        # matrix product (vecdot conjugates its first argument: weights first)
        row = np.vecdot(self.anchor_w, shifts[..., self.split :]) + np.vecdot(self.head_w, heads)
        if self.ends.size:
            row = row + np.vecdot(self.signs, self._barnes_ends(a, cplx))
        return np.vecdot(self.ratio_w, shifts[..., : self.split]) + row

    def derivative(self, m, caller="GammaRatioSum.derivative"):
        """The m-th z-derivative at z = 0, m >= 1: the sum over ratios of
        w c^m psi^(m-1)(x) plus run_coef^m times the sum over runs of
        sum_{j<k} psi^(m-1)(b+j), from the same three blocks:

        * ratios and anchors give w c^m psi^(m-1)(x);
        * the heads' log1p(a/(b+i)) differentiate to (-1)^(m-1) (m-1)!/(b+i)^m;
        * a Barnes end sums psi^(m-1) over b+J .. b+k-1 as U(b+k) - U(b+J),
          U(y) = (y-1) psi^(m-1)(y) + (m-1) psi^(m-2)(y) (less y for m = 1),
          taken as h psi^(m-1)(y+h) + (y-1) D_(m-1) + (m-1) D_(m-2) with
          y = b+J, h = k-J and D_q = psi^(q)(y+h) - psi^(q)(y).  Where
          y >= 20 + 2q, D_q is the (q+1)-th derivative of Stirling's series in
          shift form (see _psi_difference), so no digits are lost when b >> k.

        An order whose (m-1)! (the factorial of psi^(m-1)) or c^m at the
        largest |c| overflows a double is refused with DomainError, in
        ``caller``'s name, before any polygamma is taken; one whose weighted
        sum overflows (m >= 154 at mu = -1.9) is refused after it, without
        a warning.
        """
        m = check_integer(caller, "m", m, 1)
        if m in self.derivatives:
            return self.derivatives[m]
        if m > self.max_order:
            raise DomainError(
                f"{caller}: order m = {m} overflows a double in (m-1)! or a coefficient's m-th power; "
                f"the highest order here is {self.max_order}"
            )
        q = m - 1
        # an overflow anywhere leaves the sum inf or nan, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _polygamma(q, self.psi_x)
            weighted, r = len(self.psi_w), len(self.spans)
            total = (self.psi_w * self.psi_c**m) @ psi[:weighted]
            row = (-1.0) ** q * math.factorial(q) * (self.head_w @ self.heads ** -float(m))
            # psi^(q), then psi^(q-1), at the ends' tops and starts
            ends = psi[weighted - r :].tolist()
            lower = _polygamma(q - 1, self.psi_x[weighted - r :]).tolist() if q and r else None
            for i, (y, h, log) in enumerate(self.spans):
                row += (y - 1.0) * _psi_difference(q, y, log, ends[i], ends[r + i])
                row += q * _psi_difference(q - 1, y, log, lower[i], lower[r + i]) if q else -h
            value = float(total + self.run_coef**m * row)
        if not math.isfinite(value):
            raise DomainError(f"{caller}: order m = {m} overflows a double in the weighted polygamma sum")
        self.derivatives[m] = value
        return value

    def _series(self, h, w, a, cplx):
        # the Stirling shifts at h, w = x_far + h, and the heads' log1p: the
        # arguments h/x and a/(b+i) are written side by side into one array,
        # whose log1p is one call in place
        logs = np.empty(h.shape[:-1] + self.log_cols, h.dtype)
        log, heads = logs[self.shift_cols], logs[self.head_cols]
        np.multiply(h, self.inv, out=log)
        np.multiply(a, self.inv_heads, out=heads)
        if cplx:
            _log1p_complex(logs)
        else:
            np.log1p(logs, out=logs)
        tail = _stirling_tail(w, cplx) - self.tails[cplx][0]
        return (w - 0.5) * log + h * self.log_m1 + tail, heads

    def _barnes_ends(self, a, cplx):
        w = self.ends + a
        if np.minimum.reduce(w.real, None, initial=SHIFT_MIN) < SHIFT_MIN:
            raise DomainError("GammaRatioSum: a run longer than RUN_HEAD needs Re(b + run_coef z) >= 0")
        return (
            (0.5 * w * w - 1.0 / 12.0) * _log1p_ends(a * self.inv_ends, cplx)
            + a * (self.two_ends + a) * self.log_c
            + a * _LN_SQRT_2PI
            + (_barnes_tail(w, cplx) - self.tails[cplx][1])
        )


def log_barnes_g_shift_asymptotic(z: float, a: float) -> float:
    """Leading approximation a (z log z - z + log sqrt(2 pi)) + a^2/2 log z
    for log G(z+a+1) - log G(z+1); the error decays like O((|a|^3 + 1)/z)."""
    z = check_real("log_barnes_g_shift_asymptotic", "z", z, above=0.0)
    a = check_real("log_barnes_g_shift_asymptotic", "a", a, above=-z)  # z + a > 0
    out = a * (z * math.log(z) - z + _LN_SQRT_2PI) + 0.5 * a * a * math.log(z)
    if not math.isfinite(out):
        raise DomainError(
            f"log_barnes_g_shift_asymptotic: the approximation at z = {z:.3g}, a = {a:.3g} exceeds the "
            f"largest float ({sys.float_info.max:.3g})"
        )
    return out


def reg_lower_incomplete_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) in [0, 1], for a finite
    shape a > 0 and x in [0, inf]."""
    a = check_real("reg_lower_incomplete_gamma", "a", a, above=0.0)
    arr = check_real_array("reg_lower_incomplete_gamma", "x", x, least=0.0, most=math.inf)
    out = sp.gammainc(a, arr)
    return float(out) if arr.ndim == 0 else out


def log_unit_ball_volume(n: int) -> float:
    """log of the n-dimensional unit-ball volume pi^(n/2) / Gamma(1 + n/2)."""
    n = check_integer("log_unit_ball_volume", "n", n, 1)
    return (n / 2.0) * math.log(math.pi) - math.lgamma(1.0 + n / 2.0)


def log_unit_sphere_area(n: int) -> float:
    """log of the surface area of the unit sphere in R^n (= n * ball volume)."""
    n = check_integer("log_unit_sphere_area", "n", n, 1)
    return math.log(n) + log_unit_ball_volume(n)
