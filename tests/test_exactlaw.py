import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincinv, gammaln, loggamma

from pdvol.errors import DomainError
from pdvol.exactlaw import (
    ModelParams,
    _row_sum,
    cgf,
    log_angular_simplex_moment,
    log_typical_cell_constant,
    log_volume_moment,
    radius_cdf,
    sphere_representation_gap,
    strip_edge,
    typical_volume_moment,
    volume_moment,
    weighted_intensity_ratio,
)
from pdvol.specfun import log_unit_ball_volume

RNG = np.random.default_rng(90125)
EPS = np.finfo(float).eps


def direct_row(n, mu, a):
    """O(n) oracle of the row sum_{i<=n} [log Gamma((i+mu)/2+1+a) - log Gamma((i+mu)/2+1)],
    with the sum of the magnitudes of its terms: each term is good to a few
    ulps of itself, so that sum bounds the oracle's own rounding."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))[:, None]
    x = (np.arange(1, n + 1) + mu) / 2.0 + 1.0
    hi, lo = loggamma(x + a), loggamma(x + 0j)
    return np.sum(hi - lo, axis=1), np.sum(np.abs(hi) + np.abs(lo), axis=1)


def direct_log_moment(params, z):
    """O(n) oracle of log E V^z: the moment formula as a plain sum of
    log-gamma differences, with the magnitude sum of its terms."""
    n, mu, gam = params.n, params.mu, params.gamma
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x = np.array([(n + 1) * (n + mu) / 2.0 + 1.0, n * (n + mu + 1.0) / 2.0, n + mu + 1.0, (n + mu) / 2.0 + 1.0])
    h = z[:, None] * np.array([(n + 1) / 2.0, n / 2.0, 1.0, 0.5])
    hi, lo = loggamma(x + h), loggamma(x + 0j)
    weight = np.array([1.0, -1.0, 1.0, -(n + 1.0)])
    linear = z * (gammaln(n / 2.0 + 1.0) - math.log(gam) - (n / 2.0) * math.log(math.pi) - gammaln(n + 1.0))
    row, row_scale = direct_row(n, mu, z / 2.0)
    value = (hi - lo) @ weight + linear + row
    scale = (np.abs(hi) + np.abs(lo)) @ np.abs(weight) + np.abs(linear) + row_scale
    return value, scale


def row_mpmath(n, mu, a, head=200, dps=25):
    """The row sum in mpmath: the first terms of each parity run summed,
    the rest by Euler-Maclaurin (quadrature and endpoint derivatives), which
    shares nothing with the Barnes G route."""
    with mp.workdps(dps):
        a, total = mp.mpmathify(a), mp.mpf(0)
        for b, k in ((mp.mpf(mu) / 2 + 2, n // 2), ((mp.mpf(mu) + 3) / 2, (n + 1) // 2)):
            def term(j, b=b):
                return mp.loggamma(b + a + j) - mp.loggamma(b + j)
            total += mp.fsum(term(j) for j in range(min(head, k)))
            if k > head:
                total += mp.sumem(term, [head, k - 1])
        return complex(total)


def test_model_params_validation():
    ModelParams(2, -1.9, 0.1)
    bad = [(1, -1.0, 1.0), (2, -2.0, 1.0), (2, -1.0, 0.0), (math.inf, -1.0, 1.0), (math.nan, -1.0, 1.0),
           (3, math.inf, 1.0), (3, math.nan, 1.0), (3, -1.0, math.inf), (3, -1.0, math.nan)]
    for args in bad:
        with pytest.raises(DomainError):
            ModelParams(*args)


def test_angular_moment_normalization():
    for n in (2, 3, 5, 11):
        assert log_angular_simplex_moment(n, 0.0) == pytest.approx(0.0, abs=1e-11)


def test_angular_moment_classical_values():
    # mean and second moment of the area of a random inscribed triangle
    assert math.exp(log_angular_simplex_moment(2, 1.0)) == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-13)
    assert math.exp(log_angular_simplex_moment(2, 2.0)) == pytest.approx(3.0 / 8.0, rel=1e-13)


def test_angular_moment_monte_carlo_oracle():
    # brute-force MC of the defining integral: triangle area of three uniform
    # points on the unit circle
    rng = np.random.default_rng(555)
    th = rng.uniform(0.0, 2.0 * math.pi, size=(10**6, 3))
    x, y = np.cos(th), np.sin(th)
    area = 0.5 * np.abs((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    se = area.std() / 1000.0
    assert math.exp(log_angular_simplex_moment(2, 1.0)) == pytest.approx(area.mean(), abs=3.0 * se)


def test_typical_cell_constant():
    # hand-reduced value at n = 2: Gamma(2) = 1, Gamma(5/2) = 3 sqrt(pi)/4,
    # Gamma(3/2) = sqrt(pi)/2 give exactly 1/6
    assert log_typical_cell_constant(2) == pytest.approx(math.log(1.0 / 6.0), rel=1e-13)


def test_normalization_identity():
    # E V^0 = 1 forces constant * angular(1) * Gamma(n) / (n kappa_n^n) = 1
    for n in (2, 3, 7):
        assert typical_volume_moment(n, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_typical_route_values():
    assert typical_volume_moment(2, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert typical_volume_moment(2, 2.0, 1.0) == pytest.approx(0.25, rel=1e-12)


def test_typical_route_matches_weighted_formula():
    for n in range(2, 21):
        for s in (0.5, 1.0, 2.0, 3.7):
            lhs = typical_volume_moment(n, 1.0, s)
            rhs = volume_moment(ModelParams(n, -1.0, 1.0), s)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_moment_normalization_grid():
    for n in (2, 17, 80, 200):
        for mu in (-1.9, -1.0, 0.0, 1.0, 10.0):
            for gamma in (0.1, 1.0, 10.0):
                assert abs(log_volume_moment(ModelParams(n, mu, gamma), 0.0)) < 1e-10


def test_moment_values_and_scaling():
    assert volume_moment(ModelParams(2, -1.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-12)
    assert volume_moment(ModelParams(2, -1.0, 2.0), 1.0) == pytest.approx(0.25, rel=1e-12)
    # gamma^s * moment independent of gamma
    for n, mu, s in [(3, 0.0, 1.3), (10, -1.5, 0.7), (50, 2.0, 2.0)]:
        vals = [volume_moment(ModelParams(n, mu, g), s) * g**s for g in (0.1, 1.0, 10.0)]
        assert (max(vals) - min(vals)) / max(vals) < 1e-12


def test_moment_domain_error():
    with pytest.raises(DomainError):
        volume_moment(ModelParams(2, -1.0, 1.0), -1.0)
    with pytest.raises(DomainError):
        volume_moment(ModelParams(2, 0.5, 1.0), -2.5)


def test_log_moment_convexity():
    # any cumulant generating function is convex
    for n, mu in [(2, -1.0), (5, 0.0), (40, -1.9), (120, 1.0)]:
        p = ModelParams(n, mu, 1.0)
        s = np.linspace(-(mu + 2.0) + 0.05, 4.0, 60)
        vals = np.array([log_volume_moment(p, float(t)) for t in s])
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-8)


def test_cgf_basics():
    p = ModelParams(2, -1.0, 1.0)
    assert cgf(p, 0.0) == 0.0
    assert cgf(p, 1.0) == pytest.approx(math.log(0.5), rel=1e-12)
    assert abs(np.exp(cgf(p, 1j))) <= 1.0
    for s in (0.3, 1.7, 3.2):
        assert complex(cgf(p, complex(s, 0.0))).real == pytest.approx(log_volume_moment(p, s), rel=1e-9)
        assert abs(complex(cgf(p, complex(s, 0.0))).imag) < 1e-12


def test_cgf_strip_validation():
    p = ModelParams(2, -1.0, 1.0)
    with pytest.raises(DomainError, match="strip"):
        cgf(p, -1.0)
    # the continuation strip admits it
    assert np.isfinite(cgf(p, -1.0, extended=True))
    with pytest.raises(DomainError):
        cgf(p, -2.0, extended=True)
    assert strip_edge(p) == -1.0 and np.isfinite(cgf(p, -0.9))
    # n = 2: the extended strip ends at the pole of Gamma((n+1)(n+mu+z)/2 + 1)
    assert strip_edge(p, extended=True) == pytest.approx(-5.0 / 3.0, abs=1e-15)
    for z in (-5.0 / 3.0, -5.0 / 3.0 + 0.0j, -1.9):
        with pytest.raises(DomainError):
            cgf(p, z, extended=True)
    # for n >= 3 the i = 1 factor's pole -(mu+3) comes first
    assert strip_edge(ModelParams(3, -1.0, 1.0), extended=True) == -2.0


def test_radius_cdf_closed_form():
    p = ModelParams(2, -1.0, 1.0)
    assert radius_cdf(p, 0.0) == 0.0
    t = np.linspace(0.0, 3.0, 50)
    # shape parameter n+mu+1 = 2: integer-shape closed form
    expect = 1.0 - np.exp(-math.pi * t**2) * (1.0 + math.pi * t**2)
    assert np.allclose(radius_cdf(p, t), expect, atol=1e-13)
    assert radius_cdf(p, 50.0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(radius_cdf(p, t)) >= 0.0)
    with pytest.raises(DomainError):
        radius_cdf(p, -0.1)


def _median_radius(p):
    # P(n+mu+1, gamma kappa_n t^n) = 1/2, solved for t in log space
    x = gammaincinv(p.n + p.mu + 1.0, 0.5)
    return math.exp((math.log(x) - math.log(p.gamma) - log_unit_ball_volume(p.n)) / p.n)


@pytest.mark.parametrize("n", [435, 450, 600, 1200])
def test_radius_cdf_median_at_large_n(n):
    # t^n overflows at the median from n = 435 and kappa_n is subnormal from
    # n = 436 (0.0 later); the CDF must still read 1/2 there, without warnings
    p = ModelParams(n, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert radius_cdf(p, _median_radius(p)) == pytest.approx(0.5, abs=1e-9)


def test_radius_cdf_product_form_kept_at_small_n():
    # where t^n and kappa_n are normal floats the argument is the plain
    # product gamma kappa_n t^n, bit for bit
    rng = np.random.default_rng(436)
    for n in (2, 3, 10, 50, 200):
        kappa = math.exp(log_unit_ball_volume(n))
        for mu in (-1.0, 0.5, 7.0):
            for gamma in (0.5, 1.0, 3.0):
                p = ModelParams(n, mu, gamma)
                t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 24)), rng.uniform(3.0, 30.0, 8)])
                old = gammainc(n + mu + 1.0, gamma * kappa * t**n)
                assert np.array_equal(radius_cdf(p, t), old)
                assert radius_cdf(p, float(t[5])) == float(old[5])


def test_radius_cdf_quadrature_oracle():
    # direct adaptive quadrature of the defining density
    for _ in range(20):
        n = int(RNG.integers(2, 7))
        mu = float(RNG.uniform(-1.8, 3.0))
        gamma = float(RNG.uniform(0.3, 3.0))
        p = ModelParams(n, mu, gamma)
        kappa = math.exp(log_unit_ball_volume(n))
        lnorm = (
            math.log(n)
            + (n + mu + 1.0) * math.log(gamma * kappa)
            - math.lgamma(n + mu + 1.0)
        )

        def integrand(r):
            return math.exp(lnorm - gamma * kappa * r**n + (n * n - 1.0 + n * (mu + 1.0)) * math.log(r))

        t = float(RNG.uniform(0.05, 1.5)) / gamma ** (1.0 / n)
        val, err = quad(integrand, 0.0, t, limit=200)
        assert radius_cdf(p, t) == pytest.approx(val, abs=max(1e-8, 10 * err))


def test_weighted_intensity_ratio():
    assert weighted_intensity_ratio(ModelParams(2, -1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    assert weighted_intensity_ratio(ModelParams(2, 0.0, 1.0)) == pytest.approx(0.5, rel=1e-12)
    assert weighted_intensity_ratio(ModelParams(2, 0.0, 2.0)) == pytest.approx(0.25, rel=1e-12)


def test_sphere_representation_identity():
    for n in (2, 3, 5):
        for mu in (-1, 0, 1, 2):
            for s in (0.5, 1.0, 2.0):
                assert sphere_representation_gap(n, mu, s) < 1e-9
    # both sides approach the zeroth moment as s -> 0
    assert sphere_representation_gap(2, -1, 1e-9) < 1e-9
    with pytest.raises(DomainError):
        sphere_representation_gap(2, -0.5, 1.0)


def test_cgf_matches_direct_sum_oracle():
    # within 1e-12 relative, plus the oracle's own rounding, which
    # dominates only where the terms cancel to a small value
    for n in (2, 3, 4, 5, 31, 32, 33, 34, 35, 200, 1001):
        for mu in (-1.9, -1.0, 0.0, 1.0, 10.0, 100.0):
            p = ModelParams(n, mu, 0.7)
            edge = strip_edge(p, extended=True)
            re = np.array([edge + 0.01, -(mu + 2.0) + 0.05, 0.3, 2.5])
            z = (re[:, None] + 1j * np.array([0.0, 0.7, -3.0, 25.0])).ravel()
            got = cgf(p, z, extended=True)
            value, scale = direct_log_moment(p, z)
            assert np.all(np.abs(got - value) <= 1e-12 * np.abs(value) + 4.0 * EPS * scale), (n, mu)
            row, row_scale = direct_row(n, mu, z / 2.0)
            assert np.all(np.abs(_row_sum(n, mu, z / 2.0) - row) <= 1e-12 * np.abs(row) + 4.0 * EPS * row_scale)


@pytest.mark.parametrize("n, mu", [(10**5, -1.0), (10**6, 0.0)])
def test_row_sum_matches_mpmath_at_large_n(n, mu):
    # the O(n) double sum drifts here (7.9e-12 relative at n = 1e6, a = 0.65);
    # the Euler-Maclaurin sum in mpmath does not
    for a in (1.25j, (-(mu + 3.0) + 0.05 + 0.4j) / 2.0, 0.65):
        ref = row_mpmath(n, mu, a)
        got = complex(_row_sum(n, mu, np.array([complex(a)]))[0])
        assert abs(got - ref) <= 1e-14 * abs(ref)


def test_cgf_memory_bounded_at_large_n():
    # the O(n) assembly built a (points x n) matrix: about 32 GB here
    p = ModelParams(10**6, 0.0)
    t = 1j * np.linspace(0.0, 12.0, 2048)
    tracemalloc.start()
    try:
        L = cgf(p, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert L[0] == 0.0 and np.all(np.isfinite(L))


def _point(params, u, im):
    # u in [0, 1] spans the default strip (-(mu+2), 3]
    return complex(-(params.mu + 2.0) + 0.01 + u * (params.mu + 4.99), im)


model_params = st.builds(ModelParams, n=st.integers(2, 300), mu=st.floats(-1.95, 50.0),
                         gamma=st.floats(0.1, 10.0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=model_params, u=st.floats(0.0, 1.0), im=st.floats(-30.0, 30.0))
def test_cgf_properties(params, u, im):
    z = _point(params, u, im)
    assert cgf(params, 0.0) == 0.0 and cgf(params, 0j) == 0.0
    L, Lbar = cgf(params, z), cgf(params, z.conjugate())
    assert abs(Lbar - L.conjugate()) <= 1e-13 * (1.0 + abs(L))
    assert cgf(params, 1j * im).real <= 1e-12  # |phi(t)| <= 1
    a = np.array([z / 2.0])
    row, row_scale = direct_row(params.n, params.mu, a)
    assert abs(_row_sum(params.n, params.mu, a)[0] - row[0]) <= 1e-12 * abs(row[0]) + 4.0 * EPS * row_scale[0]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=model_params, u=st.floats(0.0, 1.0))
def test_moment_scales_as_gamma_power(params, u):
    # E V^s = gamma^(-s) E V^s|_(gamma=1): 1e-12 relative on the moment, or on
    # its logarithm where that exceeds 1 (the log carries rounding of its size)
    s = strip_edge(params) + 0.01 + u * (params.mu + 12.0)
    unit = log_volume_moment(ModelParams(params.n, params.mu, 1.0), s)
    scaled = log_volume_moment(params, s) + s * math.log(params.gamma)
    assert abs(scaled - unit) <= 1e-12 * max(1.0, abs(unit))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=model_params, u=st.floats(0.0, 1.0), h=st.floats(1e-3, 1.0))
def test_log_moment_convex_in_strip(params, u, h):
    s = strip_edge(params) + 0.01 + h + u * (params.mu + 12.0)
    f = [log_volume_moment(params, s + k * h) for k in (-1, 0, 1)]
    assert f[0] - 2.0 * f[1] + f[2] >= -1e-13 * (1.0 + sum(abs(v) for v in f))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=model_params, t=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=40))
def test_radius_cdf_monotone_in_unit_interval(params, t):
    F = radius_cdf(params, np.sort(t))
    assert np.all(np.diff(F) >= 0.0) and F[0] >= 0.0 and F[-1] <= 1.0


_P3 = ModelParams(3, 0.0, 1.0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (cgf, (_P3, math.inf)),
        (cgf, (_P3, complex(math.inf, 0.0))),
        (cgf, (_P3, complex(0.0, math.nan))),
        (cgf, (_P3, np.array([0.5j, complex(0.0, math.inf)]))),
        (log_volume_moment, (_P3, math.inf)),
        (log_volume_moment, (_P3, math.nan)),
        (log_angular_simplex_moment, (3, math.inf)),
        (log_angular_simplex_moment, (math.inf, 1.0)),
        (log_typical_cell_constant, (math.inf,)),
        (typical_volume_moment, (3, math.inf, 1.0)),
        (sphere_representation_gap, (3, 0, math.inf)),
        (sphere_representation_gap, (3, math.inf, 1.0)),
        (radius_cdf, (_P3, math.nan)),
        (radius_cdf, (_P3, np.array([0.5, math.nan]))),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_non_finite_input_refused(fn, args):
    with pytest.raises(DomainError):
        fn(*args)
    assert radius_cdf(_P3, math.inf) == 1.0
