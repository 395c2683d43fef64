import math

import numpy as np
import pytest
from scipy.integrate import quad

from pdvol.errors import DomainError
from pdvol.exactlaw import (
    CgfDomain,
    ModelParams,
    cgf,
    log_angular_simplex_moment,
    log_typical_cell_constant,
    log_volume_moment,
    radius_cdf,
    sphere_representation_gap,
    typical_volume_moment,
    volume_moment,
    weighted_intensity_ratio,
)
from pdvol.specfun import log_unit_ball_volume

RNG = np.random.default_rng(90125)


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
    dom = CgfDomain.for_params(p)
    assert dom.lower == -1.0 and not dom.contains(-1.0) and dom.contains(-0.9)
    assert CgfDomain.for_params(p, extended=True).lower == -2.0


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
