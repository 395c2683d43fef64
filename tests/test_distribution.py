import math

import numpy as np
import pytest

from pdvol.cumulants import cumulant_exact, deviation_scale, RegimeSpec
from pdvol.distribution import (
    _GRID_POINTS,
    _X_RANGE,
    LDP_CENTERING,
    MODPHI_CENTERING,
    StandardizedLaw,
    cdf_inverted,
    centering,
    char_fn,
    fit_envelope_coefficient,
    kolmogorov_distance_to_normal,
    ldp_scaled_cgf,
    mod_gaussian_limit,
    mod_gaussian_residual,
    mod_gaussian_speed,
    standardized_cdf,
    two_sided_tail,
)
from pdvol.errors import DomainError
from pdvol.exactlaw import ModelParams, cgf
from pdvol.sampling import RngStream, sample_volume

RNG = np.random.default_rng(1234)
P2 = ModelParams(2, -1.0, 1.0)


def test_char_fn_basics():
    assert char_fn(P2, 0.0) == pytest.approx(1.0)
    t = RNG.uniform(-30.0, 30.0, size=1000)
    phi = char_fn(P2, t)
    assert np.all(np.abs(phi) <= 1.0 + 1e-12)
    assert np.allclose(char_fn(P2, -t), np.conj(phi), rtol=1e-12, atol=1e-12)


def test_char_fn_monte_carlo_oracle():
    v = sample_volume(P2, RngStream(stream_id=3).generator(), 10**6)
    y = np.log(v)
    for t in (0.5, 1.0, 2.0):
        emp = np.exp(1j * t * y)
        se = emp.std() / math.sqrt(len(y))
        assert abs(char_fn(P2, t) - emp.mean()) < 3.0 * se


def test_standardization_is_exact():
    law = StandardizedLaw.from_params(P2)
    h = 1e-4

    def std_cgf(s):
        return float(cgf(P2, s / law.sd)) - s * law.mean / law.sd

    slope = (std_cgf(h) - std_cgf(-h)) / (2.0 * h)
    curv = (std_cgf(h) - 2.0 * std_cgf(0.0) + std_cgf(-h)) / h**2
    assert abs(slope) < 1e-8
    assert abs(curv - 1.0) < 1e-6


def test_cdf_monotone_and_edges():
    ys = np.linspace(-8.0, 8.0, 801)
    F = standardized_cdf(P2, ys)
    assert np.all(np.diff(F) >= -2e-6)
    assert F[0] < 1e-4 and F[-1] > 1.0 - 1e-4
    # a non-finite point is refused up front, not after every panel doubling
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            standardized_cdf(P2, np.array([0.0, bad]))
        with pytest.raises(DomainError):
            cdf_inverted(P2, bad)
        with pytest.raises(DomainError):
            two_sided_tail(P2, bad)


def test_cdf_against_empirical():
    v = sample_volume(P2, RngStream(stream_id=11).generator(), 2 * 10**5)
    y = np.sort(np.log(v))
    xs = np.array([-4.0, -2.5, -1.2, -0.5, 0.0, 0.5])
    F = cdf_inverted(P2, xs)
    emp = np.searchsorted(y, xs) / len(y)
    assert np.max(np.abs(F - emp)) < 3.0 * 0.5 / math.sqrt(len(y))


def test_cdf_median_location():
    c1 = cumulant_exact(P2, 1)
    assert 0.3 < float(cdf_inverted(P2, c1)) < 0.7


def test_kolmogorov_distance_decreases():
    for mu in (-1.0, 0.0):
        d10 = kolmogorov_distance_to_normal(ModelParams(10, mu, 1.0))
        d100 = kolmogorov_distance_to_normal(ModelParams(100, mu, 1.0))
        assert 0.0 < d100 < d10 < 1.0


def test_kolmogorov_distance_linear_weight_regime():
    # with weight mu = n the deviation scale is n itself: d_n * n stays bounded
    prods = [n * kolmogorov_distance_to_normal(ModelParams(n, float(n), 1.0)) for n in (10, 20, 40)]
    assert max(prods) / min(prods) < 2.0


@pytest.mark.parametrize("n", [10, 1000])
def test_kolmogorov_distance_bitwise_equal_to_norm_cdf(n):
    # the distance compares against scipy.special.ndtr; scipy.stats.norm.cdf
    # must give the identical float, so the swap moves no reported distance
    from scipy.stats import norm

    p = ModelParams(n, -1.0, 1.0)
    ys = np.linspace(_X_RANGE[0], _X_RANGE[1], _GRID_POINTS)
    assert kolmogorov_distance_to_normal(p) == float(np.max(np.abs(standardized_cdf(p, ys) - norm.cdf(ys))))


def test_centering_values():
    # arithmetic of the two centering formulas at n=2, mu=-1, gamma=1
    ldp = -math.log(2.0) - (math.log(math.pi) + 1.0) + 1.75 * math.log(2.0)
    assert centering(LDP_CENTERING, P2) == pytest.approx(ldp, rel=1e-12)
    modphi = math.log(2.0 / math.sqrt(math.pi)) - 1.0
    assert centering(MODPHI_CENTERING, P2) == pytest.approx(modphi, rel=1e-12)


def test_centering_gap_grows_linearly():
    # the two sequences separate at rate (1 - log 2)/2 per unit dimension
    n = 10**4
    p = ModelParams(n, -1.0, 1.0)
    gap = centering(MODPHI_CENTERING, p) - centering(LDP_CENTERING, p)
    assert gap == pytest.approx(n / 2.0 * (1.0 - math.log(2.0)), abs=1.0)


def test_ldp_scaled_cgf():
    assert ldp_scaled_cgf(ModelParams(100, -1.0, 1.0), 0.0, MODPHI_CENTERING) == 0.0
    with pytest.raises(DomainError):
        ldp_scaled_cgf(P2, 1.0, MODPHI_CENTERING)
    # the Stirling-form centering converges toward t^2/2, the other diverges
    gaps = []
    ldpv = []
    for n in (100, 1000, 10000):
        p = ModelParams(n, -1.0, 1.0)
        gaps.append(abs(ldp_scaled_cgf(p, 1.0, MODPHI_CENTERING) - 0.5))
        ldpv.append(ldp_scaled_cgf(p, 1.0, LDP_CENTERING))
    assert gaps[2] < gaps[1] < gaps[0]
    assert ldpv[2] > ldpv[1] > ldpv[0] > 1.0


def test_mod_gaussian_limit_values():
    assert mod_gaussian_limit(-1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert mod_gaussian_limit(-1.0, 2.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-11)
    assert mod_gaussian_limit(0.0, 2.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-11)
    with pytest.raises(DomainError):
        mod_gaussian_limit(-1.0, -2.0)


def test_mod_gaussian_residual_decays():
    assert mod_gaussian_residual(P2, 0.0) == pytest.approx(0.0, abs=1e-12)
    for mu in (-1.0, 0.0):
        for z in (-1.0, 0.5, 1.0):
            vals = [mod_gaussian_residual(ModelParams(n, mu, 1.0), z) * n for n in (100, 1000)]
            assert max(vals) / min(vals) < 1.5
            # the unadjusted residual tends to the constant |psi| |1 - e^{-z^2/4}|
            stated = mod_gaussian_residual(ModelParams(1000, mu, 1.0), z, adjusted=False)
            expect = mod_gaussian_limit(mu, z) * abs(1.0 - math.exp(-z * z / 4.0))
            assert stated == pytest.approx(expect, rel=0.05)
    # deeper into the continuation strip
    vals = [mod_gaussian_residual(ModelParams(n, 0.0, 1.0), -1.5) for n in (100, 1000)]
    assert vals[1] < 0.2 * vals[0]


def test_speed_value():
    assert mod_gaussian_speed(200) == pytest.approx(0.5 * math.log(100.0))


def test_envelope_fit_and_tails():
    p = ModelParams(1000, -1.0, 1.0)
    ys = [0.5, 1.0, 2.0, 3.0]
    tails = [two_sided_tail(p, y) for y in ys]
    assert all(0.0 <= t <= 2.0 for t in tails)
    assert all(a > b for a, b in zip(tails, tails[1:]))
    eps = deviation_scale(RegimeSpec("fixed_mu"), 1000)
    c = fit_envelope_coefficient(tails, ys, eps)
    assert np.isfinite(c)
    from pdvol.cumulants import concentration_envelope

    assert all(t <= concentration_envelope(y, c, eps) for t, y in zip(tails, ys))
    with pytest.raises(DomainError):
        two_sided_tail(p, -1.0)
