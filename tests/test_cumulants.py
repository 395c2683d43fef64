import math

import numpy as np
import pytest
from scipy.special import digamma, gammaln, polygamma

from pdvol.cumulants import (
    RegimeSpec,
    concentration_envelope,
    cumulant_bound,
    cumulant_exact,
    cumulant_fd_oracle,
    cumulant_report,
    deviation_scale,
    mean_expansion,
    regime_expansion,
    variance_expansion,
)
from pdvol.errors import DomainError
from pdvol.exactlaw import ModelParams
from pdvol.sampling import RngStream, sample_volume


def direct_cumulant(params, m):
    """O(n) oracle: the closed polygamma form with its row summed term by
    term, and the sum of the magnitudes of its terms (its rounding scale)."""
    n, mu, gam = params.n, params.mu, params.gamma
    pg = digamma if m == 1 else (lambda x: polygamma(m - 1, x))
    terms = [
        pg(n + mu),
        ((n + 1) / 2.0) ** m * pg((n + 1) * (n + mu) / 2.0),
        -((n / 2.0) ** m) * pg(n * (n + mu + 1.0) / 2.0),
        -(n + 1) / 2.0**m * pg((n + mu) / 2.0),
        -(n - 1.0) * (-1.0) ** (m - 1) * math.factorial(m - 1) / (n + mu) ** m,
    ]
    if m == 1:
        terms.append(gammaln(n / 2.0 + 1.0) - math.log(gam) - (n / 2.0) * math.log(math.pi) - gammaln(n + 1.0))
    row = pg((np.arange(1, n + 1) + mu + 2.0) / 2.0) / 2.0**m
    return math.fsum(terms) + float(np.sum(row)), sum(abs(t) for t in terms) + float(np.sum(np.abs(row)))


def test_closed_form_matches_fd_oracle():
    for n in (2, 5, 20, 50):
        for mu in (-1.5, -1.0, 0.0, 2.0):
            for gamma in (0.5, 1.0):
                p = ModelParams(n, mu, gamma)
                for m in (1, 2, 3, 4):
                    exact = cumulant_exact(p, m)
                    oracle = cumulant_fd_oracle(p, m)
                    assert abs(exact - oracle) <= 1e-6 * max(1.0, abs(exact))


def test_closed_row_matches_direct_polygamma_sum():
    # within 1e-12 of the terms' magnitude: near mu = -2 the orders m >= 5
    # cancel terms of ~1e10 down to ~1e2, where neither form keeps 1e-12 of c_m
    for n in (2, 3, 4, 5, 6, 7, 31, 32, 33, 100, 101, 1000, 1001, 9999, 10**4):
        for mu in (-1.9, -1.0, 0.0, 1.0, 10.0, 100.0):
            p = ModelParams(n, mu, 0.5)
            for m in range(1, 7):
                value, scale = direct_cumulant(p, m)
                assert abs(cumulant_exact(p, m) - value) <= 1e-12 * scale, (n, mu, m)


def test_mean_matches_monte_carlo():
    p = ModelParams(2, -1.0, 1.0)
    v = sample_volume(p, RngStream(stream_id=7).generator(), 10**6)
    y = np.log(v)
    se = y.std() / math.sqrt(len(y))
    assert cumulant_exact(p, 1) == pytest.approx(y.mean(), abs=3.0 * se)
    assert cumulant_exact(p, 2) == pytest.approx(y.var(), rel=0.05)


def test_gamma_dependence():
    # only the mean feels the intensity, and exactly through -log gamma
    for m in (2, 3, 4):
        a = cumulant_exact(ModelParams(7, 0.5, 1.0), m)
        b = cumulant_exact(ModelParams(7, 0.5, 5.0), m)
        assert a == b
    c1a = cumulant_exact(ModelParams(7, 0.5, 1.0), 1)
    c1b = cumulant_exact(ModelParams(7, 0.5, 5.0), 1)
    assert c1b - c1a == pytest.approx(-math.log(5.0), rel=1e-12)


def test_variance_positive_on_grid():
    for n in (2, 10, 100):
        for mu in (-1.5, -1.0, 0.0, 2.0):
            assert cumulant_exact(ModelParams(n, mu, 1.0), 2) > 0.0


def test_regime_variance_ratio_monotone():
    # c_2 / (log(n)/2) climbs monotonically toward 1 (the O(1) offset is
    # about -0.33, so the 5% band is reached between n = 1e5 and 1e6)
    ratios = [
        cumulant_exact(ModelParams(n, -1.0, 1.0), 2) / (0.5 * math.log(n))
        for n in (10**2, 10**3, 10**4, 10**5, 10**6)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1.0 for r in ratios)
    assert abs(ratios[-1] - 1.0) < 0.05


def test_variance_leading_order():
    c2 = cumulant_exact(ModelParams(100, -1.0, 1.0), 2)
    assert abs(c2 - 0.5 * math.log(99.0)) < 5.0


def test_cumulant_bound_holds():
    for n in (2, 5, 20, 80, 200):
        for mu in (-1.0, 0.0, 5.0):
            p = ModelParams(n, mu, 1.0)
            for m in range(3, 9):
                assert abs(cumulant_exact(p, m)) <= cumulant_bound(p, m)


def test_cumulant_bound_value_and_domain():
    p = ModelParams(10, -1.0, 1.0)
    expect = 34.0 / (2.0 * 81.0) + 23.0 * 2.0 / 729.0 + 4.0 * 2.0 / 2.0
    assert cumulant_bound(p, 3) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        cumulant_bound(p, 2)


def test_fd_oracle_domain():
    p = ModelParams(5, -1.0, 1.0)
    with pytest.raises(DomainError):
        cumulant_fd_oracle(p, 0)
    with pytest.raises(DomainError):
        cumulant_fd_oracle(p, 7)


def test_cumulant_report():
    rep = cumulant_report(ModelParams(10, 0.0, 1.0), max_order=3)
    assert [row[0] for row in rep.orders] == [1, 2, 3]
    assert all(row[3] <= 1e-6 * max(1.0, abs(row[1])) for row in rep.orders)


def test_mean_expansion_bounded_delta():
    deltas = [
        abs(cumulant_exact(ModelParams(n, -1.0, 1.0), 1) - mean_expansion(ModelParams(n, -1.0, 1.0)))
        for n in (100, 1000, 10000)
    ]
    assert max(deltas) < 1.0
    assert deltas[-1] < deltas[0]


def test_variance_expansion_documented_gap():
    # the expansion misses a Theta(n/(n+mu)^2) term with
    # coefficient about -3/4; pin the measured coefficient
    for n in (1000, 10000):
        p = ModelParams(n, -1.0, 1.0)
        coef = (cumulant_exact(p, 2) - variance_expansion(p)) * (n - 1.0) ** 2 / n
        assert coef == pytest.approx(-0.75, abs=0.01)


def test_expansions_finite_smoke():
    p = ModelParams(2, 0.0, 1.0)
    assert np.isfinite(mean_expansion(p)) and np.isfinite(variance_expansion(p))


def test_regime_spec_validation():
    RegimeSpec("fixed_mu")
    RegimeSpec("mu_linear", 2.0)
    with pytest.raises(DomainError):
        RegimeSpec("unknown")
    with pytest.raises(DomainError):
        RegimeSpec("mu_power")
    with pytest.raises(DomainError):
        RegimeSpec("mu_power", 1.5)
    with pytest.raises(DomainError):
        RegimeSpec("fixed_mu", 0.5)


def test_regime_predictions():
    # slope-1 weight: variance settles at log 2 / 2 - 1/4
    tgt = 0.5 * math.log(2.0) - 0.25
    assert regime_expansion(RegimeSpec("mu_linear", 1.0), 10**4)[1] == pytest.approx(tgt, rel=1e-14)
    vals = [cumulant_exact(ModelParams(n, float(n), 1.0), 2) for n in (100, 1000, 10000)]
    gaps = [abs(v - tgt) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0] and gaps[2] / tgt < 0.02
    # nearly equal weight: same constant
    p = ModelParams(10**4, float(10**4 - 100), 1.0)
    assert cumulant_exact(p, 2) == pytest.approx(tgt, rel=0.02)
    assert regime_expansion(RegimeSpec("near_equal_weight"), 100)[1] == pytest.approx(tgt)
    # variance leading term for the power regime
    assert regime_expansion(RegimeSpec("mu_power", 0.5), 100)[1] == pytest.approx(0.25 * math.log(100.0))
    # fixed dimension, diverging weight: stated prediction is 3/(4 mu)
    assert regime_expansion(RegimeSpec("fixed_n"), 1e4)[1] == pytest.approx(3.0 / (4.0 * 1e4))
    mean, var = regime_expansion(RegimeSpec("n_power", 0.75), 1e4)
    assert var == pytest.approx(1.0 / (4.0 * 1e4**0.5))
    assert np.isfinite(mean)


def test_fixed_n_measured_limit():
    # the exact variance settles at 1/mu, not the stated 3/(4 mu)
    for n, mu in [(3, 1e4), (5, 1e4), (3, 1e5)]:
        v = cumulant_exact(ModelParams(n, mu, 1.0), 2)
        assert v * mu == pytest.approx(1.0, abs=0.01)


def test_deviation_scale():
    assert deviation_scale(RegimeSpec("fixed_mu"), 55) == pytest.approx(math.sqrt(math.log(55)))
    assert deviation_scale(RegimeSpec("mu_power", 0.5), 100) == pytest.approx(10.0 * math.sqrt(math.log(100.0)))
    assert deviation_scale(RegimeSpec("mu_linear", 2.0), 50) == 50.0
    assert deviation_scale(RegimeSpec("near_equal_weight"), 50) == 50.0
    with pytest.raises(DomainError):
        deviation_scale(RegimeSpec("fixed_n"), 50)


def test_concentration_envelope():
    assert concentration_envelope(0.0, 1.0, 10.0) == 2.0
    assert concentration_envelope(2.0, 1e-9, 10.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-6)
    assert concentration_envelope(3.0, 1.0, 10.0) == pytest.approx(2.0 * math.exp(-9.0 / 2.3), rel=1e-12)
    y = np.linspace(0.0, 5.0, 40)
    vals = [concentration_envelope(float(t), 1.0, 10.0) for t in y]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError):
            concentration_envelope(bad, 1.0, 1.0)
