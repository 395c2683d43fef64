import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma, gammaln, polygamma

import pdvol.cumulants as cumulants
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
from pdvol.exactlaw import STRIP_GUARD, ModelParams, cgf, strip_edge
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


def _row_mpmath(b, k, q):
    """sum_{j<k} psi^(q)(b+j): term by term up to 64 terms, beyond as
    U(b+k) - U(b) with U(y+1) - U(y) = psi^(q)(y),
    U(y) = (y-1) psi^(q)(y) + q psi^(q-1)(y), or (y-1) psi(y) - y at q = 0."""
    if k <= 64:
        return mp.fsum(mp.psi(q, b + j) for j in range(k))

    def u(y):
        return (y - 1) * mp.psi(q, y) + (q * mp.psi(q - 1, y) if q else -y)

    return u(b + k) - u(b)


def cumulant_mpmath(n, mu, m):
    """c_m at gamma = 1 in 40 digits: the m-th derivative at 0 of the moment
    formula's four gamma ratios, its row sum_{i<=n} log Gamma((i+mu)/2 + 1 + z/2)
    and, at m = 1, its linear part."""
    with mp.workdps(40):
        n_, mu_, q = mp.mpf(n), mp.mpf(mu), m - 1
        ratios = (
            ((n_ + 1) * (n_ + mu_) / 2 + 1, (n_ + 1) / 2, 1),
            (n_ * (n_ + mu_ + 1) / 2, n_ / 2, -1),
            (n_ + mu_ + 1, 1, 1),
            ((n_ + mu_) / 2 + 1, mp.mpf(1) / 2, -(n_ + 1)),
        )
        value = mp.fsum(w * c**m * mp.psi(q, x) for x, c, w in ratios)
        value += (_row_mpmath(mu_ / 2 + 2, n // 2, q) + _row_mpmath((mu_ + 3) / 2, (n + 1) // 2, q)) / 2**m
        if m == 1:
            value += mp.loggamma(n_ / 2 + 1) - n_ / 2 * mp.log(mp.pi) - mp.loggamma(n_ + 1)
        return value


def test_cumulant_exact_against_mpmath():
    # the rounding floor of the moment formula's own cancellation is about
    # n ulps once mu >> n: 2.5e-12 measured at (1e4, 1e8)
    for n in (2, 7, 22, 23, 24, 50, 10**4):
        for mu in (-1.9, 0.0, 10.0, 1e4, 1e8):
            for m in (1, 2, 4, 6):
                ref = cumulant_mpmath(n, mu, m)
                rel = float(abs((cumulant_exact(ModelParams(n, mu, 1.0), m) - ref) / ref))
                assert rel <= (5e-14 if mu < 100 * n else 1e-11), (n, mu, m, rel)


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
    # the widest |c_m| / bound on this grid is about 0.29, at (n, mu, m) = (1e8, -1.9, 3)
    for n in (2, 3, 10, 200, 10**4, 10**6, 10**8):
        for mu in (-1.9, -1.0, 0.0, 10.0, 1e4, 1e6):
            p = ModelParams(n, mu, 1.0)
            for m in range(3, 9):
                assert abs(cumulant_exact(p, m)) <= cumulant_bound(p, m)


def test_cumulant_bound_value_and_domain():
    p = ModelParams(10, -1.0, 1.0)
    expect = 34.0 / (2.0 * 81.0) + 23.0 * 2.0 / 729.0 + 4.0 * 2.0 / 2.0
    assert cumulant_bound(p, 3) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        cumulant_bound(p, 2)


def per_point_fd_oracle(params, m):
    """The Ridders oracle with one scalar cgf call per stencil point, each
    row summed with math.fsum: the one-call oracle must give its bits."""
    span = -strip_edge(params, extended=True) - STRIP_GUARD
    h0 = min(0.45 * span / (m / 2.0 + 0.5), 0.6)

    def stencil(h):
        vals = [(-1.0) ** k * math.comb(m, k) * cgf(params, (m / 2.0 - k) * h, extended=True) for k in range(m + 1)]
        return math.fsum(vals) / h**m

    tableau = [[stencil(h0 / 1.5**j)] for j in range(8)]
    best, err = tableau[0][0], math.inf
    for col in range(1, 8):
        f = 1.5 ** (2 * col)
        for row in range(8 - col):
            tableau[row].append((f * tableau[row + 1][col - 1] - tableau[row][col - 1]) / (f - 1.0))
        est = abs(tableau[0][col] - tableau[0][col - 1])
        if 8 - col > 1:
            est += abs(tableau[1][col - 1] - tableau[0][col - 1])
        if est < err:
            err, best = est, tableau[0][col]
    return best


def test_fd_oracle_one_call_matches_per_point():
    # the cumulant-oracle claim's grid
    for n in (2, 3, 5, 10, 20, 35, 50):
        for mu in (-1.5, -1.0, 0.0, 2.0):
            for gamma in (0.5, 1.0):
                p = ModelParams(n, mu, gamma)
                for m in (1, 2, 3, 4):
                    assert cumulant_fd_oracle(p, m).hex() == per_point_fd_oracle(p, m).hex()


def test_fd_oracle_domain():
    p = ModelParams(5, -1.0, 1.0)
    with pytest.raises(DomainError):
        cumulant_fd_oracle(p, 0)
    with pytest.raises(DomainError):
        cumulant_fd_oracle(p, 7)


def test_cumulant_report():
    rows = cumulant_report(ModelParams(10, 0.0, 1.0), max_order=3)
    assert [row["m"] for row in rows] == [1, 2, 3]
    assert all(row["abs_diff"] <= 1e-6 * max(1.0, abs(row["exact"])) for row in rows)


@pytest.mark.parametrize("max_order", [0, 7, -1, 2.5, 4.0, "3", True, None])
def test_cumulant_report_refuses_bad_order_before_any_cgf(max_order, monkeypatch):
    calls = []
    for name in ("cgf", "_plan"):
        monkeypatch.setattr(cumulants, name, lambda *args, **kw: calls.append(args))
    with pytest.raises(DomainError, match="max_order"):
        cumulant_report(ModelParams(10, 0.0, 1.0), max_order=max_order)
    assert calls == []


def test_cumulant_report_accepts_numpy_orders():
    rows = cumulant_report(ModelParams(10, 0.0, 1.0), max_order=np.int64(6))
    assert [row["m"] for row in rows] == [1, 2, 3, 4, 5, 6]


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


@pytest.mark.parametrize("regime, limit, cases", [
    # n = mu^alpha, alpha < 1/2: the stated 3/(4 mu) measures as 1/mu, so the ratio tends to 4/3
    (RegimeSpec("n_power", 0.25), 4.0 / 3.0, [(1e6, 6e-4), (1e8, 7e-5)]),
    # alpha = 1/2: the stated 1/mu measures as 5/(4 mu)
    (RegimeSpec("n_power", 0.5), 5.0 / 4.0, [(1e6, 2.2e-3), (1e8, 2.2e-4)]),
    (RegimeSpec("n_power", 0.75), 1.0, [(1e6, 0.075), (1e8, 0.026)]),
    # fixed mu = -1, driver n: (1/2) log n leading, approached like 1/log n
    (RegimeSpec("fixed_mu"), 1.0, [(1e4, 0.15), (1e6, 0.1)]),
])
def test_regime_expansion_against_exact_variance(regime, limit, cases):
    # exact / predicted variance, each bound near twice the measured gap to
    # the ratio's limit; the gap shrinks as the driver grows
    gaps = []
    for driver, bound in cases:
        if regime.tag == "n_power":
            params = ModelParams(round(driver**regime.alpha), driver, 1.0)
        else:
            params = ModelParams(int(driver), -1.0, 1.0)
        ratio = cumulant_exact(params, 2) / regime_expansion(regime, driver)[1]
        gaps.append(abs(ratio - limit))
        assert gaps[-1] < bound
    assert gaps[1] < gaps[0]


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
    assert deviation_scale(RegimeSpec("fixed_mu"), np.int64(55)) == deviation_scale(RegimeSpec("fixed_mu"), 55)
    for bad in (2, 0, -4, 3.5, math.nan, math.inf, True):
        with pytest.raises(DomainError, match="integer n >= 3"):
            deviation_scale(RegimeSpec("fixed_mu"), bad)


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
