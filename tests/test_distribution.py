import math

import numpy as np
import pytest
from scipy.special import ndtr

import pdvol.distribution as distribution
import pdvol.specfun as specfun
from pdvol.cumulants import cumulant_exact, deviation_scale, RegimeSpec
from pdvol.distribution import (
    _GRID_POINTS,
    _X_RANGE,
    _chunked_cdf,
    _factored_cdf,
    _find_t_max,
    _gl_grid,
    _invert,
    _log_phi_std,
    LDP_CENTERING,
    MODPHI_CENTERING,
    StandardizedLaw,
    cdf_inverted,
    centering,
    fit_envelope_coefficient,
    kolmogorov_distance_to_normal,
    ldp_scaled_cgf,
    mod_gaussian_limit,
    mod_gaussian_residual,
    mod_gaussian_speed,
    standardized_cdf,
    two_sided_tail,
)
from pdvol.errors import ConvergenceError, DomainError
from pdvol.exactlaw import ModelParams, cgf
from pdvol.sampling import RngStream, sample_volume

RNG = np.random.default_rng(1234)
P2 = ModelParams(2, -1.0, 1.0)


def char_fn(t):
    """phi(t) = E exp(i t log V) of the typical planar cell, from the CGF."""
    return np.exp(cgf(P2, 1j * np.asarray(t, dtype=float)))


def test_char_fn_basics():
    assert char_fn(0.0) == pytest.approx(1.0)
    t = RNG.uniform(-30.0, 30.0, size=1000)
    phi = char_fn(t)
    assert np.all(np.abs(phi) <= 1.0 + 1e-12)
    assert np.allclose(char_fn(-t), np.conj(phi), rtol=1e-12, atol=1e-12)


def test_char_fn_monte_carlo_oracle():
    # an independent check of the CGF on the imaginary axis
    v = sample_volume(P2, RngStream(stream_id=3).generator(), 10**6)
    y = np.log(v)
    for t in (0.5, 1.0, 2.0):
        emp = np.exp(1j * t * y)
        se = emp.std() / math.sqrt(len(y))
        assert abs(char_fn(t) - emp.mean()) < 3.0 * se


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
    # must give the identical float on the grid, so the swap moves no reported distance
    from scipy.stats import norm

    ys = np.linspace(_X_RANGE[0], _X_RANGE[1], _GRID_POINTS)
    assert np.array_equal(ndtr(ys), norm.cdf(ys))
    p = ModelParams(n, -1.0, 1.0)
    F, _ = _invert(StandardizedLaw.from_params(p), _factored_cdf)
    assert kolmogorov_distance_to_normal(p) == float(np.max(np.abs(F - ndtr(ys))))


@pytest.mark.parametrize("n, distance", [
    (10, 0.03275352769376266),
    (100, 0.013301376432336642),
    (1000, 0.006911071666648727),
    (10**4, 0.0043498979827603645),
    (10**6, 0.002295102330464538),
])
def test_kolmogorov_distance_pinned(n, distance):
    # recorded before the exponentials e^(-iyt) were formed as cos - i sin:
    # the inversion must keep every bit.  n >= 100 re-recorded when complex
    # CGF calls took the shifts' and heads' log1p in real arithmetic: node
    # CGFs moved by ulps of |L| (up to 2.4e7 at n = 1e6, where the distance
    # moved by 7.4e-12), their RMS error against 30-digit mpmath within 1.2%
    # of before, and the distances at n = 100 to 1e4 stay within 4e-14 to
    # 2.4e-13 of a 30-digit sum of the same quadrature
    assert kolmogorov_distance_to_normal(ModelParams(n, -1.0, 1.0)) == distance


@pytest.mark.parametrize("n, mu, values", [
    (2, -1.0, [0.009010832586360706, 0.1503895096005487, 0.4464800141567473, 0.6609673959572682,
               0.9970654059283939]),
    (3, 0.0, [0.006684630628455368, 0.15375867715096114, 0.46096427263459927, 0.6682706290117106,
              0.9929705648832637]),
    (50, 1.0, [0.002509692329474622, 0.1579587302802618, 0.4896407412947639, 0.6850436552292188,
               0.9814920109330503]),
])
def test_standardized_cdf_pinned(n, mu, values):
    # recorded with rows of np.exp(-1j * np.outer(y, t)), as above; the n = 50
    # row's first and last values re-recorded with the Horner tails of
    # complex CGF calls (one step of 0.5 - s/pi each, 1.1e-16), and the n = 3
    # and n = 50 rows with their real-arithmetic log1p (moves of 5.6e-17 to
    # 3.3e-16; every value stays within 4e-15 of a 30-digit sum of the same
    # quadrature, the pipeline's own rounding)
    ys = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    assert standardized_cdf(ModelParams(n, mu, 1.0), ys).tolist() == values


@pytest.mark.parametrize("mu", [-1.0, 0.0])
@pytest.mark.parametrize("n", [10, 1000, 10**6])
def test_factored_cdf_matches_chunked_path(n, mu):
    # the Kolmogorov grid's factored product is the chunked sum regrouped: same
    # panel count, F within 1e-14, and the same bits on every call; the public
    # CDF is the chunked sum clipped to [0, 1]
    p = ModelParams(n, mu, 1.0)
    law = StandardizedLaw.from_params(p)
    ys = np.linspace(_X_RANGE[0], _X_RANGE[1], _GRID_POINTS)
    F, panels = _invert(law, _factored_cdf)
    chunked, chunked_panels = _invert(law, _chunked_cdf(ys))
    assert panels == chunked_panels
    assert np.max(np.abs(F - chunked)) < 1e-14
    assert np.array_equal(standardized_cdf(p, ys), np.clip(chunked, 0.0, 1.0))
    d = kolmogorov_distance_to_normal(p)
    heap = [np.ones(k) for k in (3, 1001, 65537, 12345)]
    assert kolmogorov_distance_to_normal(p) == d
    del heap


def _level_by_level(law, evaluate):
    """The inversion loop with one CGF call per level, as it was before the
    first two levels shared one: the reference for ``_invert``'s bits."""
    t_max = _find_t_max(law)
    panels = max(32, int(t_max * 2))
    prev = None
    while panels <= distribution._MAX_PANELS:
        tg, wg = _gl_grid(t_max, panels)
        phi_w = np.exp(np.asarray(_log_phi_std(law, tg))) / tg * wg
        F = evaluate(tg, phi_w)
        if prev is not None and np.max(np.abs(F - prev)) < 1e-8:
            return F, panels
        prev = F
        panels *= 2
    raise ConvergenceError("cdf inversion: quadrature did not stabilize within the panel budget")


@pytest.fixture(params=["helper-off", "helper-on"])
def helper(request, monkeypatch):
    if request.param == "helper-off":
        monkeypatch.setattr(specfun, "_helper", lambda: None)
    else:
        request.getfixturevalue("two_cpus")
        assert specfun._helper() is not None
    return request.param


@pytest.mark.parametrize("mu", [-1.9, -1.0, 0.0, 5.0])
@pytest.mark.parametrize("n", [2, 10, 1000, 10**4, 10**6])
def test_paired_levels_keep_every_bit(n, mu, helper):
    # the first two levels' nodes share one CGF call, split across both
    # threads: F and the panel count are those of one call per level
    law = StandardizedLaw.from_params(ModelParams(n, mu, 1.0))
    ys = np.array([-20.0, -3.0, -1.0, 0.0, 0.5, 2.0, 7.5])
    for evaluate in (_factored_cdf, _chunked_cdf(ys)):
        F, panels = _invert(law, evaluate)
        ref, ref_panels = _level_by_level(law, evaluate)
        assert panels == ref_panels and F.tobytes() == ref.tobytes()


def test_first_two_levels_take_one_cgf_call(monkeypatch):
    law = StandardizedLaw.from_params(ModelParams(1000, -1.0, 1.0))
    first = max(32, int(2 * _find_t_max(law)))
    sizes, levels = [], []

    def counted(params, z, **kw):
        sizes.append(np.size(z))
        return cgf(params, z, **kw)

    def evaluate(tg, phi_w):
        levels.append(tg.size)
        return _factored_cdf(tg, phi_w)

    monkeypatch.setattr(distribution, "cgf", counted)
    _, panels = _invert(law, evaluate)
    nodes = [s for s in sizes if s > 1]  # the scalar calls search for t_max
    assert levels == [24 * first * 2**k for k in range(len(levels))] and panels == first * 2 ** (len(levels) - 1)
    assert len(levels) >= 2 and nodes == [levels[0] + levels[1]] + levels[2:]


@pytest.mark.parametrize("max_panels", [16, 32, 48, 64, 96])
def test_panel_budget_raises_where_it_did(max_panels, monkeypatch):
    # the levels pair only where both fit the budget: with the first level
    # at 32 panels and an evaluator that never settles, the same levels are
    # evaluated before the same ConvergenceError as with one CGF call per level
    law = StandardizedLaw.from_params(ModelParams(10, -1.0, 1.0))
    assert max(32, int(2 * _find_t_max(law))) == 32
    monkeypatch.setattr(distribution, "_MAX_PANELS", max_panels)
    seen = {}
    for name, invert in (("paired", _invert), ("reference", _level_by_level)):
        calls = seen.setdefault(name, [])
        with pytest.raises(ConvergenceError, match="did not stabilize"):
            invert(law, lambda tg, phi_w: calls.append(tg.size) or np.full(3, float(len(calls))))
    assert seen["paired"] == seen["reference"] == [24 * p for p in (32, 64) if p <= max_panels]


def test_factored_cdf_matches_mpmath_quadrature():
    # the factored sum against the same quadrature (same nodes and weights)
    # summed at 30 digits, at the distance's argmax and seven more grid points
    import mpmath as mp

    p = ModelParams(1000, -1.0, 1.0)
    levels = []

    def capture(tg, phi_w):
        levels.append((tg, phi_w))
        return _factored_cdf(tg, phi_w)

    F, _ = _invert(StandardizedLaw.from_params(p), capture)
    tg, phi_w = levels[-1]
    ys = np.linspace(_X_RANGE[0], _X_RANGE[1], _GRID_POINTS)
    worst = int(np.argmax(np.abs(F - ndtr(ys))))
    with mp.workdps(30):
        for k in (worst, 0, 300, 700, 1000, 1100, 1500, 2047):
            y = mp.mpf(ys[k])
            s = mp.fsum(mp.im(mp.expj(-y * mp.mpf(t)) * mp.mpc(w.real, w.imag)) for t, w in zip(tg, phi_w))
            assert abs(mp.mpf(F[k]) - (mp.mpf(0.5) - s / mp.pi)) < 2e-15


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_ldp_scaled_cgf_refuses_non_finite_t(bad):
    with pytest.raises(DomainError, match=r"^ldp_scaled_cgf: needs a finite real t > -0\.999999"):
        ldp_scaled_cgf(ModelParams(5), bad, LDP_CENTERING)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_mod_gaussian_residual_refuses_non_finite_z(bad):
    with pytest.raises(DomainError, match=r"^mod_gaussian_residual: needs a finite real z > -1\.999999"):
        mod_gaussian_residual(ModelParams(5), bad)


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


def test_inverted_cdf_stays_in_unit_interval():
    # the quadrature's rounding left F at -1.0e-14 at (n, y) = (1000, -20) and
    # at -1.6e-13 and -2.0e-13 at (1e4, -100) and (1e4, -20)
    p = ModelParams(1000, -1.0, 1.0)
    assert 0.0 <= standardized_cdf(p, -20.0) <= 1.0
    law = StandardizedLaw.from_params(p)
    F = cdf_inverted(p, law.mean + law.sd * np.array([-20.0, 20.0]))
    assert ((F >= 0.0) & (F <= 1.0)).all()
    assert 0.0 <= two_sided_tail(p, 20.0) <= 1.0
    F = standardized_cdf(ModelParams(10**4, -1.0, 1.0), np.array([-100.0, -20.0, 20.0, 100.0]))
    assert ((F >= 0.0) & (F <= 1.0)).all()


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
