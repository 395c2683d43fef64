import hashlib
import math
import os
import select
import signal
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

import pdvol.distribution as distribution
import pdvol.exactlaw as exactlaw
import pdvol.sampling as sampling
import pdvol.specfun as specfun
from pdvol.errors import DomainError
from pdvol.sampling import RngStream, sample_volume
from pdvol.specfun import (
    _SPLIT_POINTS,
    RUN_HEAD,
    SHIFT_MIN,
    GammaRatioSum,
    _log_barnes_g_series,
    _polygamma,
    digamma,
    log_barnes_g,
    log_barnes_g_shift_asymptotic,
    log_gamma,
    log_unit_ball_volume,
    log_unit_sphere_area,
    polygamma,
    reg_lower_incomplete_gamma,
)

RNG = np.random.default_rng(20240811)


def euler_gamma_oracle(n=10**5):
    # harmonic-number expansion, error O(1/n^4)
    k = np.arange(1, n + 1)
    return float(np.sum(1.0 / k)) - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


def polygamma_series_oracle(m, x, terms=20000):
    # direct series sum_k m!/(x+k)^(m+1) with a midpoint integral tail
    k = np.arange(terms)
    head = math.factorial(m) * np.sum((x + k) ** -(m + 1.0))
    tail = math.factorial(m - 1) * (x + terms - 0.5) ** (-m)
    return (-1.0) ** (m + 1) * (head + tail)


def digamma_series_oracle(x, terms=20000):
    k = np.arange(terms + 1)
    head = float(np.sum(1.0 / (k + 1.0) - 1.0 / (k + x)))
    tail = math.log((terms + 0.5 + x) / (terms + 1.5))
    return -euler_gamma_oracle() + head + tail


def test_log_gamma_anchor_values():
    assert log_gamma(1.0) == 0.0
    assert math.isclose(log_gamma(5.0), math.log(24.0), rel_tol=1e-14)
    # duplication formula at z = 1/2 pins Gamma(1/2) = sqrt(pi)
    assert math.isclose(log_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-14)


def test_log_gamma_complex():
    z = 2.5 + 1.75j
    assert log_gamma(np.conj(z)) == pytest.approx(np.conj(log_gamma(z)))
    # recurrence on the complex plane
    assert log_gamma(z + 1) == pytest.approx(log_gamma(z) + np.log(z), rel=1e-13)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.0)
    with pytest.raises(DomainError):
        log_gamma(complex(-2.0, 0.0))
    for bad in (math.nan, np.array([1.0, math.nan]), complex(math.nan, 1.0), complex(1.0, math.nan)):
        with pytest.raises(DomainError, match=r"NaN|got nan$"):
            log_gamma(bad)


def test_digamma_against_series_oracle():
    assert digamma(1.0) == pytest.approx(-euler_gamma_oracle(), abs=1e-10)
    for x in (0.3, 1.0, 2.2, 7.5):
        assert digamma(x) == pytest.approx(digamma_series_oracle(x), abs=1e-8)
    assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, rel=1e-13)


def test_polygamma_against_series_oracle():
    assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert polygamma(1, 2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-13)
    for m in (1, 2, 3, 4):
        for x in (0.5, 1.0, 3.7):
            assert polygamma(m, x) == pytest.approx(polygamma_series_oracle(m, x), rel=1e-9)


def test_polygamma_kernel_gives_scipy_bits():
    # every psi^(q) in the package goes through _polygamma: its bits are
    # scipy's digamma, polygamma and zeta(2, .), for arrays and scalars
    gen = np.random.default_rng(5)
    x = np.concatenate([gen.uniform(0.05, 50.0, 2000), 10.0 ** gen.uniform(-2.0, 8.0, 2000)])
    assert _polygamma(0, x).tobytes() == sp.digamma(x).tobytes()
    for q in range(1, 7):
        assert _polygamma(q, x).tobytes() == sp.polygamma(q, x).tobytes()
    assert _polygamma(1, x).tobytes() == sp.zeta(2.0, x).tobytes()
    for v in x[::20].tolist():
        assert digamma(v).hex() == float(sp.digamma(v)).hex()
        assert polygamma(1, v).hex() == float(sp.polygamma(1, v)).hex()
        assert polygamma(3, v).hex() == float(sp.polygamma(3, v)).hex()


def test_polygamma_domain():
    with pytest.raises(DomainError):
        polygamma(0, 1.0)
    with pytest.raises(DomainError):
        polygamma(1, -1.0)
    with pytest.raises(DomainError):
        digamma(0.0)
    for bad in (math.nan, np.array([2.0, math.nan])):
        with pytest.raises(DomainError, match=r"NaN|got nan$"):
            digamma(bad)
        with pytest.raises(DomainError, match=r"NaN|got nan$"):
            polygamma(2, bad)


def test_recurrence_closure_random():
    x = RNG.uniform(0.1, 50.0, size=1000)
    assert np.allclose(digamma(x + 1.0) - digamma(x), 1.0 / x, rtol=1e-9, atol=1e-9)
    assert np.allclose(log_gamma(x + 1.0) - log_gamma(x), np.log(x), rtol=1e-9, atol=1e-9)
    for m in range(1, 7):
        lhs = polygamma(m, x + 1.0) - polygamma(m, x)
        rhs = (-1.0) ** m * math.factorial(m) / x ** (m + 1)
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


def test_duplication_identities_random():
    x = RNG.uniform(0.1, 50.0, size=1000)
    lhs = 0.5 * (digamma(x) + digamma(x + 0.5))
    assert np.allclose(lhs, digamma(2.0 * x) - math.log(2.0), rtol=1e-10, atol=1e-10)
    lhs1 = 0.25 * (polygamma(1, x) + polygamma(1, x + 0.5))
    assert np.allclose(lhs1, polygamma(1, 2.0 * x), rtol=1e-10, atol=1e-12)


def test_polygamma_magnitude_bound():
    x = np.concatenate([RNG.uniform(0.5, 1000.0, size=400), [0.5, 10.0, 1000.0]])
    for m in range(1, 7):
        bound = math.factorial(m - 1) / x**m + math.factorial(m) / x ** (m + 1)
        assert np.all(np.abs(polygamma(m, x)) <= bound * (1 + 1e-12))
    # worked magnitude at (m=2, x=10)
    assert abs(polygamma(2, 10.0)) <= 1.0 / 100.0 + 2.0 / 1000.0


def test_barnes_anchor_values():
    assert log_barnes_g(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_barnes_g(2.0) == pytest.approx(0.0, abs=1e-14)
    # functional equation applied twice: G(3) = Gamma(2) Gamma(1) G(1) = 1
    assert log_barnes_g(3.0) == pytest.approx(0.0, abs=1e-13)
    # classical closed form at 3/2 in terms of the Glaisher constant
    ln_a = math.log(1.2824271291006226)
    closed = -1.5 * ln_a + 0.25 * math.log(math.pi) + 0.125 + math.log(2.0) / 24.0
    assert log_barnes_g(1.5) == pytest.approx(closed, abs=1e-12)
    assert log_barnes_g(1.5) == pytest.approx(0.0669318884350047, abs=1e-12)
    # below the series base point the downward recurrence takes over
    half = -1.5 * ln_a - 0.25 * math.log(math.pi) + 0.125 + math.log(2.0) / 24.0
    assert log_barnes_g(0.5) == pytest.approx(half, abs=1e-12)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_barnes_g(bad)


def test_barnes_series_table_gives_per_term_zeta_bits():
    # the Taylor series of log G(1+z) reads zeta(k-1) from a table: same
    # arithmetic, in the same order, as calling scipy's zeta at every term
    def per_term(z):
        total = z * (math.log(2.0 * math.pi) - 1.0) / 2.0 - (1.0 + np.euler_gamma) * z * z / 2.0
        zk = z * z
        for k in range(3, 100):
            zk *= z
            term = ((-1.0) ** (k - 1)) * sp.zeta(k - 1) * zk / k
            total += term
            if abs(term) < 0.01 * 1e-12:
                return float(total)

    for z in np.linspace(-0.5, 0.5, 1001).tolist():
        assert _log_barnes_g_series(z).hex() == per_term(z).hex()


def test_barnes_functional_equation_random():
    for x in RNG.uniform(0.2, 14.0, size=200):
        assert log_barnes_g(x + 1.0) == pytest.approx(log_gamma(x) + log_barnes_g(x), rel=1e-11, abs=1e-11)


def test_barnes_product_identity():
    # G(z+k+1)/G(z+1) telescopes to the product of Gamma(j+z), j = 1..k
    for z in RNG.uniform(0.0, 5.0, size=10):
        z = float(z) + 1e-3
        for k in (1, 5, 50):
            lhs = log_barnes_g(z + k + 1.0) - log_barnes_g(z + 1.0)
            rhs = math.fsum(log_gamma(float(j) + z) for j in range(1, k + 1))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-7)


def test_barnes_seam_continuity():
    # series+recurrence branch must agree with the asymptotic branch
    for x in (14.2, 14.99, 15.01, 16.5):
        lhs = log_barnes_g(x + 1.0)
        rhs = log_gamma(x) + log_barnes_g(x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_barnes_shift_asymptotic_decay():
    for a in (0.5, 1.0, 2.0):
        errs = []
        for z in (100.0, 400.0, 1600.0):
            approx = log_barnes_g_shift_asymptotic(z, a)
            exact = log_barnes_g(z + a + 1.0) - log_barnes_g(z + 1.0)
            errs.append(abs(approx - exact))
        assert errs[1] < 0.5 * errs[0] and errs[2] < 0.5 * errs[1]
    assert log_barnes_g_shift_asymptotic(100.0, 0.0) == 0.0
    assert log_barnes_g(102.0) - log_barnes_g(102.0) == 0.0


def test_barnes_asymptotic_branch_against_mpmath():
    # the series branch from x = 15 on, against 30-digit Barnes G
    for x in [*np.linspace(15.0, 30.0, 212), 50.0, 100.0, 1e3, 1e4, 1e6]:
        with mp.workdps(30):
            ref = float(mp.log(mp.barnesg(mp.mpf(float(x)))))
        assert abs(log_barnes_g(float(x)) - ref) <= 2e-15 * abs(ref)


def test_gamma_shift_against_mpmath():
    # a single ratio in both branches: plain log-gammas below SHIFT_MIN,
    # Stirling's shift form above
    for x in (0.3, 2.5, 9.99, 10.0, 37.5, 1e3, 5e11):
        for h in (0.7, 2.0, -0.29, -0.2 + 3j, 5.0 - 40j, 1e-7j):
            if (x + h).real <= 0:
                continue
            with mp.workdps(30):
                ref = complex(mp.loggamma(mp.mpf(x) + mp.mpmathify(h)) - mp.loggamma(mp.mpf(x)))
            got = complex(GammaRatioSum([(x, 1.0, 1.0)])(h))
            assert abs(got - ref) <= 5e-15 * max(1.0, abs(ref))
    ratios = [(x, 1.0, 1.0) for x in (1.5, 40.0, 1e6)]
    assert GammaRatioSum(ratios)(0.0) == 0.0 and GammaRatioSum(ratios)(0j) == 0.0
    with pytest.raises(DomainError):
        GammaRatioSum([(0.0, 1.0, 1.0)])


def run_mpmath(b, k, a):
    """sum_{j<k} [log Gamma(b+j+a) - log Gamma(b+j)] in 30 digits, through
    Barnes G: prod_{j<k} Gamma(w+j) = G(w+k)/G(w)."""
    with mp.workdps(30):
        b, a = mp.mpf(b), mp.mpmathify(a)
        g = [mp.log(mp.barnesg(w)) for w in (b + k + a, b + a, b + k, b)]
        return complex(g[0] - g[1] - g[2] + g[3])


def test_barnes_shift_against_mpmath():
    # runs past RUN_HEAD end in the Barnes series in shift form
    for b, k in ((0.5, RUN_HEAD + 1), (1.25, 23), (10.0, 100), (37.0, 1000), (2.25, 5 * 10**5)):
        for a in (0.3, -0.45, 7.0, 3 + 4j, 1e-3j, -0.45 + 30j):
            if (b + a).real <= 0:
                continue
            ref = run_mpmath(b, k, a)
            got = complex(GammaRatioSum((), [(b, k)])(a))
            # mpmath's log of G is principal; the run is the continuation
            turns = round((got.imag - ref.imag) / (2.0 * math.pi))
            ref += 2j * math.pi * turns
            assert abs(got - ref) <= 5e-15 * max(1.0, abs(ref))
            # the branch: neighbouring runs differ by one gamma ratio
            step = complex(GammaRatioSum((), [(b, k + 1)])(a) - GammaRatioSum((), [(b, k)])(a))
            assert step == pytest.approx(complex(GammaRatioSum([(b + k, 1.0, 1.0)])(a)), rel=1e-10, abs=1e-12)
    assert GammaRatioSum((), [(10.0, 50), (1e6, 10**6)])(0j) == 0.0
    with pytest.raises(DomainError):
        GammaRatioSum((), [(1.5, 20)])(-2.5 + 1j)
    for run in ((0.0, 20), (1.5, 0), (1.5, 2.5)):
        with pytest.raises(DomainError):
            GammaRatioSum((), [run])


def derivative_mpmath(ratios, runs, run_coef, m):
    """m-th z-derivative at 0 of the gamma-ratio sum in 30 digits, term by
    term: sum w c^m psi^(m-1)(x) + run_coef^m sum_runs sum_{j<k} psi^(m-1)(b+j)."""
    with mp.workdps(30):
        total = mp.fsum(w * mp.mpf(c) ** m * mp.psi(m - 1, x) for x, c, w in ratios)
        row = mp.fsum(mp.psi(m - 1, mp.mpf(b) + j) for b, k in runs for j in range(k))
        return total + mp.mpf(run_coef) ** m * row


# a run past RUN_HEAD ends at y = b + RUN_HEAD, whose differences psi^(q)(y+h)
# - psi^(q)(y) take the shift form from y = 20 + 2q on and are plain below
@pytest.mark.parametrize("ratios, runs", [
    pytest.param([(0.3, 1.0, 1.0)], (), id="ratio-x0.3"),
    pytest.param([(37.5, 2.5, -3.0)], (), id="ratio-x37.5"),
    pytest.param([(12.0, -1.5, 0.25)], (), id="ratio-negative-c"),
    pytest.param([(1e6, 0.5, 2.0)], (), id="ratio-x1e6"),
    pytest.param((), [(0.5, 5)], id="run-head-only"),
    pytest.param((), [(1.25, RUN_HEAD)], id="run-full-head"),
    pytest.param((), [(2.5, RUN_HEAD + 1)], id="one-term-end-plain"),
    pytest.param((), [(1e4, RUN_HEAD + 1)], id="one-term-end-shift"),
    pytest.param((), [(1e6, 40)], id="b1e6-shift"),
    pytest.param((), [(5e3, 100)], id="b5e3-shift"),
    pytest.param((), [(20.0, 100)], id="b20-straddles"),  # y = 31: shift form up to q = 5
    pytest.param((), [(0.75, 60)], id="b0.75-plain"),
    pytest.param((), [(3.0, 80)], id="b3-plain"),
])
def test_derivative_against_mpmath(ratios, runs):
    plan = GammaRatioSum(ratios, runs, 0.5)
    for m in range(1, 9):
        ref = derivative_mpmath(ratios, runs, 0.5, m)
        assert abs(plan.derivative(m) - ref) <= 3e-15 * abs(ref), m


def test_derivative_domain():
    plan = GammaRatioSum([(2.0, 1.0, 1.0)], [(1.5, 20)])
    for bad in (0, -1, 1.5, math.nan, 2.0, True):
        with pytest.raises(DomainError):
            plan.derivative(bad)
    assert plan.derivative(2) == plan.derivative(np.int64(2))


def test_barnes_domain():
    with pytest.raises(DomainError):
        log_barnes_g(0.0)
    for z, a in ((-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (100.0, math.inf), (100.0, math.nan)):
        with pytest.raises(DomainError):
            log_barnes_g_shift_asymptotic(z, a)


def test_reg_lower_incomplete_gamma():
    assert reg_lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)
    # integer-shape closed form 1 - e^-x (1 + x)
    assert reg_lower_incomplete_gamma(2.0, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-13)
    assert reg_lower_incomplete_gamma(2.5, 0.0) == 0.0
    x = np.linspace(0.0, 30.0, 200)
    p = reg_lower_incomplete_gamma(1.7, x)
    assert np.all(np.diff(p) >= 0.0) and p[0] == 0.0 and p[-1] > 1.0 - 1e-10
    with pytest.raises(DomainError):
        reg_lower_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        reg_lower_incomplete_gamma(1.0, -0.5)
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError, match=r"NaN|got nan$"):
            reg_lower_incomplete_gamma(1.0, bad)
    with pytest.raises(DomainError):
        reg_lower_incomplete_gamma(math.nan, 1.0)


def test_unit_ball_volume():
    assert log_unit_ball_volume(2) == pytest.approx(math.log(math.pi), rel=1e-15)
    assert log_unit_ball_volume(3) == pytest.approx(math.log(4.0 * math.pi / 3.0), rel=1e-15)
    assert log_unit_ball_volume(1) == pytest.approx(math.log(2.0), rel=1e-15)
    assert log_unit_sphere_area(2) == pytest.approx(math.log(2.0 * math.pi), rel=1e-15)
    for bad in (0, 2.7, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_unit_ball_volume(bad)
        with pytest.raises(DomainError):
            log_unit_sphere_area(bad)


# ---------------------------------------------------------------------------
# the two forms of the Bernoulli tails: power sums for real calls, Horner for
# complex ones

# (tail, coefficients, v from w, u from v): the tail is v * sum_k c_k u^k
TAILS = (
    (specfun._stirling_tail, specfun._STIRLING_TAIL, lambda w: 1.0 / w, lambda v: v * v),
    (specfun._barnes_tail, specfun._BARNES_TAIL, lambda w: 1.0 / (w * w), lambda v: v),
)


def _power_sum_tail(coefs, v, u):
    return v * (np.power.outer(u, specfun._POWERS[: len(coefs)]) @ coefs)


@pytest.mark.parametrize("tail, coefs, v_of, u_of", TAILS, ids=["stirling", "barnes"])
def test_real_tails_keep_the_power_sum_bits(tail, coefs, v_of, u_of):
    gen = np.random.default_rng(21)
    for w in (SHIFT_MIN, 10.0 ** gen.uniform(1.0, 7.0, 7), 10.0 ** gen.uniform(1.0, 12.0, (40, 6))):
        v = v_of(np.asarray(w))
        assert np.asarray(tail(w)).tobytes() == _power_sum_tail(coefs, v, u_of(v)).tobytes()


@pytest.mark.parametrize("tail, coefs, v_of, u_of", TAILS, ids=["stirling", "barnes"])
def test_complex_tails_within_two_ulps_of_the_power_sum(tail, coefs, v_of, u_of):
    # Horner moves last bits only: each part within 2 ulps of |tail| (the
    # measured worst, over Re w = 10 to 1e7 and |Im w| up to 1e6)
    gen = np.random.default_rng(22)
    for im in (1e-3, 1.0, 30.0, 1e3, 1e6):
        w = 10.0 ** gen.uniform(1.0, 7.0, 20000) + 1j * gen.uniform(-im, im, 20000)
        v = v_of(w)
        ref, got = _power_sum_tail(coefs, v, u_of(v)), tail(w, True)
        ulp = np.spacing(np.abs(ref))
        assert np.all(np.abs(got.real - ref.real) <= 2.0 * ulp) and np.all(np.abs(got.imag - ref.imag) <= 2.0 * ulp)
    # at real points the complex Horner gives the bits of the real Horner
    # that a plan prepares in Python floats, so a complex call is 0 at z = 0
    x = 10.0 ** gen.uniform(1.0, 7.0, 200)
    prepared = specfun._horner_at(tail, x)
    assert tail(x + 0j, True).real.tobytes() == prepared.tobytes() == tail(x, True).tobytes()


# u for the complex log1p of the Stirling shifts and the run heads: next to
# -1 (where 2 atanh(u/(2+u)) read 1.65e-3 relative off at -1 + 1e-15), at
# |u| ~ 1e-5 (where numpy's complex log1p loses ~1e-5 absolute), on the
# imaginary axis, and spread over the strip
LOG1P_POINTS = [
    -1.0 + 1e-15, -1.0 + 1e-12, -0.999 + 1e-3j, -1.0 + 1e-15 + 1e-15j,
    1e-5, -1e-5, 1e-5j, -1e-5 + 3e-6j, 7e-6 - 7e-6j,
    1e-300j, 1e-3j, 1j, -30j, 1e4j,
    -0.5 + 0.5j, -0.71 + 0.01j, 0.5 + 2j, 3.0 - 1e-9j,
]


def test_complex_log1p_against_mpmath():
    gen = np.random.default_rng(23)
    u = np.array(LOG1P_POINTS + (gen.uniform(-1.0, 3.0, 200) + 1j * gen.uniform(-5.0, 5.0, 200)).tolist())
    got = specfun._log1p_complex(u.copy())  # it overwrites its argument
    with mp.workdps(30):
        for v, g in zip(u.tolist(), got.tolist()):
            ref = mp.log1p(mp.mpc(v.real, v.imag))
            # measured worst 1.3e-16
            assert abs(mp.mpc(g) - ref) <= 2.5e-16 * abs(ref), v
    # exactly 0 at u = 0, so a complex call is exactly 0 at z = 0
    zero = specfun._log1p_complex(np.zeros((2, 3), complex))
    assert zero.shape == (2, 3) and not np.any(zero.real) and not np.any(zero.imag)
    assert specfun._log1p_complex(np.zeros(1, complex)).tolist() == [0j]


@pytest.mark.parametrize("size", [_SPLIT_POINTS - 1, _SPLIT_POINTS, _SPLIT_POINTS + 1])
def test_complex_call_at_the_split_gives_pointwise_bits(size, monkeypatch, idle_helper):
    # just below the threshold a call runs whole, from it on the trailing
    # half runs on another thread: either way each point has the bits of a
    # call of that point alone
    monkeypatch.setattr(specfun, "_helper", lambda: idle_helper)
    for n in (1000, 3):
        plan = exactlaw._plan(n, -1.0)
        z = _split_points((size,), True)
        alone = np.array([plan(v) for v in z])
        assert plan(z).tobytes() == alone.tobytes()
    assert bool(idle_helper.threads) == (size >= _SPLIT_POINTS)


# ---------------------------------------------------------------------------
# the package's helper thread and the split of large calls

# GammaRatioSum call shapes: 0-d, small, either side of the split threshold,
# large, and 2-D below and above it
SPLIT_SHAPES = ((), (1,), (7,), (_SPLIT_POINTS - 1,), (_SPLIT_POINTS,), (40_000,), (7, 73), (40, 1001))


def _split_points(shape, complex_):
    gen = np.random.default_rng(sum(shape) + complex_)
    z = gen.uniform(-0.9, 5.0, shape)  # inside the strip of the mu = -1 plans
    return z + 1j * gen.uniform(-40.0, 40.0, shape) if complex_ else z


def _split_bits():
    """sha256 of every SPLIT_SHAPES call of two plans, real and complex: one
    with Barnes ends (n = 1000) and one with near entries (n = 3)."""
    h = hashlib.sha256()
    for n in (1000, 3):
        plan = exactlaw._plan(n, -1.0)
        for shape in SPLIT_SHAPES:
            for complex_ in (False, True):
                out = np.asarray(plan(_split_points(shape, complex_)))
                assert out.shape == shape and np.iscomplexobj(out) == complex_
                h.update(out.tobytes())
    return h.hexdigest()


# exponential tables: odd row counts either side of the split threshold, one
# row above it (a single-point cdf at 342 panels or more), and the
# Kolmogorov grid's 96 rows at its first two levels' node counts
CIS_ROWS = (1, 3, 5, 33, 257)
CIS_TABLES = ((768, CIS_ROWS), (1535, CIS_ROWS), (9000, (1,)), (768, (96,)), (1536, (96,)))


def _cis_bits():
    h = hashlib.sha256()
    gen = np.random.default_rng(11)
    for nodes, row_counts in CIS_TABLES:
        tg = np.sort(gen.uniform(0.0, 60.0, nodes))
        for rows in row_counts:
            y = gen.uniform(-8.0, 8.0, rows)
            out = distribution._cis_neg(y, tg)
            theta = np.multiply.outer(-y, tg)
            assert out.real.tobytes() == np.cos(theta).tobytes()
            assert out.imag.tobytes() == np.sin(theta).tobytes()
            h.update(out.tobytes())
    return h.hexdigest()


def _grid_bits():
    """sha256 of the Kolmogorov grid's factored sum at the node counts of its
    first levels, each checked against one unsplit product of the same table."""
    h = hashlib.sha256()
    gen = np.random.default_rng(12)
    n_coarse = distribution._GRID_SPLIT[0]
    for nodes in (768, 1536, 2304, 3072):
        tg = np.sort(gen.uniform(0.0, 60.0, nodes))
        phi_w = gen.standard_normal(nodes) + 1j * gen.standard_normal(nodes)
        F = distribution._factored_cdf(tg, phi_w)
        step = 16.0 / (distribution._GRID_POINTS - 1)
        offsets = np.concatenate([-8.0 + 64 * step * np.arange(n_coarse), step * np.arange(64)])
        theta = np.multiply.outer(-offsets, tg)
        table = np.cos(theta) + 1j * np.sin(theta)
        E1, E2 = table[:n_coarse] * phi_w, table[n_coarse:]
        assert F.tobytes() == (0.5 - (E1 @ E2.T).imag.ravel() / math.pi).tobytes()
        h.update(F.tobytes())
    return h.hexdigest()


def _sphere_bits():
    """sha256 of a sampler batch of several blocks and its generator state."""
    rng = RngStream(20261019, 0).generator()
    vol = sampling._uniform_sphere(rng, 80_000)
    return hashlib.sha256(vol.tobytes() + repr(rng.bit_generator.state).encode()).hexdigest()


def _refuse_helper():
    raise AssertionError("a call below the split threshold asked for the helper")


@pytest.mark.parametrize("bits", [_split_bits, _cis_bits, _grid_bits],
                         ids=["gamma-ratio-sum", "cis-neg", "grid-product"])
def test_split_keeps_every_bit(bits, monkeypatch, idle_helper, two_cpus):
    assert specfun._helper() is not None
    started = bits()
    monkeypatch.setattr(specfun, "_helper", lambda: None)  # no helper: every call in one piece
    inline = bits()
    monkeypatch.setattr(specfun, "_helper", lambda: idle_helper)  # the trailing half on another thread
    halves = bits()
    assert idle_helper.threads and threading.get_ident() not in idle_helper.threads
    assert started == inline == halves


def test_one_row_table_splits_its_entries(monkeypatch, idle_helper):
    monkeypatch.setattr(specfun, "_helper", lambda: idle_helper)
    split, halves = distribution._split, []
    monkeypatch.setattr(distribution, "_split", lambda fn, count: split(
        lambda lo, hi: halves.append((lo, hi)) or fn(lo, hi), count))
    y, tg = np.array([1.25]), np.linspace(0.0, 60.0, 9000)
    out = distribution._cis_neg(y, tg)
    assert sorted(halves) == [(0, 4500), (4500, 9000)] and idle_helper.threads
    theta = np.multiply.outer(-y, tg)
    assert out.real.tobytes() == np.cos(theta).tobytes()
    assert out.imag.tobytes() == np.sin(theta).tobytes()


@pytest.mark.parametrize("mode", ["whole", "split"])
def test_exponential_table_allocates_no_scratch(mode, monkeypatch, idle_helper):
    # the angles go into the output's imaginary parts and the cosines and
    # sines are taken in place: beyond the table, only numpy's ufunc buffers
    # for the broadcast product into the strided imaginary parts (125 kB
    # measured), where a table of angles took 1.2 MB more
    monkeypatch.setattr(specfun, "_helper", lambda: idle_helper if mode == "split" else None)
    y, tg = np.linspace(-8.0, 8.0, 96), np.linspace(0.0, 60.0, 1536)
    distribution._cis_neg(y, tg)
    tracemalloc.start()
    try:
        out = distribution._cis_neg(y, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes <= peak <= out.nbytes + 160 * 1024
    assert bool(idle_helper.threads) == (mode == "split")


def test_small_calls_never_ask_for_the_helper(monkeypatch):
    monkeypatch.setattr(specfun, "_helper", _refuse_helper)
    plan = exactlaw._plan(200, 0.5)
    for shape in ((), (1,), (8,), (_SPLIT_POINTS - 1,), (7, 73)):
        plan(_split_points(shape, True))
    p = exactlaw.ModelParams(200, 0.5)
    exactlaw.cgf(p, np.linspace(-1.0, 1.0, 8))
    exactlaw.log_volume_moment(p, 1.0)
    rows = (distribution._CIS_SPLIT - 1) // 768
    assert distribution._cis_neg(np.zeros(rows), np.linspace(0.0, 10.0, 768)).shape == (rows, 768)


@pytest.mark.parametrize("failing", ["leading", "trailing"])
@pytest.mark.parametrize("mode", ["idle", "started"])
def test_failing_half_raises_from_call(failing, mode, monkeypatch, idle_helper, two_cpus):
    # an odd size just above the threshold, so the two halves differ in size
    plan, size = exactlaw._plan(1000, -1.0), _SPLIT_POINTS + 1
    leading, trailing = size // 2, size - size // 2
    z = _split_points((size,), True)
    expected = plan(z).tobytes()
    evaluate, helper = GammaRatioSum._evaluate, specfun._helper
    done = []

    def half(self, points):
        if points.size == (leading if failing == "leading" else trailing):
            raise FloatingPointError(f"{failing} half")
        out = evaluate(self, points)
        done.append(points.size)
        return out

    monkeypatch.setattr(GammaRatioSum, "_evaluate", half)
    if mode == "idle":
        monkeypatch.setattr(specfun, "_helper", lambda: idle_helper)
    with pytest.raises(FloatingPointError, match=f"{failing} half"):
        plan(z)
    # the other half had ended before the call raised
    assert done == [trailing if failing == "leading" else leading]
    monkeypatch.setattr(GammaRatioSum, "_evaluate", evaluate)
    monkeypatch.setattr(specfun, "_helper", helper)
    # the helper is left usable
    assert plan(z).tobytes() == expected


def test_helper_half_keeps_the_callers_error_state(two_cpus):
    with np.errstate(over="raise", invalid="ignore"):
        halves = specfun._split(lambda lo, hi: (np.geterr()["over"], np.geterr()["invalid"]), 2)
    assert halves == [("raise", "ignore")] * 2


def test_sampler_and_cgf_share_one_helper_thread(monkeypatch, two_cpus):
    helper = specfun._helper()
    names = set()

    def record(fn):
        def recorded(*args):
            names.add(threading.current_thread().name)
            return fn(*args)
        return recorded

    monkeypatch.setattr(sampling, "_tetrahedron_volumes", record(sampling._tetrahedron_volumes))
    monkeypatch.setattr(GammaRatioSum, "_evaluate", record(GammaRatioSum._evaluate))
    sampling._uniform_sphere(RngStream(3, 0).generator(), 5 * sampling._BLOCK)
    exactlaw.cgf(exactlaw.ModelParams(10**4, 0.0), 1j * np.linspace(-12.0, 12.0, 2048))
    ours = [t.name for t in threading.enumerate() if t.name.startswith("pdvol")]
    assert len(ours) == 1 and names == {threading.current_thread().name, ours[0]}
    assert specfun._helper() is helper
    # work on the helper never splits again
    assert helper.submit(specfun._helper).result(timeout=60) is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_reproduces_parent_bits(two_cpus):
    expected = _split_bits() + _cis_bits() + _sphere_bits()
    parent_helper = specfun._helper()
    assert parent_helper is not None
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report its bits and whether it built its own helper, then leave at once
        try:
            os.close(read_fd)
            bits = _split_bits() + _cis_bits() + _sphere_bits()
            own = specfun._helper_pool[0] == os.getpid() and specfun._helper() is not parent_helper
            os.write(write_fd, f"{bits} {own}".encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        ready, _, _ = select.select([read_fd], [], [], 120)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        with os.fdopen(read_fd) as fh:
            reply = fh.read() if ready else ""
    finally:
        os.waitpid(pid, 0)
    assert reply == f"{expected} True"


def test_helper_follows_the_usable_cpus():
    # run under taskset -c 0 (a CI step), this is the real one-CPU path
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert (specfun._helper() is None) == ((cpus or 1) < 2)


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    expected = _split_bits() + _cis_bits() + _sphere_bits()
    monkeypatch.setattr(specfun, "_helper_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    threads = set(threading.enumerate())
    assert _split_bits() + _cis_bits() + _sphere_bits() == expected
    assert sample_volume(exactlaw.ModelParams(3, 2.0, 1.0), RngStream(2, 0).generator(), 20_000).size == 20_000
    assert specfun._helper_pool is None
    assert set(threading.enumerate()) == threads
