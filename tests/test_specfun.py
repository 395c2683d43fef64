import math

import mpmath as mp
import numpy as np
import pytest

from pdvol.errors import DomainError
from pdvol.specfun import (
    SHIFT_MIN,
    BarnesShift,
    GammaShift,
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


def test_polygamma_domain():
    with pytest.raises(DomainError):
        polygamma(0, 1.0)
    with pytest.raises(DomainError):
        polygamma(1, -1.0)
    with pytest.raises(DomainError):
        digamma(0.0)


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


def test_gamma_shift_against_mpmath():
    # both branches: plain log-gammas below SHIFT_MIN, Stirling's shift form above
    for x in (0.3, 2.5, 9.99, 10.0, 37.5, 1e3, 5e11):
        for h in (0.7, 2.0, -0.29, -0.2 + 3j, 5.0 - 40j, 1e-7j):
            if (x + h).real <= 0:
                continue
            with mp.workdps(30):
                ref = complex(mp.loggamma(mp.mpf(x) + mp.mpmathify(h)) - mp.loggamma(mp.mpf(x)))
            got = complex(GammaShift(x)(h))
            assert abs(got - ref) <= 5e-15 * max(1.0, abs(ref))
    x = np.array([1.5, 40.0, 1e6])
    assert np.all(GammaShift(x)(0.0) == 0.0) and np.all(GammaShift(x)(0j) == 0.0)


def test_barnes_shift_against_mpmath():
    for x in (SHIFT_MIN, 10.5, 37.0, 1e3, 5e5):
        for a in (0.3, -0.45, 7.0, 3 + 4j, 1e-3j, -0.45 + 30j):
            if (x + a).real < SHIFT_MIN:
                continue
            with mp.workdps(30):
                w = mp.mpf(x) + mp.mpmathify(a)
                ref = complex(mp.log(mp.barnesg(w + 1)) - mp.log(mp.barnesg(mp.mpf(x) + 1)))
            got = complex(BarnesShift(x)(a))
            # mpmath's log of G is principal; the shift is the continuation
            turns = round((got.imag - ref.imag) / (2.0 * math.pi))
            ref += 2j * math.pi * turns
            assert abs(got - ref) <= 5e-15 * max(1.0, abs(ref))
            # the branch: G(w+1) = Gamma(w) G(w) links neighbouring shifts
            step = complex(BarnesShift(x + 1.0)(a) - BarnesShift(x)(a))
            assert step == pytest.approx(complex(GammaShift(x + 1.0)(a)), rel=1e-10, abs=1e-12)
    assert np.all(BarnesShift([10.0, 1e6])(0j) == 0.0)
    with pytest.raises(DomainError):
        BarnesShift(SHIFT_MIN - 0.5)
    with pytest.raises(DomainError):
        BarnesShift(12.0)(-2.5 + 1j)


def test_barnes_domain():
    with pytest.raises(DomainError):
        log_barnes_g(0.0)
    with pytest.raises(DomainError):
        log_barnes_g_shift_asymptotic(-1.0, 1.0)


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
