import hashlib
import itertools
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

import pdvol.sampling as sampling
import pdvol.specfun as specfun
from pdvol.errors import ConvergenceError, DomainError
from pdvol.exactlaw import ModelParams, log_angular_simplex_moment, radius_cdf, volume_moment
from pdvol.sampling import (
    MAX_TETRAHEDRON_VOLUME_IN_BALL,
    MAX_TRIANGLE_AREA_IN_DISK,
    RngStream,
    angular_acceptance_rate,
    check_product_identity,
    ks_statistic,
    sample_angular_delta,
    sample_angular_simplex,
    sample_beta,
    sample_circumradius,
    sample_gamma,
    sample_lhs_product,
    sample_rhs_product,
    sample_volume,
)


def test_reproducibility_bit_identical():
    a = sample_volume(ModelParams(2, -1.0, 1.0), RngStream(123, 5).generator(), 5000)
    b = sample_volume(ModelParams(2, -1.0, 1.0), RngStream(123, 5).generator(), 5000)
    assert np.array_equal(a, b)
    c = sample_volume(ModelParams(2, -1.0, 1.0), RngStream(123, 6).generator(), 5000)
    assert not np.array_equal(a, c)


def test_stream_independence_dispersion():
    # variance of per-stream means should match variance / stream size
    p = ModelParams(2, -1.0, 1.0)
    per = 2000
    means = []
    allv = []
    for sid in range(64):
        v = sample_circumradius(p, RngStream(42, sid).generator(), size=per)
        means.append(v.mean())
        allv.append(v)
    pooled_var = np.concatenate(allv).var()
    stat = np.var(means, ddof=1) * per / pooled_var  # ~ chi2_63 / 63
    assert 0.5 < stat < 1.7


def test_gamma_beta_moments():
    rng = RngStream(7, 0).generator()
    g = sample_gamma(1.0, 1.0, rng, size=10**5)
    assert abs(g.mean() - 1.0) < 4.0 * g.std() / math.sqrt(len(g))
    g = sample_gamma(2.5, 3.0, rng, size=10**5)
    assert abs(g.mean() - 2.5 / 3.0) < 4.0 * g.std() / math.sqrt(len(g))
    b = sample_beta(1.0, 1.0, rng, size=10**4)
    _, p = ks_statistic(b, lambda t: np.clip(t, 0.0, 1.0))
    assert p > 0.01
    with pytest.raises(DomainError):
        sample_gamma(-1.0, 1.0, rng)
    with pytest.raises(DomainError):
        sample_beta(0.0, 1.0, rng)


def test_circumradius_moments_and_law():
    p = ModelParams(2, -1.0, 1.0)
    r = sample_circumradius(p, RngStream(11, 1).generator(), size=10**5)
    r2 = r**2
    # E R^2 = (n+mu+1)/(gamma kappa_n) = 2/pi here
    assert abs(r2.mean() - 2.0 / math.pi) < 4.0 * r2.std() / math.sqrt(len(r2))
    _, pv = ks_statistic(r, lambda t: radius_cdf(p, t))
    assert pv > 0.01
    # quadrupling the intensity quarters E R^2
    r4 = sample_circumradius(ModelParams(2, -1.0, 4.0), RngStream(11, 2).generator(), size=10**5)
    ratio = (r4**2).mean() / r2.mean()
    assert ratio == pytest.approx(0.25, rel=0.03)


def test_angular_sampler_mean():
    # accepted mean of Delta equals the ratio of angular moments
    d = sample_angular_delta(2, -1.0, RngStream(3, 0).generator(), 10**5)
    target = math.exp(log_angular_simplex_moment(2, 2.0) - log_angular_simplex_moment(2, 1.0))
    assert abs(d.mean() - target) < 4.0 * d.std() / math.sqrt(len(d))


def test_angular_acceptance_rate():
    rate = angular_acceptance_rate(2, 0.0, RngStream(3, 1).generator(), 10**5)
    target = math.exp(log_angular_simplex_moment(2, 2.0)) / MAX_TRIANGLE_AREA_IN_DISK**2
    se = math.sqrt(target * (1.0 - target) / 10**5)
    assert abs(rate - target) < 5.0 * se
    # degenerate collinear proposals are never accepted
    assert (0.0 / MAX_TRIANGLE_AREA_IN_DISK) ** (0.0 + 2.0) == 0.0


def test_extremal_simplex_constants():
    # numeric maximization confirms the rejection envelopes
    def neg_area(th):
        x, y = np.cos(th), np.sin(th)
        return -0.5 * abs((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))

    best = min(
        minimize(neg_area, np.random.default_rng(k).uniform(0, 2 * math.pi, 3), method="Nelder-Mead").fun
        for k in range(8)
    )
    assert -best == pytest.approx(MAX_TRIANGLE_AREA_IN_DISK, rel=1e-6)

    def neg_vol(ang):
        th, ph = ang[:4], ang[4:]
        u = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
        e = u[1:] - u[:1]
        return -abs(np.linalg.det(e)) / 6.0

    best = min(
        minimize(
            neg_vol,
            np.random.default_rng(k).uniform(0.1, math.pi - 0.1, 8),
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12},
        ).fun
        for k in range(12)
    )
    assert -best == pytest.approx(MAX_TETRAHEDRON_VOLUME_IN_BALL, rel=1e-5)


def test_single_tuple_sampler():
    u, delta = sample_angular_simplex(3, -1.0, RngStream(5, 0).generator())
    assert u.shape == (4, 3)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
    e = u[1:] - u[:1]
    assert delta == pytest.approx(abs(np.linalg.det(e)) / 6.0, rel=1e-12)


def test_volume_moments_match_exact_law():
    for k, (n, mu) in enumerate([(2, -1.0), (2, 0.0), (2, 1.0), (3, -1.0), (3, 0.0), (3, 1.0)]):
        p = ModelParams(n, mu, 1.0)
        size = 10**6 if n == 2 else 3 * 10**5
        v = sample_volume(p, RngStream(99, k).generator(), size)
        for s in (0.5, 1.0, 2.0):
            vs = v**s
            se = vs.std() / math.sqrt(len(vs))
            assert abs(vs.mean() - volume_moment(p, s)) < 4.0 * se


def test_rhs_product_mean():
    p = ModelParams(2, -1.0, 1.0)
    x = sample_rhs_product(p, RngStream(21, 0).generator(), 10**5)
    # Gamma(4)/Gamma(2) / (gamma kappa_2)^2 * prod E xi_i = 6 * (2/9) / pi^2
    target = 6.0 * (1.0 / 3.0) * (2.0 / 3.0) / math.pi**2
    assert abs(x.mean() - target) < 4.0 * x.std() / math.sqrt(len(x))


def test_product_identity_ks():
    for n, mu in [(2, -1.0), (3, 0.0)]:
        rep = check_product_identity(ModelParams(n, mu, 1.0), 3 * 10**4, RngStream(77, n).generator())
        assert rep.p_value > 0.01


def test_ks_statistic_contract():
    rng = RngStream(1, 0).generator()
    u = rng.uniform(size=10**4)
    _, p = ks_statistic(u, lambda t: np.clip(t, 0.0, 1.0))
    assert p > 0.01
    _, p = ks_statistic(u + 0.5, lambda t: np.clip(t, 0.0, 1.0))
    assert p < 1e-6
    stat, _ = ks_statistic(np.full(100, 0.5), lambda t: np.clip(np.asarray(t, float), 0.0, 1.0))
    assert stat >= 0.5
    with pytest.raises(DomainError):
        ks_statistic(u[:10], lambda t: t)
    # two-sample form: either sample below 25 observations is refused
    stat, p = ks_statistic(u[:5000], u[5000:])
    assert 0.0 <= stat < 0.05 and p > 0.01
    with pytest.raises(DomainError):
        ks_statistic(u[:24], u)
    with pytest.raises(DomainError):
        ks_statistic(u, u[:24])


def test_product_identity_refuses_too_few_draws_before_drawing():
    rng = RngStream(77, 2).generator()
    state = repr(rng.bit_generator.state)
    with pytest.raises(DomainError, match="at least 25"):
        check_product_identity(ModelParams(2, -1.0, 1.0), 24, rng)
    assert repr(rng.bit_generator.state) == state
    rep = check_product_identity(ModelParams(2, -1.0, 1.0), 25, rng)
    assert (rep.n_lhs, rep.n_rhs) == (25, 25)


def test_acceptance_starvation(monkeypatch):
    monkeypatch.setattr(sampling, "_PROPOSAL_BUDGET", 20000)
    with pytest.raises(ConvergenceError, match="proposals"):
        sample_angular_delta(3, 60.0, RngStream(0, 0).generator(), 10)


# Philox counter after the call and three values of 2000 volume draws from
# RngStream(20261018, 3), recorded with the LAPACK-determinant kernel:
# chunk sizes, proposal order and accept decisions must all stay as they were
PINNED_STREAMS = {
    (2, -1.0): (9029, 0.16360330397982367, 0.29967565960988235, 1015.65288583676),
    (2, 3.0): (22042, 1.4749824810542433, 1.8330083707632827, 4200.9223871266695),
    (3, -1.0): (41130, 0.04710137402503183, 0.04528346511377502, 296.1110846233351),
    (3, 2.0): (229304, 0.27844789487603167, 0.38732547914709414, 935.8937011115636),
}


@pytest.mark.parametrize("n,mu", sorted(PINNED_STREAMS))
def test_pinned_streams(n, mu):
    counter, first, last, total = PINNED_STREAMS[(n, mu)]
    rng = RngStream(20261018, 3).generator()
    v = sample_volume(ModelParams(n, mu, 1.0), rng, 2000)
    assert rng.bit_generator.state["state"]["counter"].tolist() == [counter, 0, 0, 0]
    assert v[0] == pytest.approx(first, rel=1e-12)
    assert v[-1] == pytest.approx(last, rel=1e-12)
    assert v.sum() == pytest.approx(total, rel=1e-12)


def test_over_budget_refused_before_drawing():
    # (2, 5): exact acceptance rate 0.0739, so 1.5e6 draws need about 2e7 proposals
    p = ModelParams(2, 5.0, 1.0)
    for sampler in (sample_volume, sample_lhs_product):
        rng = RngStream(4, 0).generator()
        before = repr(rng.bit_generator.state)
        with pytest.raises(ConvergenceError, match=r"proposals.*0\.0739") as info:
            sampler(p, rng, 1_500_000)
        assert "2.03e+07" in str(info.value)
        assert repr(rng.bit_generator.state) == before
    with pytest.raises(ConvergenceError, match="proposals"):
        sample_angular_delta(2, 5.0, RngStream(4, 0).generator(), 1_500_000)


def test_budget_edge(monkeypatch):
    # n = 2, mu = -1: rate 0.36755, so 1000 draws expect 2720.7 proposals
    monkeypatch.setattr(sampling, "_PROPOSAL_BUDGET", 2721)
    v = sample_volume(ModelParams(2, -1.0, 1.0), RngStream(8, 0).generator(), 1000)
    assert len(v) == 1000 and np.all(v > 0.0)
    monkeypatch.setattr(sampling, "_PROPOSAL_BUDGET", 2720)
    with pytest.raises(ConvergenceError, match="proposals"):
        sample_volume(ModelParams(2, -1.0, 1.0), RngStream(8, 0).generator(), 1000)


def test_angular_domain_errors():
    rng = RngStream(0, 0).generator()
    with pytest.raises(DomainError):
        sample_angular_delta(4, -1.0, rng, 10)
    with pytest.raises(DomainError):
        sample_volume(ModelParams(5, -1.0, 1.0), rng, 10)
    # the acceptance rate shares the sampler's domain: (Delta/Delta_max)^(mu+2)
    # is no probability at mu <= -2
    for mu in (-2.0, -3.0, math.nan):
        with pytest.raises(DomainError):
            angular_acceptance_rate(2, mu, rng, 1000)


SIZED_SAMPLERS = {
    "sample_volume": lambda rng, size: sample_volume(ModelParams(2, -1.0, 1.0), rng, size),
    "sample_angular_delta": lambda rng, size: sample_angular_delta(3, 0.0, rng, size),
    "sample_rhs_product": lambda rng, size: sample_rhs_product(ModelParams(3, 0.0, 1.0), rng, size),
    "sample_lhs_product": lambda rng, size: sample_lhs_product(ModelParams(3, 0.0, 1.0), rng, size),
    "sample_circumradius": lambda rng, size: sample_circumradius(ModelParams(2, -1.0, 1.0), rng, size=size),
}


@pytest.mark.parametrize("name", sorted(SIZED_SAMPLERS))
def test_sampler_refuses_bad_size_before_drawing(name):
    rng = RngStream(0, 0).generator()
    before = repr(rng.bit_generator.state)
    bad = [-1, 2.5, 3.0, np.float64(4.0), "10", True, (2, 3)]
    for size in bad + ([] if name == "sample_circumradius" else [None]):
        with pytest.raises(DomainError, match="size"):
            SIZED_SAMPLERS[name](rng, size)
    assert repr(rng.bit_generator.state) == before
    for size in (0, np.int64(3)):
        assert len(SIZED_SAMPLERS[name](rng, size)) == size


def test_circumradius_without_size_is_one_draw():
    assert np.ndim(sample_circumradius(ModelParams(2, -1.0, 1.0), RngStream(0, 0).generator())) == 0


def test_acceptance_rate_refuses_bad_count_before_drawing():
    rng = RngStream(0, 0).generator()
    before = repr(rng.bit_generator.state)
    for n in (2, 3):
        for count in (0, -5, 2.5, 10001.5, 3.0, True, "10", None):
            with pytest.raises(DomainError, match="n_proposals"):
                angular_acceptance_rate(n, 0.0, rng, count)
    assert repr(rng.bit_generator.state) == before
    assert 0.0 < angular_acceptance_rate(2, 0.0, rng, np.int64(7)) < 1.0


# sha256 of every sampler output and generator state below, and the count
# passed to each proposal-kernel call, recorded before the angular kernels
# were rewritten around per-component arrays: the rewrite must keep the
# random stream, the batch sizes and every accept decision bit for bit
SAMPLER_DIGEST = "1f60bb39e4e7674396ba79b1fc71d11c4cbdf547b68ca40ca45f7cd04aa04ac5"
MONTECARLO_POINTS = ((2, -1.0), (2, 0.0), (2, 1.0), (2, 3.0), (3, -1.0), (3, 0.0), (3, 2.0))
PROPOSAL_CALLS = (
    [(2, 4096)] * 2 + [(2, 8000)] + [(2, 4096)] * 2 + [(2, 8000)] + [(2, 4096)] * 3 + [(2, 8000)]
    + [(2, 4096)] * 4 + [(2, 8000), (2, 4832)] + [(2, 4096)] * 2
    + [(3, 4096)] * 2 + [(3, 8000)] + [(3, 4096)] * 3 + [(3, 8000), (3, 4980)] + [(3, 4096)] * 5
    + [(3, 8000), (3, 7016), (3, 6244), (3, 5580), (3, 4896), (3, 4388)] + [(3, 4096)] * 9
    + [(2, 4096)] * 10 + [(3, 4096)] * 10
    + [(2, 5000), (3, 5000)]
)


def _record_kernel_calls(monkeypatch):
    """List that collects the (n, count) of every proposal-kernel call."""
    calls = []
    for n, name in ((2, "_uniform_circle"), (3, "_uniform_sphere")):
        kernel = getattr(sampling, name)

        def counted(rng, count, n=n, kernel=kernel):
            calls.append((n, count))
            return kernel(rng, count)

        monkeypatch.setattr(sampling, name, counted)
    return calls


def test_sampler_bit_identical_to_recorded_digest(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    h = hashlib.sha256()
    for k, (n, mu) in enumerate(MONTECARLO_POINTS):
        for size in (1, 7, 2000):
            rng = RngStream(20261018, k).generator()
            h.update(sample_volume(ModelParams(n, mu, 1.0), rng, size).tobytes())
            h.update(repr(rng.bit_generator.state).encode())
    for n in (2, 3):
        for seed in range(10):
            u, delta = sample_angular_simplex(n, 1.0, RngStream(seed, n).generator())
            h.update(u.tobytes())
            h.update(struct.pack("<d", delta))
    rng = RngStream(31, 0).generator()
    for n, mu in ((2, 0.0), (3, 2.0)):
        h.update(struct.pack("<d", angular_acceptance_rate(n, mu, rng, 5000)))
    assert calls == PROPOSAL_CALLS
    assert h.hexdigest() == SAMPLER_DIGEST


# sha256 as above over batches that span several kernel blocks: 20000 volume
# draws at each montecarlo point (the first batch proposes 80000 tuples and
# ends in a partial block) with the generator state after each, the statistic
# and p-value of a product-identity check at (3, 0), and the 73 recorded
# kernel calls; recorded before the kernels drew their batches in blocks
BLOCKED_DIGEST = "efc5814c74fa6a3f7328a9c73c13e97593bd62e7c1f10eabf055b1331ee314d7"


def test_multiblock_batches_bit_identical_to_recorded_digest(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    h = hashlib.sha256()
    for k, (n, mu) in enumerate(MONTECARLO_POINTS):
        rng = RngStream(20261019, k).generator()
        h.update(sample_volume(ModelParams(n, mu, 1.0), rng, 20_000).tobytes())
        h.update(repr(rng.bit_generator.state).encode())
    rep = check_product_identity(ModelParams(3, 0.0, 1.0), 20_000, RngStream(20261019, 7).generator())
    h.update(struct.pack("<dd", rep.statistic, rep.p_value))
    h.update(repr(calls).encode())
    assert calls[0] == (2, 80_000)
    assert len(calls) == 73 and sum(count for _, count in calls) == 1_727_940
    assert h.hexdigest() == BLOCKED_DIGEST


def _sample_volume_peak(n, mu, size):
    """tracemalloc peak (bytes) of ``size`` volume draws at (n, mu)."""
    tracemalloc.start()
    try:
        sample_volume(ModelParams(n, mu, 1.0), RngStream(1, 0).generator(), size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks (bytes) of 1e5 volume draws before the per-component
# rewrite, when one batch's unit vectors were still alive while the next batch
# was drawn; blocked kernels measured 0.12 and 0.44 of them
PEAK_BEFORE = {(3, 2.0): 123_996_248, (2, -1.0): 34_402_616}


@pytest.mark.parametrize("n,mu,share", [(3, 2.0, 0.25), (2, -1.0, 0.6)])
def test_sampler_memory_peak(n, mu, share):
    assert _sample_volume_peak(n, mu, 10**5) <= share * PEAK_BEFORE[(n, mu)]


def test_sampler_memory_peak_of_one_large_batch():
    # 1e6 draws at (3, -1) propose one batch of 2e6 tetrahedra: 476 MB when
    # the kernel drew the whole batch at once, 92 MB in blocks
    assert _sample_volume_peak(3, -1.0, 10**6) <= 150e6


# batches of several kernel blocks, each ending in a partial block
HELPER_COUNTS = (8193, 3 * 8192, 80_000, 123_457)


def _kernel_bits(name, counts=HELPER_COUNTS):
    """sha256 of the volumes and the generator state after each batch."""
    h = hashlib.sha256()
    for count in counts:
        rng = RngStream(20261019, count).generator()
        vol, points = getattr(sampling, name)(rng, count)
        assert points is None and len(vol) == count
        h.update(vol.tobytes())
        h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


def _refuse_helper():
    raise AssertionError("a one-block batch asked for the helper")


@pytest.mark.parametrize("name", ["_uniform_circle", "_uniform_sphere"])
def test_helper_keeps_every_bit(name, monkeypatch, idle_helper):
    natural = _kernel_bits(name)
    monkeypatch.setattr(specfun, "_helper", lambda: None)  # helper always busy: every block inline
    inline = _kernel_bits(name)
    monkeypatch.setattr(specfun, "_helper", lambda: idle_helper)  # every block on the helper
    offloaded = _kernel_bits(name)
    assert idle_helper.threads and threading.get_ident() not in idle_helper.threads
    assert natural == inline == offloaded


def test_one_block_batches_stay_inline(monkeypatch):
    monkeypatch.setattr(specfun, "_helper", _refuse_helper)
    for name in ("_uniform_circle", "_uniform_sphere"):
        vol, points = getattr(sampling, name)(RngStream(5, 0).generator(), 8192)
        assert len(vol) == 8192 and points is not None
    for n in (2, 3):
        u, _ = sample_angular_simplex(n, 1.0, RngStream(5, n).generator())
        assert u.shape == (n + 1, n)


@pytest.mark.parametrize("mode", ["inline", "idle", "started"])
def test_failing_block_raises_from_kernel_call(mode, monkeypatch, idle_helper):
    expected = _kernel_bits("_uniform_circle", (80_000,))
    reduce = sampling._triangle_areas
    blocks = itertools.count()

    def failing(th, area):
        if next(blocks) == 2:
            raise FloatingPointError("third block")
        return reduce(th, area)

    monkeypatch.setattr(sampling, "_triangle_areas", failing)
    if mode == "inline":
        monkeypatch.setattr(specfun, "_helper", lambda: None)
    elif mode == "idle":
        monkeypatch.setattr(specfun, "_helper", lambda: idle_helper)
    with pytest.raises(FloatingPointError, match="third block"):
        sampling._uniform_circle(RngStream(20261019, 80_000).generator(), 80_000)
    assert next(blocks) > 2
    monkeypatch.undo()
    # the helper is left usable
    assert _kernel_bits("_uniform_circle", (80_000,)) == expected
