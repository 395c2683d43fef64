"""The package's domain contract: a public function returns a finite value,
or raises DomainError or ConvergenceError in its own name, naming the bound
it refuses at.  It never returns NaN or inf, never raises OverflowError or
TypeError, and never warns (warnings are errors here).

First the edges where it broke, each a case, with the finite values next to
each bound keeping the bits of the plain formula; then one sweep that calls
every public function on an edge grid, n in {2, 3, 50, 1e4, 1e8}, mu in
{-1.99, -1, 0, 1e6}, gamma in {1e-300, 1, 1e300} and real s or z from -1e308
to 1e300 plus imaginary points, and hashes every finite output into one
sha256 recorded before the real rule was added; and a hypothesis strategy
over ``ModelParams`` and the strip."""

import hashlib
import math
import warnings
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdvol import cumulants as cm
from pdvol import delaunay2d as dl
from pdvol import distribution as ds
from pdvol import exactlaw as ex
from pdvol import polygamma_sums as ps
from pdvol import sampling as sm
from pdvol import specfun
from pdvol.cumulants import concentration_envelope
from pdvol.distribution import mod_gaussian_limit, mod_gaussian_residual
from pdvol.errors import ConvergenceError, DomainError
from pdvol.exactlaw import ModelParams, cgf, log_volume_moment, typical_volume_moment, volume_moment
from pdvol.specfun import log_barnes_g, log_barnes_g_shift_asymptotic, polygamma

TINY = ModelParams(2, -1.99, 1e-300)
LARGEST = "exceeds the largest float"


@dataclass
class Case:
    function: str
    label: str
    call: Callable  # call() with the edge arguments
    refused: Optional[str] = None  # what the refusal's message names; None: a finite value
    value: Optional[float] = None  # the finite value, where one is returned


CASES = [
    # 200! was converted to a float: OverflowError
    Case("polygamma", "m200", lambda: polygamma(200, 1.0), r"m in \[1, 170\]"),
    Case("polygamma", "x1e-300", lambda: polygamma(1, 1e-300), LARGEST),  # was inf
    # w * w overflowed to inf
    Case("log_barnes_g", "x1e154", lambda: log_barnes_g(1e154), f"{LARGEST} .* from about x = 1.01e153"),
    Case("log_barnes_g", "x1e300", lambda: log_barnes_g(1e300), f"{LARGEST} .* from about x = 1.01e153"),
    Case("log_barnes_g_shift_asymptotic", "z1e300-a1e300", lambda: log_barnes_g_shift_asymptotic(1e300, 1e300),
         LARGEST),  # was inf
    # math.exp of the log raised OverflowError
    Case("volume_moment", "s2.5", lambda: volume_moment(TINY, 2.5), f"{LARGEST} .*; log_volume_moment"),
    Case("typical_volume_moment", "s1e3", lambda: typical_volume_moment(2, 1e-300, 1e3), LARGEST),
    Case("mod_gaussian_residual", "z1e3", lambda: mod_gaussian_residual(TINY, 1e3), LARGEST),
    Case("mod_gaussian_limit", "mu1e6", lambda: mod_gaussian_limit(1e6, -0.5), LARGEST),
    # NaN from inf - inf of two Barnes values
    Case("mod_gaussian_limit", "mu1e300", lambda: mod_gaussian_limit(1e300, 0.5), LARGEST),
    # NaN from inf / inf; y^2 / (2 + c y / eps) is y eps / c = 1 here
    Case("concentration_envelope", "y1e300", lambda: concentration_envelope(1e300, 1.0, 1e-300),
         value=2.0 / math.e),
    # the limit overflowed in mod_gaussian_limit, and was refused in its name
    Case("mod_gaussian_residual", "mu1e6", lambda: mod_gaussian_residual(ModelParams(2, 1e6), -0.5),
         f"the limit = exp.* {LARGEST}"),
]
# 0.5 w w in a Barnes end overflowed with a warning from about |z| = 2e153,
# wherever the plan has Barnes ends (n >= 23)
for _p in (ModelParams(n, mu) for n in (23, 50, 10**4, 10**8) for mu in (-1.99, -1.0, 1e6)):
    _label = f"n{_p.n}-mu{_p.mu:g}"
    CASES += [
        Case("cgf", f"{_label}-z1e200", lambda p=_p: cgf(p, 1e200), LARGEST),
        Case("cgf", f"{_label}-z1e154i", lambda p=_p: cgf(p, np.array([0.5, 1e154j])), LARGEST),
        Case("log_volume_moment", f"{_label}-s1e154", lambda p=_p: log_volume_moment(p, 1e154), LARGEST),
        Case("volume_moment", f"{_label}-s1e300", lambda p=_p: volume_moment(p, 1e300), LARGEST),
        Case("mod_gaussian_residual", f"{_label}-z1e200", lambda p=_p: mod_gaussian_residual(p, 1e200), LARGEST),
    ]
IDS = [f"{case.function}-{case.label}" for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_finite_or_refused(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case.refused is not None:
            with pytest.raises((DomainError, ConvergenceError), match=rf"^{case.function}: .*{case.refused}"):
                case.call()
            return
        value = case.call()
    assert math.isfinite(value) and value == pytest.approx(case.value, rel=1e-15)


def test_finite_values_next_to_the_bounds_keep_their_bits():
    x = np.array([1.0, 2.5])
    assert polygamma(170, 2.0) == float(specfun._polygamma(170, np.asarray(2.0)))
    assert polygamma(3, x).tobytes() == specfun._polygamma(3, x).tobytes()
    assert log_barnes_g(1.01e153) == specfun._log_barnes_g_asymptotic(1.01e153)
    assert math.isfinite(log_barnes_g(1.01e153))
    z, a = 1e150, 1e150
    plain = a * (z * math.log(z) - z + specfun._LN_SQRT_2PI) + 0.5 * a * a * math.log(z)
    assert log_barnes_g_shift_asymptotic(z, a) == plain
    assert volume_moment(TINY, 1.0) == math.exp(log_volume_moment(TINY, 1.0))
    mu, z = 1e6, 0.5
    assert mod_gaussian_limit(mu, z) == math.exp(
        log_barnes_g((3.0 + mu) / 2.0) + log_barnes_g(2.0 + mu / 2.0)
        - log_barnes_g((3.0 + mu + z) / 2.0) - log_barnes_g(2.0 + (mu + z) / 2.0)
    )
    for y, c, eps in ((3.0, 1.0, 10.0), (1e150, 1.0, 1e-150), (1e300, 1.0, 1e300)):
        assert concentration_envelope(y, c, eps) == 2.0 * math.exp(-y * y / (2.0 + c * y / eps))
    # below the Barnes ends' overflow the values keep their bits, however
    # inaccurate (ROADMAP item 10 makes them right)
    assert cgf(ModelParams(50, -1.0), 1e150).hex() == "-0x1.5e17e19c954f4p+510"
    assert log_volume_moment(ModelParams(10**8, 1e6), 1e150).hex() == "-0x1.0000000000000p+950"
    assert cgf(ModelParams(23, -1.99), 1e153).hex() == "-0x1.0000000000000p+970"
    value = cgf(ModelParams(10**4, 0.0), 1e153j)
    assert (value.real.hex(), value.imag.hex()) == ("-0x1.0000000000000p+969", "-0x1.061146c94e4dap+529")


# --- the sweep ---------------------------------------------------------------

NS = (2, 3, 50, 10**4, 10**8)
MUS = (-1.99, -1.0, 0.0, 1e6)
GAMMAS = (1e-300, 1.0, 1e300)
REALS = (-1e308, -1e6, -3.0, -1.0, -0.5, 0.0, 1e-300, 0.5, 1.0, 2.5, 10.0, 1e3, 1e6, 1e10, 1e150, 1e154, 1e200, 1e300)
IMAGINARY = tuple(1j * y for y in (1e-3, 1.0, 1e3, 1e154, 1e300))
PARAMS = [ModelParams(n, mu, g) for n in NS for mu in MUS for g in GAMMAS]
#: the O(n) direct sums allocate n doubles, 800 MB at n = 1e8
DIRECT_NS = tuple(n for n in NS if n <= 10**4)
#: an inversion costs about 10 ms; gamma only shifts the mean
INVERTED = [ModelParams(n, mu) for n in (2, 50, 10**8) for mu in (-1.99, 1e6)]
REGIMES = [cm.RegimeSpec("fixed_mu"), cm.RegimeSpec("near_equal_weight"), cm.RegimeSpec("fixed_n"),
           cm.RegimeSpec("mu_power", 0.5), cm.RegimeSpec("n_power", 0.25), cm.RegimeSpec("n_power", 0.5),
           cm.RegimeSpec("n_power", 0.75), cm.RegimeSpec("mu_linear", 1.0)]
#: sha256 of the sweep's finite outputs, recorded before the real rule was
#: added; NEWLY_FINITE's calls are left out of it
SWEEP_DIGEST = "e8d48f09ae6f583c09ae412ba9b3bcc204abb1eea25ede09a6b13dd651b8bea1"
SWEEP_FINITE = 8405
#: raised OverflowError then, at (a + 1)^(m - 1): the bound is 0 there
NEWLY_FINITE = {f"polygamma_sum_bound_check({a:g},{k},5)" for a in (1e150, 1e154, 1e200, 1e300)
                for k in (2, 3, 50, 10**4)}


def _q(p):
    return f"{p.n},{p.mu:g},{p.gamma:g}"


def _rng(k):
    return sm.RngStream(11, k).generator()


def _sweep_calls():
    """(function, label, call) for every call of the sweep, each public
    function on the edge grid; the samplers draw at most 25 values, and the
    torus is the 144-point one of the integer rule's tests."""
    for x in REALS:
        yield "ModelParams", f"mu{x:g}", lambda x=x: ModelParams(3, x)
        yield "ModelParams", f"gamma{x:g}", lambda x=x: ModelParams(3, 0.0, x)
    for n in NS:
        yield "log_typical_cell_constant", f"{n}", lambda n=n: ex.log_typical_cell_constant(n)
        yield "mod_gaussian_speed", f"{n}", lambda n=n: ds.mod_gaussian_speed(n)
        yield "log_unit_ball_volume", f"{n}", lambda n=n: specfun.log_unit_ball_volume(n)
        yield "log_unit_sphere_area", f"{n}", lambda n=n: specfun.log_unit_sphere_area(n)
        for r, regime in enumerate(REGIMES):
            yield "deviation_scale", f"{r},{n}", lambda regime=regime, n=n: cm.deviation_scale(regime, n)
    for n in DIRECT_NS:
        for s in REALS:
            yield "log_angular_simplex_moment", f"{n},{s:g}", lambda n=n, s=s: ex.log_angular_simplex_moment(n, s)
            for g in GAMMAS:
                yield ("typical_volume_moment", f"{n},{g:g},{s:g}",
                       lambda n=n, g=g, s=s: ex.typical_volume_moment(n, g, s))
                for mu in (-1, 0, 10**6):
                    yield ("sphere_representation_gap", f"{n},{mu},{s:g},{g:g}",
                           lambda n=n, mu=mu, s=s, g=g: ex.sphere_representation_gap(n, mu, s, g))
    points = np.array(REALS + IMAGINARY)
    for p in PARAMS:
        yield "StandardizedLaw", _q(p), lambda p=p: ds.StandardizedLaw.from_params(p)
        yield "cgf", f"{_q(p)},grid", lambda p=p: cgf(p, points[points.real > ex.strip_edge(p) + ex.STRIP_GUARD])
        for z in REALS + IMAGINARY:
            yield "cgf", f"{_q(p)},{z:g}", lambda p=p, z=z: cgf(p, z)
        for s in REALS:
            yield "log_volume_moment", f"{_q(p)},{s:g}", lambda p=p, s=s: log_volume_moment(p, s)
            yield "volume_moment", f"{_q(p)},{s:g}", lambda p=p, s=s: volume_moment(p, s)
            yield "mod_gaussian_residual", f"{_q(p)},{s:g}", lambda p=p, s=s: mod_gaussian_residual(p, s)
            yield ("mod_gaussian_residual", f"{_q(p)},{s:g},stated",
                   lambda p=p, s=s: mod_gaussian_residual(p, s, adjusted=False))
            for variant in (ds.LDP_CENTERING, ds.MODPHI_CENTERING):
                yield ("ldp_scaled_cgf", f"{_q(p)},{s:g},{variant.kind}",
                       lambda p=p, s=s, v=variant: ds.ldp_scaled_cgf(p, s, v))
            if s >= 0.0:
                yield "radius_cdf", f"{_q(p)},{s:g}", lambda p=p, s=s: ex.radius_cdf(p, s)
        yield "radius_cdf", f"{_q(p)},inf", lambda p=p: ex.radius_cdf(p, np.array([0.0, 1.0, math.inf]))
        for m in (1, 2, 3, 8):
            yield "cumulant_exact", f"{_q(p)},{m}", lambda p=p, m=m: cm.cumulant_exact(p, m)
        for m in (1, 4):
            yield "cumulant_fd_oracle", f"{_q(p)},{m}", lambda p=p, m=m: cm.cumulant_fd_oracle(p, m)
        yield "cumulant_report", _q(p), lambda p=p: cm.cumulant_report(p, 2)
        yield "mean_expansion", _q(p), lambda p=p: cm.mean_expansion(p)
        yield "variance_expansion", _q(p), lambda p=p: cm.variance_expansion(p)
        yield "cumulant_bound", _q(p), lambda p=p: cm.cumulant_bound(p, 3)
        for variant in (ds.LDP_CENTERING, ds.MODPHI_CENTERING):
            yield "centering", f"{_q(p)},{variant.kind}", lambda p=p, v=variant: ds.centering(v, p)
        yield "sample_circumradius", _q(p), lambda p=p: sm.sample_circumradius(p, _rng(1), 10)
        if p.n <= 3:
            yield "sample_volume", _q(p), lambda p=p: sm.sample_volume(p, _rng(2), 10)
            yield "sample_lhs_product", _q(p), lambda p=p: sm.sample_lhs_product(p, _rng(3), 10)
            yield "check_product_identity", _q(p), lambda p=p: sm.check_product_identity(p, 25, _rng(4))
        if p.n <= 50:  # a Beta draw per dimension
            yield "sample_rhs_product", _q(p), lambda p=p: sm.sample_rhs_product(p, _rng(5), 10)
    # a point far in a tail never lets the quadrature settle: one call pays
    # the panel budget for it
    yield "standardized_cdf", "far", lambda: ds.standardized_cdf(INVERTED[0], np.array([-1e300, 0.0, 1e300]))
    for p in INVERTED:
        yield "standardized_cdf", _q(p), lambda p=p: ds.standardized_cdf(p, np.array([-1.0, 0.0, 1.0]))
        yield ("cdf_inverted", _q(p),
               lambda p=p: ds.cdf_inverted(p, cm.cumulant_exact(p, 1) + np.array([-1.0, 0.0, 1.0])))
        yield "kolmogorov_distance_to_normal", _q(p), lambda p=p: ds.kolmogorov_distance_to_normal(p)
        yield "two_sided_tail", _q(p), lambda p=p: ds.two_sided_tail(p, 1.0)
    for mu in MUS:
        for z in REALS:
            yield "mod_gaussian_limit", f"{mu:g},{z:g}", lambda mu=mu, z=z: mod_gaussian_limit(mu, z)
    for x in REALS:
        for tag in ("mu_power", "n_power", "mu_linear"):
            yield "RegimeSpec", f"{tag},{x:g}", lambda tag=tag, x=x: cm.RegimeSpec(tag, x)
        for r, regime in enumerate(REGIMES):
            for g in GAMMAS:
                yield ("regime_expansion", f"{r},{x:g},{g:g}",
                       lambda regime=regime, x=x, g=g: cm.regime_expansion(regime, x, g))
        for c in GAMMAS:
            for eps in GAMMAS:
                yield ("concentration_envelope", f"{x:g},{c:g},{eps:g}",
                       lambda x=x, c=c, eps=eps: concentration_envelope(x, c, eps))
        yield "log_gamma", f"{x:g}", lambda x=x: specfun.log_gamma(x)
        yield "digamma", f"{x:g}", lambda x=x: specfun.digamma(x)
        for m in (1, 3, 170):
            yield "polygamma", f"{m},{x:g}", lambda m=m, x=x: polygamma(m, x)
        yield "log_barnes_g", f"{x:g}", lambda x=x: log_barnes_g(x)
        for a in REALS:
            yield ("log_barnes_g_shift_asymptotic", f"{x:g},{a:g}",
                   lambda x=x, a=a: log_barnes_g_shift_asymptotic(x, a))
            if a >= 0.0:
                yield ("reg_lower_incomplete_gamma", f"{x:g},{a:g}",
                       lambda x=x, a=a: specfun.reg_lower_incomplete_gamma(x, a))
        for k in (1, 2, 3, 50, 10**4):
            yield "digamma_sum_direct", f"{x:g},{k}", lambda x=x, k=k: ps.digamma_sum_direct(x, k)
            yield "trigamma_sum_direct", f"{x:g},{k}", lambda x=x, k=k: ps.trigamma_sum_direct(x, k)
            for m in (2, 5):
                yield ("polygamma_sum_bound_check", f"{x:g},{k},{m}",
                       lambda x=x, k=k, m=m: ps.polygamma_sum_bound_check(x, k, m))
        for k in (2, 3, 50, 10**4, 10**8):
            yield "digamma_sum_closed", f"{x:g},{k}", lambda x=x, k=k: ps.digamma_sum_closed(x, k)
            yield "digamma_sum_closed_alt", f"{x:g},{k}", lambda x=x, k=k: ps.digamma_sum_closed_alt(x, k)
            yield "trigamma_sum_closed", f"{x:g},{k}", lambda x=x, k=k: ps.trigamma_sum_closed(x, k)
        yield "GammaRatioSum", f"x{x:g}", lambda x=x: specfun.GammaRatioSum([(x, 1.0, 1.0)], [(2.0, 30)])(0.5)
        yield "GammaRatioSum", f"b{x:g}", lambda x=x: specfun.GammaRatioSum([(2.0, 1.0, 1.0)], [(x, 30)])(0.5)
        yield ("fit_envelope_coefficient", f"{x:g}",
               lambda x=x: ds.fit_envelope_coefficient([0.5, 0.1], [1.0, 2.0], x))
        yield "SimWindow", f"{x:g}", lambda x=x: dl.SimWindow(x)
        yield "SimWindow", f"12,{x:g}", lambda x=x: dl.SimWindow(12.0, x)
        yield ("sample_poisson_points", f"{x:g}",
               lambda x=x: dl.sample_poisson_points(x, dl.SimWindow(12.0), _rng(6)))
    plan = specfun.GammaRatioSum([(2.0, 1.0, 1.0)], [(1.5, 30)])
    for z in REALS + IMAGINARY:
        yield "GammaRatioSum", f"call{z:g}", lambda z=z: plan(z)
    for m in (1, 3):
        yield "GammaRatioSum.derivative", f"{m}", lambda m=m: plan.derivative(m)
    yield "identity_grid_report", "grid", lambda: ps.identity_grid_report((1e-300, 0.5, 1e300), (2, 3), (2,))
    window = dl.SimWindow(12.0, 0.0, "toroidal")
    torus = dl.delaunay_triangulate(dl.sample_poisson_points(1.0, window, sm.RngStream(5, 0).generator()),
                                    "toroidal", window.side)
    yield "delaunay_triangulate", "torus", lambda: dl.delaunay_triangulate(torus.points, "toroidal", window.side)
    yield "delaunay_triangulate", "plain", lambda: dl.delaunay_triangulate(torus.points)
    yield "audit_empty_circumdisk", "torus", lambda: dl.audit_empty_circumdisk(torus, 10, _rng(7))
    yield "tiling_defect", "torus", lambda: dl.tiling_defect(torus)
    yield "edge_incidence_counts", "torus", lambda: dl.edge_incidence_counts(torus)
    for mu in MUS:
        yield ("estimate_radius_cdf", f"{mu:g}",
               lambda mu=mu: dl.estimate_radius_cdf(torus, window, mu, np.array([0.0, 0.5, 1e300, math.inf])))
        for s in REALS:
            yield ("estimate_typical_moment", f"{mu:g},{s:g}",
                   lambda mu=mu, s=s: dl.estimate_typical_moment(torus, window, mu, s))
    u = _rng(8).uniform(size=30)
    yield "ks_statistic", "two", lambda: sm.ks_statistic(u, u[::-1] ** 2)
    yield "ks_statistic", "one", lambda: sm.ks_statistic(u, lambda t: t)


def _leaves(value, out):
    """value's numbers appended to out as floats (a complex one as two), and
    its strings as they are."""
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        out.append(float(value))
    elif isinstance(value, (complex, np.complexfloating)):
        out += [value.real, value.imag]
    elif isinstance(value, np.ndarray):
        out += np.asarray(value, dtype=complex if value.dtype.kind == "c" else float).view(float).ravel().tolist()
    elif isinstance(value, str):
        out.append(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _leaves(value[key], out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _leaves(item, out)
    elif is_dataclass(value):
        for f in fields(value):
            _leaves(getattr(value, f.name), out)
    elif value is not None and not isinstance(value, specfun.GammaRatioSum):
        raise TypeError(f"no leaves for {type(value).__name__}")
    return out


def sweep():
    """(digest, finite, breaks): the sha256 of every finite output outside
    NEWLY_FINITE, as its call's label and the repr of its numbers, their
    count, and each call that broke the contract."""
    digest = hashlib.sha256()
    finite, breaks = 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for function, label, call in _sweep_calls():
            name = f"{function}({label})"
            try:
                value = call()
            except (DomainError, ConvergenceError) as err:
                if not str(err).startswith(f"{function.split('.')[0]}: "):
                    breaks.append(f"{name}: refused as {err}")
                continue
            except Exception as err:  # noqa: BLE001 - any other exception breaks the contract
                breaks.append(f"{name}: {type(err).__name__}: {err}")
                continue
            leaves = _leaves(value, [])
            if not all(math.isfinite(v) for v in leaves if not isinstance(v, str)):
                breaks.append(f"{name}: returned a value that is not finite")
            elif name not in NEWLY_FINITE:
                finite += 1
                digest.update(f"{name}={leaves!r};".encode())
    return digest.hexdigest(), finite, breaks


def test_sweep_keeps_the_contract_and_every_finite_value():
    digest, finite, breaks = sweep()
    assert breaks == []
    assert (digest, finite) == (SWEEP_DIGEST, SWEEP_FINITE)


@st.composite
def _strip_points(draw):
    """A ModelParams and a real or complex z inside the default strip, up to
    the sweep's 1e300."""
    params = draw(st.builds(ModelParams, n=st.integers(2, 10**8), mu=st.floats(-1.999, 1e6),
                            gamma=st.floats(1e-300, 1e300)))
    edge = ex.strip_edge(params) + ex.STRIP_GUARD
    re = draw(st.floats(edge, 1e300, exclude_min=True))
    return params, complex(re, draw(st.floats(-1e300, 1e300))) if draw(st.booleans()) else re


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=_strip_points())
def test_strip_points_keep_the_contract(point):
    params, z = point
    real = z.real if isinstance(z, complex) else z
    calls = {
        "cgf": lambda: cgf(params, z),
        "log_volume_moment": lambda: log_volume_moment(params, real),
        "volume_moment": lambda: volume_moment(params, real),
        "mod_gaussian_residual": lambda: mod_gaussian_residual(params, real),
        "ldp_scaled_cgf": lambda: ds.ldp_scaled_cgf(params, real, ds.MODPHI_CENTERING),
        "radius_cdf": lambda: ex.radius_cdf(params, abs(real)),
        "cumulant_exact": lambda: cm.cumulant_exact(params, 2),
        "mod_gaussian_limit": lambda: mod_gaussian_limit(params.mu, real),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for function, call in calls.items():
            try:
                value = call()
            except (DomainError, ConvergenceError) as err:
                assert str(err).startswith(f"{function}: "), err
                continue
            assert all(math.isfinite(v) for v in _leaves(value, [])), (function, value)
