"""The package's one real rule (``errors.check_real``), at every real
argument: a weight, an intensity, a moment order, a point, a radius, a bound's
constant and every real array accepts a Python int or float and a numpy
integer or floating scalar in range, gives the same bits for all of them, and
refuses anything else (NaN, infinities where the value must be finite, bools,
strings, None, complex numbers, values past a bound) with a DomainError
naming the function and the argument.  A sampler refuses before it draws.  A
function that passes an argument on to a callee refuses it in its own name,
before the callee sees it."""

import math
import pickle
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from pdvol import cumulants as cm
from pdvol import delaunay2d as dl
from pdvol import distribution as ds
from pdvol import exactlaw as ex
from pdvol import polygamma_sums as ps
from pdvol import sampling as sm
from pdvol import specfun
from pdvol.errors import DomainError, check_real, check_real_array

P3 = ex.ModelParams(3, 0.0, 1.0)
#: extended strip edge of P3, -(mu+3) = -3, and its default one, -(mu+2) = -2
EXTENDED_EDGE, EDGE = ex.strip_edge(P3, extended=True), ex.strip_edge(P3)
TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
WINDOW = dl.SimWindow(12.0, 0.0, "toroidal")
TORUS = dl.delaunay_triangulate(dl.sample_poisson_points(1.0, WINDOW, sm.RngStream(5, 0).generator()),
                                "toroidal", WINDOW.side)
SAMPLE = np.arange(30.0)


@dataclass
class Site:
    function: str
    argument: str
    call: Callable  # call(value, rng) with the other arguments valid
    past: tuple = ()  # values just past each bound
    good: object = 2.0  # a valid value, exact in float32 (an integral one takes ints too)
    accepts: tuple = ()  # inf at a closed bound, a complex z or a side None that mean something here


SITES = [
    Site("ModelParams", "mu", lambda v, rng: ex.ModelParams(3, v), (-2.0, -3.0)),
    Site("ModelParams", "gamma", lambda v, rng: ex.ModelParams(3, 0.0, v), (0.0,)),
    Site("log_angular_simplex_moment", "s", lambda v, rng: ex.log_angular_simplex_moment(3, v), (-1.0,)),
    Site("typical_volume_moment", "gamma", lambda v, rng: ex.typical_volume_moment(3, v, 1.0), (0.0,)),
    Site("typical_volume_moment", "s", lambda v, rng: ex.typical_volume_moment(3, 1.0, v), (-1.0,)),
    Site("log_volume_moment", "s", lambda v, rng: ex.log_volume_moment(P3, v), (EDGE,)),
    Site("volume_moment", "s", lambda v, rng: ex.volume_moment(P3, v), (EDGE,)),
    Site("radius_cdf", "t", lambda v, rng: ex.radius_cdf(P3, v), (-0.5,), accepts=(math.inf,)),
    Site("sphere_representation_gap", "s", lambda v, rng: ex.sphere_representation_gap(3, 0, v), (0.0,)),
    Site("sphere_representation_gap", "gamma", lambda v, rng: ex.sphere_representation_gap(3, 0, 1.0, v), (0.0,)),
    Site("RegimeSpec", "alpha", lambda v, rng: cm.RegimeSpec("mu_power", v), (0.0, 1.0), good=0.5),
    Site("RegimeSpec", "alpha", lambda v, rng: cm.RegimeSpec("mu_linear", v), (0.0,)),
    Site("regime_expansion", "driver", lambda v, rng: cm.regime_expansion(cm.RegimeSpec("fixed_mu"), v), (0.0,)),
    Site("regime_expansion", "gamma", lambda v, rng: cm.regime_expansion(cm.RegimeSpec("fixed_mu"), 10.0, v),
         (0.0,)),
    Site("concentration_envelope", "y", lambda v, rng: cm.concentration_envelope(v, 1.0, 1.0), (-1.0,)),
    Site("concentration_envelope", "c", lambda v, rng: cm.concentration_envelope(1.0, v, 1.0), (0.0,)),
    Site("concentration_envelope", "eps", lambda v, rng: cm.concentration_envelope(1.0, 1.0, v), (0.0,)),
    Site("StandardizedLaw", "mean", lambda v, rng: ds.StandardizedLaw(P3, v, 1.0)),
    Site("StandardizedLaw", "sd", lambda v, rng: ds.StandardizedLaw(P3, 0.0, v), (0.0,)),
    Site("standardized_cdf", "y", lambda v, rng: ds.standardized_cdf(P3, v)),
    Site("cdf_inverted", "x", lambda v, rng: ds.cdf_inverted(P3, v)),
    Site("ldp_scaled_cgf", "t", lambda v, rng: ds.ldp_scaled_cgf(P3, v, ds.MODPHI_CENTERING),
         (EDGE + ex.STRIP_GUARD, EDGE)),
    Site("mod_gaussian_limit", "mu", lambda v, rng: ds.mod_gaussian_limit(v, 0.5), (-2.0,)),
    Site("mod_gaussian_limit", "z", lambda v, rng: ds.mod_gaussian_limit(0.0, v), (-3.0,)),
    Site("mod_gaussian_residual", "z", lambda v, rng: ds.mod_gaussian_residual(P3, v),
         (EXTENDED_EDGE + ex.STRIP_GUARD, EXTENDED_EDGE)),
    Site("two_sided_tail", "y", lambda v, rng: ds.two_sided_tail(P3, v), (-1.0,)),
    Site("fit_envelope_coefficient", "tails", lambda v, rng: ds.fit_envelope_coefficient(v, [1.0], 1.0), (-1.0,)),
    Site("fit_envelope_coefficient", "ys", lambda v, rng: ds.fit_envelope_coefficient([0.0], v, 1.0), (-1.0,)),
    Site("fit_envelope_coefficient", "eps", lambda v, rng: ds.fit_envelope_coefficient([0.0], [1.0], v), (0.0,)),
    Site("log_gamma", "z", lambda v, rng: specfun.log_gamma(v), (0.0,), accepts=(1 + 0j,)),
    Site("digamma", "x", lambda v, rng: specfun.digamma(v), (0.0,)),
    Site("polygamma", "x", lambda v, rng: specfun.polygamma(2, v), (0.0,)),
    Site("log_barnes_g", "x", lambda v, rng: specfun.log_barnes_g(v), (0.0,)),
    Site("log_barnes_g_shift_asymptotic", "z", lambda v, rng: specfun.log_barnes_g_shift_asymptotic(v, 1.0),
         (0.0,)),
    Site("log_barnes_g_shift_asymptotic", "a", lambda v, rng: specfun.log_barnes_g_shift_asymptotic(3.0, v),
         (-3.0,)),
    Site("reg_lower_incomplete_gamma", "a", lambda v, rng: specfun.reg_lower_incomplete_gamma(v, 1.0), (0.0,)),
    Site("reg_lower_incomplete_gamma", "x", lambda v, rng: specfun.reg_lower_incomplete_gamma(1.5, v), (-0.5,),
         accepts=(math.inf,)),
    Site("GammaRatioSum", "x", lambda v, rng: specfun.GammaRatioSum([(v, 1.0, 1.0)], [(1.5, 20)])(0.5), (0.0,)),
    Site("GammaRatioSum", "c", lambda v, rng: specfun.GammaRatioSum([(2.0, v, 1.0)])(0.25)),
    Site("GammaRatioSum", "w", lambda v, rng: specfun.GammaRatioSum([(2.0, 1.0, v)])(0.25)),
    Site("GammaRatioSum", "b", lambda v, rng: specfun.GammaRatioSum([(2.0, 1.0, 1.0)], [(v, 20)])(0.5), (0.0,)),
    Site("GammaRatioSum", "run_coef", lambda v, rng: specfun.GammaRatioSum([], [(1.5, 20)], v)(0.25)),
    Site("digamma_sum_direct", "a", lambda v, rng: ps.digamma_sum_direct(v, 5), (0.0,)),
    Site("digamma_sum_closed", "a", lambda v, rng: ps.digamma_sum_closed(v, 5), (0.0,)),
    Site("digamma_sum_closed_alt", "a", lambda v, rng: ps.digamma_sum_closed_alt(v, 5), (0.0,)),
    Site("trigamma_sum_direct", "a", lambda v, rng: ps.trigamma_sum_direct(v, 5), (0.0,)),
    Site("trigamma_sum_closed", "a", lambda v, rng: ps.trigamma_sum_closed(v, 5), (0.0,)),
    Site("polygamma_sum_bound_check", "a", lambda v, rng: ps.polygamma_sum_bound_check(v, 5, 3), (0.0,)),
    Site("identity_grid_report", "a_grid", lambda v, rng: ps.identity_grid_report(v, (2, 3), (2,)), (0.0,)),
    Site("SimWindow", "side", lambda v, rng: dl.SimWindow(v), (0.0,)),
    Site("SimWindow", "guard", lambda v, rng: dl.SimWindow(12.0, v), (-1.0, 6.0)),
    Site("sample_poisson_points", "gamma", lambda v, rng: dl.sample_poisson_points(v, WINDOW, rng), (0.0,),
         good=4.0),
    Site("delaunay_triangulate", "side", lambda v, rng: dl.delaunay_triangulate(TRIANGLE, side=v), (0.0,),
         good=8.0, accepts=(None,)),
    Site("delaunay_triangulate", "points", lambda v, rng: dl.delaunay_triangulate(v, side=8.0), (-1.0, 8.0),
         good=TRIANGLE),
    Site("estimate_typical_moment", "mu", lambda v, rng: dl.estimate_typical_moment(TORUS, WINDOW, v, 1.0),
         (-2.0,)),
    Site("estimate_typical_moment", "s", lambda v, rng: dl.estimate_typical_moment(TORUS, WINDOW, 0.0, v)),
    Site("estimate_radius_cdf", "mu", lambda v, rng: dl.estimate_radius_cdf(TORUS, WINDOW, v, [1.0]), (-2.0,)),
    Site("estimate_radius_cdf", "t_grid", lambda v, rng: dl.estimate_radius_cdf(TORUS, WINDOW, 0.0, v), (-0.5,),
         accepts=(math.inf,)),
    Site("ks_statistic", "sample", lambda v, rng: sm.ks_statistic(v, SAMPLE), good=SAMPLE),
    Site("ks_statistic", "reference", lambda v, rng: sm.ks_statistic(SAMPLE, v), good=SAMPLE / 4.0),
]
IDS = [f"{site.function}-{site.argument}" for site in SITES]
IDS = [name if IDS.index(name) == i else f"{name}-{i}" for i, name in enumerate(IDS)]


def _kinds(good):
    """good as a Python float, np.float64 and np.float32, and where it is
    integral as an int and np.int64; an array as arrays of those dtypes."""
    kinds = [float, np.float64, np.float32] + ([int, np.int64] if np.all(np.asarray(good) % 1.0 == 0.0) else [])
    if np.ndim(good):
        return [np.asarray(good, dtype=kind) for kind in kinds]
    return [kind(good) for kind in kinds]


def _bits(value):
    if isinstance(value, specfun.GammaRatioSum):
        value = value.__dict__
    return pickle.dumps(value)


@pytest.mark.parametrize("site", SITES, ids=IDS)
def test_reals_of_every_kind_give_the_bits_of_the_float(site):
    outputs = []
    for value in _kinds(site.good):
        rng = sm.RngStream(3, 1).generator()
        outputs.append(_bits(site.call(value, rng)) + repr(rng.bit_generator.state).encode())
    assert all(out == outputs[0] for out in outputs)


def _refused(site):
    bad = [math.nan, math.inf, -math.inf, True, "3", None, 1 + 0j, *site.past]
    accepted = [(type(value), value) for value in site.accepts]  # True == 1 + 0j, but is no complex
    return [value for value in bad if (type(value), value) not in accepted]


@pytest.mark.parametrize("site", SITES, ids=IDS)
def test_non_reals_and_out_of_range_refused(site):
    # sample_poisson_points takes a generator: a refusal leaves it untouched
    rng = sm.RngStream(3, 1).generator()
    before = repr(rng.bit_generator.state)
    for value in _refused(site):
        with pytest.raises(DomainError, match=rf"^{site.function}: .*\b{site.argument}\b"):
            site.call(value, rng)
    assert repr(rng.bit_generator.state) == before


def test_a_closed_infinite_bound_accepts_inf():
    assert ex.radius_cdf(P3, math.inf) == 1.0
    assert specfun.reg_lower_incomplete_gamma(1.5, np.array([0.0, math.inf])).tolist() == [0.0, 1.0]
    values, _ = dl.estimate_radius_cdf(TORUS, WINDOW, 0.0, [math.inf])
    assert values.tolist() == [1.0]


def test_stored_reals_are_python_floats():
    for mu in (0, np.float32(0.5), np.int64(1), np.array(2.0)):
        p = ex.ModelParams(3, mu, np.float64(2.0))
        assert type(p.mu) is float and type(p.gamma) is float
    assert type(cm.RegimeSpec("mu_linear", np.float64(2.0)).alpha) is float
    window = dl.SimWindow(np.int64(12), np.float32(0.5))
    assert (type(window.side), type(window.guard)) == (float, float)


def test_numpy_scalars_take_python_float_arithmetic():
    # y * y of np.float64(1e200) overflowed with a warning; the float's gives 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cm.concentration_envelope(np.float64(1e200), 1.0, 1.0) == 0.0


def test_message_form():
    with pytest.raises(DomainError, match=r"^f: needs a finite real mu > -2\.0, got nan$"):
        check_real("f", "mu", math.nan, above=-2.0)
    with pytest.raises(DomainError, match=r"^f: needs a real t in \[0\.0, inf\], got -1\.0$"):
        check_real("f", "t", -1.0, least=0.0, most=math.inf)
    with pytest.raises(DomainError, match=r"^f: needs a real alpha in \(0\.0, 1\.0\), got True$"):
        check_real("f", "alpha", True, above=0.0, below=1.0)
    with pytest.raises(DomainError, match=r"^f: needs a finite real x, got '3'$"):
        check_real("f", "x", "3")
    with pytest.raises(DomainError, match=r"^f: needs a real p in \[0\.0, 1\.0\), got 1\.0$"):
        check_real("f", "p", 1.0, least=0.0, below=1.0)
    with pytest.raises(DomainError, match=r"^f: needs finite real y >= 0\.0, got -inf$"):
        check_real_array("f", "y", [1.0, -math.inf], least=0.0)
    with pytest.raises(DomainError, match=r"^f: needs real y, got an array of dtype complex128$"):
        check_real_array("f", "y", [1.0, 1j])
    assert check_real("f", "n", 2**70) == 2.0**70
    assert check_real("f", "x", np.array(1.5)) == 1.5
    out = check_real_array("f", "t", np.array([1, 2], dtype=np.int32), least=0.0)
    assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
    with pytest.raises(DomainError, match=r"^f: needs a finite real n, got 1000000"):
        check_real("f", "n", 10**400)  # past the largest float
    with pytest.raises(DomainError, match=r"^f: needs a finite real x, got array\(\[1\., 2\.\]\)$"):
        check_real("f", "x", np.array([1.0, 2.0]))  # an array is no scalar
