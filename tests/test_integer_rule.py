"""The package's one integer rule (``errors.check_integer``), at every
integer argument: a dimension, an order, a run length, the sphere identity's
weight and every draw or audit count accepts a Python or numpy integer in
range, gives the same bits for both, and refuses anything else (NaN,
infinities, fractional and integral floats, bools, strings, None, values out
of range) with a DomainError naming the function and the argument.  A
sampler refuses before it draws.  A function that passes an argument on to
a callee refuses it in its own name, before the callee sees it."""

import math
import pickle
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from pdvol.cumulants import (
    RegimeSpec,
    cumulant_bound,
    cumulant_exact,
    cumulant_fd_oracle,
    cumulant_report,
    deviation_scale,
)
from pdvol.delaunay2d import SimWindow, audit_empty_circumdisk, delaunay_triangulate, sample_poisson_points
from pdvol.distribution import mod_gaussian_speed
from pdvol.errors import DomainError, check_integer
from pdvol.exactlaw import (
    ModelParams,
    log_angular_simplex_moment,
    log_typical_cell_constant,
    sphere_representation_gap,
    typical_volume_moment,
)
from pdvol.polygamma_sums import (
    digamma_sum_closed,
    digamma_sum_closed_alt,
    digamma_sum_direct,
    polygamma_sum_bound_check,
    trigamma_sum_closed,
    trigamma_sum_direct,
)
from pdvol.sampling import (
    RngStream,
    check_product_identity,
    sample_circumradius,
    sample_lhs_product,
    sample_rhs_product,
    sample_volume,
)
from pdvol.specfun import GammaRatioSum, log_unit_ball_volume, log_unit_sphere_area, polygamma

P = ModelParams(7, 0.5, 2.0)
P2 = ModelParams(2, -1.0, 1.0)
P3 = ModelParams(3, 0.0, 1.0)
PLAN = GammaRatioSum([(2.0, 1.0, 1.0)], [(1.5, 20)])


def _torus():
    window = SimWindow(12.0, 0.0, "toroidal")
    points = sample_poisson_points(1.0, window, RngStream(5, 0).generator())
    return delaunay_triangulate(points, "toroidal", window.side)


TORUS = _torus()


@dataclass
class Site:
    function: str
    argument: str
    call: Callable  # call(value, rng) with the other arguments valid
    least: int
    most: Optional[int] = None
    good: int = 3  # a valid value
    sampler: bool = False  # takes a generator, which a refusal must leave untouched


SITES = [
    Site("ModelParams", "n", lambda v, rng: ModelParams(v, 0.5, 2.0), 2),
    Site("log_angular_simplex_moment", "n", lambda v, rng: log_angular_simplex_moment(v, 1.5), 2),
    Site("log_typical_cell_constant", "n", lambda v, rng: log_typical_cell_constant(v), 2),
    Site("typical_volume_moment", "n", lambda v, rng: typical_volume_moment(v, 2.0, 0.5), 2),
    Site("sphere_representation_gap", "mu", lambda v, rng: sphere_representation_gap(3, v, 1.0), -1, good=1),
    Site("cumulant_exact", "m", lambda v, rng: cumulant_exact(P, v), 1),
    Site("cumulant_fd_oracle", "m", lambda v, rng: cumulant_fd_oracle(P, v), 1, 6),
    Site("cumulant_report", "max_order", lambda v, rng: cumulant_report(P, v), 1, 6, good=2),
    Site("cumulant_bound", "m", lambda v, rng: cumulant_bound(P, v), 3),
    Site("deviation_scale", "n", lambda v, rng: deviation_scale(RegimeSpec("fixed_mu"), v), 3),
    Site("digamma_sum_direct", "k", lambda v, rng: digamma_sum_direct(0.7, v), 1),
    Site("digamma_sum_closed", "k", lambda v, rng: digamma_sum_closed(0.7, v), 2),
    Site("digamma_sum_closed_alt", "k", lambda v, rng: digamma_sum_closed_alt(0.7, v), 2),
    Site("trigamma_sum_direct", "k", lambda v, rng: trigamma_sum_direct(0.7, v), 1),
    Site("trigamma_sum_closed", "k", lambda v, rng: trigamma_sum_closed(0.7, v), 2),
    Site("polygamma_sum_bound_check", "k", lambda v, rng: polygamma_sum_bound_check(0.7, v, 3), 2),
    Site("polygamma_sum_bound_check", "m", lambda v, rng: polygamma_sum_bound_check(0.7, 5, v), 2),
    Site("polygamma", "m", lambda v, rng: polygamma(v, 1.5), 1, 170),
    Site("GammaRatioSum", "k", lambda v, rng: GammaRatioSum([(2.0, 1.0, 1.0)], [(1.5, v)])(0.25 + 1j), 1),
    Site("GammaRatioSum.derivative", "m", lambda v, rng: PLAN.derivative(v), 1),
    Site("log_unit_ball_volume", "n", lambda v, rng: log_unit_ball_volume(v), 1),
    Site("log_unit_sphere_area", "n", lambda v, rng: log_unit_sphere_area(v), 1),
    Site("mod_gaussian_speed", "n", lambda v, rng: mod_gaussian_speed(v), 2),
    Site("audit_empty_circumdisk", "n_audits", lambda v, rng: audit_empty_circumdisk(TORUS, v, rng), 0,
         sampler=True),
    Site("sample_circumradius", "size", lambda v, rng: sample_circumradius(P, rng, v), 0, sampler=True),
    Site("sample_volume", "size", lambda v, rng: sample_volume(P2, rng, v), 0, sampler=True),
    Site("sample_rhs_product", "size", lambda v, rng: sample_rhs_product(P3, rng, v), 0, sampler=True),
    Site("sample_lhs_product", "size", lambda v, rng: sample_lhs_product(P3, rng, v), 0, sampler=True),
    Site("check_product_identity", "n_draws", lambda v, rng: check_product_identity(P2, v, rng), 25, good=30,
         sampler=True),
]
IDS = [f"{site.function}-{site.argument}" for site in SITES]


# (function, argument, call(value, rng), bad values): each bad value would
# otherwise be refused by a callee, in the callee's name
CALLER_SITES = [
    ("sample_lhs_product", "n", lambda v, rng: sample_lhs_product(ModelParams(v), rng, 10), [4, np.int64(5), 10]),
    ("check_product_identity", "n", lambda v, rng: check_product_identity(ModelParams(v), 30, rng),
     [4, np.int64(5), 10]),
    ("typical_volume_moment", "s", lambda v, rng: typical_volume_moment(3, 1.0, v), [math.inf, math.nan]),
]


@pytest.mark.parametrize("function, argument, call, bad", CALLER_SITES, ids=[s[0] for s in CALLER_SITES])
def test_refused_in_the_callers_name(function, argument, call, bad):
    rng = RngStream(3, 1).generator()
    before = repr(rng.bit_generator.state)
    for value in bad:
        with pytest.raises(DomainError, match=rf"^{function}: .*\b{argument}\b"):
            call(value, rng)
    assert repr(rng.bit_generator.state) == before


def _refused(site):
    bad = [math.nan, math.inf, -math.inf, 2.5, 3.0, np.float64(2.0), True, "3", None, site.least - 1]
    if site.function == "sample_circumradius":
        bad.remove(None)  # size None asks for one draw
    return bad + ([] if site.most is None else [site.most + 1])


@pytest.mark.parametrize("site", SITES, ids=IDS)
def test_non_integers_and_out_of_range_refused(site):
    rng = RngStream(3, 1).generator()
    before = repr(rng.bit_generator.state)
    for value in _refused(site):
        with pytest.raises(DomainError) as info:
            site.call(value, rng)
        message = str(info.value)
        assert message.startswith(f"{site.function}:") and site.argument in message, (value, message)
    assert repr(rng.bit_generator.state) == before


def _bits(value):
    if isinstance(value, GammaRatioSum):
        value = value.__dict__
    return pickle.dumps(value)


@pytest.mark.parametrize("site", SITES, ids=IDS)
def test_numpy_integers_give_the_bits_of_ints(site):
    outputs = []
    for value in (site.good, np.int64(site.good), np.int32(site.good)):
        rng = RngStream(3, 1).generator()
        outputs.append(_bits(site.call(value, rng)) + repr(rng.bit_generator.state).encode())
    assert outputs[0] == outputs[1] == outputs[2]


def test_model_params_store_a_python_int():
    for n in (5, np.int64(5), np.uint8(5)):
        assert type(ModelParams(n).n) is int
    # n*n of a numpy integer would wrap around; the stored int cannot
    assert ModelParams(np.int64(2**40)).n ** 2 == 2**80


def test_message_form():
    with pytest.raises(DomainError, match=r"^f: needs an integer k >= 1, got 0$"):
        check_integer("f", "k", 0, 1)
    with pytest.raises(DomainError, match=r"^f: needs an integer k in \[1, 6\], got np.float64\(2.0\)$"):
        check_integer("f", "k", np.float64(2.0), 1, 6)
    assert check_integer("f", "k", 2**70, 1) == 2**70
