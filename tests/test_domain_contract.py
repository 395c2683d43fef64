"""The package's domain contract, at the edges where it broke: a public
function returns a finite value, or raises DomainError or ConvergenceError
in its own name, naming the bound it refuses at.  It never returns NaN or
inf, never raises OverflowError, and never warns (warnings are errors here).
The finite values next to each bound keep the bits of the plain formula."""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from pdvol import specfun
from pdvol.cumulants import concentration_envelope
from pdvol.distribution import mod_gaussian_limit, mod_gaussian_residual
from pdvol.errors import ConvergenceError, DomainError
from pdvol.exactlaw import ModelParams, log_volume_moment, typical_volume_moment, volume_moment
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
