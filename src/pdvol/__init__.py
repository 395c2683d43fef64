"""pdvol: a numerical laboratory for the volume of weighted typical cells in
Poisson-Delaunay tessellations.

The package evaluates the exact law of the cell volume (moments, cumulant
generating function, circumradius law), its high-dimensional asymptotics
(cumulant expansions, Gaussian approximation, concentration envelopes,
mod-Gaussian limit, large-deviations scaling), seeded Monte Carlo samplers
realizing the distributional representations, and an independent planar
tessellation simulation used as ground truth.  Every closed form is paired
with an independent numerical oracle somewhere in the test suite.
"""

from .cumulants import (
    CumulantReport,
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
from .delaunay2d import (
    SimWindow,
    Triangulation,
    TypicalCellEstimate,
    circumcircle,
    delaunay_triangulate,
    estimate_radius_cdf,
    estimate_typical_moment,
    sample_poisson_points,
)
from .distribution import (
    CenteringVariant,
    LDP_CENTERING,
    MODPHI_CENTERING,
    StandardizedLaw,
    cdf_inverted,
    centering,
    char_fn,
    kolmogorov_distance_to_normal,
    ldp_scaled_cgf,
    mod_gaussian_limit,
    mod_gaussian_residual,
    standardized_cdf,
)
from .errors import ConvergenceError, DomainError
from .exactlaw import (
    ModelParams,
    cgf,
    log_angular_simplex_moment,
    log_typical_cell_constant,
    log_volume_moment,
    radius_cdf,
    sphere_representation_gap,
    typical_volume_moment,
    volume_moment,
    weighted_intensity_ratio,
)
from .sampling import (
    RngStream,
    check_product_identity,
    ks_statistic,
    sample_angular_simplex,
    sample_beta,
    sample_circumradius,
    sample_gamma,
    sample_rhs_product,
    sample_volume,
)
from .specfun import (
    digamma,
    log_barnes_g,
    log_barnes_g_shift_asymptotic,
    log_gamma,
    log_unit_ball_volume,
    polygamma,
    reg_lower_incomplete_gamma,
)

__version__ = "0.1.0"
