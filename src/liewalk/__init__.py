"""liewalk: rescaled random walks on matrix Lie groups.

Simulation of products of exponentials with rescaled i.i.d. increments,
Legendre transforms of log moment generating functions, path-space rate
functions with discretized variational minimization, quantitative
Baker-Campbell-Hausdorff certificates, and Monte Carlo rare-event
estimation with exponential tilting.  The built-in reference model is the
two-state stochastic group.
"""

from .bch import (
    BoundCertificate,
    R_BCH,
    bch_log,
    c_constant,
    empirical_lipschitz_constant,
    f_operator,
    g_operator,
    run_log_product_suite,
    sample_ball,
    validate_bch_radius,
    verify_lipschitz,
    verify_log_product,
)
from .distributions import IncrementDistribution
from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    LieWalkError,
    MembershipError,
    NonConvergenceError,
    OutOfDomainError,
    SingularMatrixError,
    UsageError,
)
from .legendre import (
    LegendreResult,
    domain_check,
    legendre,
    legendre_closed_form_s2,
    log_mgf,
    minimal_face,
)
from .lie import (
    AlgebraVector,
    GroupElement,
    ad_operator,
    algebra_basis,
    bracket,
    conjugate,
    coords,
    distance_proxy,
    exp_matrix,
    from_coords,
    log_matrix,
    validate_injectivity,
)
from .mc import (
    BallEvent,
    EstimateResult,
    RateCurve,
    auto_tilt,
    empirical_rate_curve,
    estimate_probability,
    tilted_estimator,
    wilson_interval,
)
from .rate import (
    DiscretizedRate,
    RateReport,
    SampledPath,
    discretized_rate,
    logarithmic_derivative,
    rate_along_path,
    rate_report,
    refinement_ladder,
)
from .stochastic import (
    ExampleModel,
    example_model,
    exp_cone_certificate,
    is_group_member,
    is_positive_cone,
)
from .walk import (
    SegmentDecomposition,
    WalkTrajectory,
    estimate_continuity_constant,
    kappa_support,
    psi_m,
    psi_m_continuity_check,
    replacement_deviation,
    segment_decomposition,
    simulate_walk,
)

__version__ = "0.1.0"
