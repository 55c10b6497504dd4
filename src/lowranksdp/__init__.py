"""Low-rank (Burer-Monteiro) solvers for MaxCut and Orthogonal-Cut SDPs.

The package factors the PSD decision variable as sigma sigma^T with sigma an
n x k matrix of unit rows (or orthonormal d x k frames), and maximizes the
quadratic objective over the resulting manifold with a trust-region method
whose stopping rule certifies that every remaining curvature direction is
below a target epsilon.  Instance generators, rounding schemes, and bound
checkers for the standard synthetic models are included.
"""

from .symmat import (
    SymmetricMatrix,
    OpnormEstimate,
    opnorm_estimate,
    save_symmat,
    load_symmat,
)
from .sphere import (
    SphereConfig,
    TangentField,
    HessianOperator,
    project_tangent,
    retract,
    gradient,
    hessian_apply,
    rayleigh,
    random_config,
    random_tangent,
    objective,
    save_config,
    load_config,
)
from .stiefel import (
    StiefelConfig,
    StiefelTangent,
    OcHessianOperator,
    oc_project_tangent,
    oc_retract,
    oc_gradient,
    oc_rayleigh,
    oc_objective,
    oc_random_config,
    oc_random_tangent,
    save_oc_config,
    load_oc_config,
)
from .solver import (
    SolverOptions,
    SolveReport,
    StepRecord,
    MODE_EIGEN_ONLY,
    MODE_GRADIENT_EIGEN,
    default_epsilon,
    worst_case_budget,
    power_method,
    direction_finding,
    rtr_step,
    solve,
    projected_gradient_ascent,
)
from .instances import (
    Instance,
    goe,
    spiked,
    sbm,
    sbm_snr,
    erdos_renyi,
    random_regular,
    centered_regular,
    so_sync,
)
from .analysis import (
    SdpEstimate,
    RoundingResult,
    estimate_sdp,
    grothendieck_check,
    oc_grothendieck_check,
    gw_round,
    principal_sign,
    correlation,
    cut_value,
    maxcut_bruteforce,
    ALPHA_GW,
)

__version__ = "0.1.0"
