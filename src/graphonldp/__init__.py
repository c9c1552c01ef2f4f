"""Large deviations for jump-Markov dynamics on graphon networks.

Samples W-random sparse networks against a continuum kernel, simulates the
finite-N stochastic SIS process exactly, integrates its large-N limiting
density evolution, evaluates the associated rate functionals, and computes
most-likely transition paths by discretized action minimization.
"""

__version__ = "0.1.0"

from .core_model import (  # noqa: F401
    ConstantRates,
    ModelError,
    NumericalError,
    RateFamily,
    SIS_SPACE,
    SisParams,
    SisRates,
    StateSpace,
    circle_distance,
    local_field,
    sis_rates,
)
from .graphon import (  # noqa: F401
    ConvergenceDiagnostic,
    GraphonError,
    GraphonSpec,
    Network,
    ProbabilityOverflowError,
    constant_kernel,
    cosine_kernel,
    density_from_degree_exponent,
    eta_diagnostic,
    max_degree_margin,
    power_law_kernel,
    read_network,
    sample_network,
    small_world_kernel,
    write_network,
)
from .meanfield import (  # noqa: F401
    DensityField,
    LimitFlux,
    NormalizationError,
    SpatialGrid,
    circle_grid,
    endemic_equilibrium,
    evolve,
    field_from_density,
    kernel_matrix,
)
from .rate_function import (  # noqa: F401
    RateValue,
    channel_intensities,
    contracted_L,
    contracted_node_value,
    ell,
    poisson_tail_log_prob,
    rate_G,
    rate_I,
    sis_A,
    sis_action,
    sis_lagrangian,
    sis_lagrangian_bruteforce,
)
from .simulator import (  # noqa: F401
    EmpiricalFlux,
    EmpiricalOccupation,
    RateOverflowError,
    TrajectoryRecord,
    extract_flux,
    occupation_at,
    simulate,
)
from .action_path import (  # noqa: F401
    ActionOptions,
    ActionResult,
    ElOperators,
    EndpointError,
    PathProblem,
    discrete_action,
    el_operators,
    el_residual,
    frechet_lambda,
    minimize_action,
)
