"""smolkit: sectional coagulation-diffusion solver with built-in verification.

The package couples a deterministic solver for diffusing, pairwise
coagulating cluster populations on a periodic grid with a tracer-particle
Monte Carlo simulator and a set of monitors that check the inequalities the
model guarantees (mass budgets, moment plateaus, heat-majorant domination,
stability envelopes, gelation trends).
"""

from .analysis import (
    BoundReport,
    GelVerdict,
    HypothesisError,
    check_conservation,
    check_gronwall,
    check_heat_majorant,
    check_moment_bound,
    collision_budget,
    gelation_scan,
    linf_moment_exponent,
    scope,
)
from .coagulation import TruncationPolicy
from .field import (
    Grid,
    MassField,
    initial_data_functionals,
    moment,
    potential_kernel,
)
from .integrator import (
    RunConfig,
    RunRecord,
    StepSizeError,
    run,
)
from .kernels import (
    CheckResult,
    DiffusionProfile,
    Kernel,
    RangeProfile,
    check_assumption_1_1,
    kinetic_kernel_from_range,
)
from .tracer import (
    ConsistencyReport,
    ThinningCounts,
    TracerEnsemble,
    TracerHistogram,
    density_consistency,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckResult",
    "ConsistencyReport",
    "DiffusionProfile",
    "GelVerdict",
    "Grid",
    "HypothesisError",
    "Kernel",
    "MassField",
    "RangeProfile",
    "RunConfig",
    "RunRecord",
    "StepSizeError",
    "ThinningCounts",
    "TracerEnsemble",
    "TracerHistogram",
    "TruncationPolicy",
    "check_assumption_1_1",
    "check_conservation",
    "check_gronwall",
    "check_heat_majorant",
    "check_moment_bound",
    "collision_budget",
    "density_consistency",
    "gelation_scan",
    "initial_data_functionals",
    "kinetic_kernel_from_range",
    "linf_moment_exponent",
    "moment",
    "potential_kernel",
    "run",
    "scope",
    "simulate",
]
