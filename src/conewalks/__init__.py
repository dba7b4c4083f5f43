"""Exponential decay rates of cone non-exit probabilities for random walks.

The rate of P[walk stays in a convex cone K through time n] equals the
minimum of the increment Laplace transform over the dual cone K*. This
package computes that minimum with a first-order certificate, checks the
hypotheses under which the identity holds, and verifies the rates at desk
scale by exact walk enumeration, tilted Monte Carlo, and the closed-form
special families.
"""

from .cones import (
    Cone,
    ConeError,
    UnsupportedConeError,
    contains,
    distance,
    dual,
    generated,
    halfspace,
    has_interior,
    inequalities,
    interior_vector,
    moreau_decompose,
    orthant,
    project,
    strictly_contains,
)
from .counting import (
    CountSeries,
    FindDeltaResult,
    RateEstimate,
    count_walks,
    cramer_identity_check,
    end_point_counts,
    estimate_rate,
    find_delta,
)
from .families import (
    HalfspaceCheck,
    halfspace_rate,
    halfspace_verify,
    segment_operator_eigenvalue,
    segment_rate,
)
from .laplace import (
    DirectionBehavior,
    FiniteLaplace,
    GaussianLaplace,
    classify_direction,
    gradient,
    has_global_min_on_cone,
    hessian,
    tilt,
    value,
)
from .montecarlo import (
    BandDecay,
    BandResult,
    SimConfig,
    SimResult,
    band_alpha_sensitivity,
    band_decay_fit,
    band_survival,
    default_band_alpha,
    simulate_survival,
    tilted_survival,
)
from .solver import (
    GrowthResult,
    ImproperModelError,
    NonConvergenceError,
    RateCertificate,
    ScanResult,
    brownian_rate,
    growth_constant,
    hyperplane_scan,
    minimize_on_dual,
    upper_bound_at,
)
from .steps import (
    H2Result,
    H3Result,
    StepMeasure,
    check_h1,
    check_h1_via_covariance,
    check_h2prime,
    check_h3,
    covariance,
    from_step_set,
    mean,
    probability_measure,
)

__version__ = "0.1.0"
