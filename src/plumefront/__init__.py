"""plumefront: point-source diffusion fields, their spatial boundaries, and
the statistical machinery for recovering both from gridded observations."""

from .dynamics import (
    AdiabaticBoundary,
    BoundaryTrajectory,
    adiabatic_boundary,
    boundary_ode_integrate,
    perturbed_boundary,
    steady_state_boundary,
)
from .errors import (
    DataError,
    DomainError,
    FitError,
    InsufficientDataError,
    NonMonotoneFieldWarning,
    NumericalError,
    PlumefrontError,
)
from .estimation import (
    DecayFit,
    DiagnosticsReport,
    FieldFitResult,
    NonparFit,
    ProfileSelection,
    RegionalResult,
    boundary_from_kappa,
    bootstrap_boundary_interval,
    detect_boundary,
    diagnostics,
    fit_field_nls,
    fit_loglinear,
    nonparametric_fit,
    regional_heterogeneity,
    select_profile_model,
)
from .fields import (
    BesselField,
    DecayingSourceField,
    FieldEval,
    FieldParams,
    GaussianField,
    KummerField,
    SourceEvent,
    greens_eval,
    superpose,
)
from .functionals import (
    BoundarySpec,
    MomentResult,
    boundary_radius,
    boundary_sensitivity,
    boundary_velocity,
    cumulative_exposure,
    energy,
    functional_derivative,
    optimal_centroid,
    spatial_moment,
)
from .ingest import (
    GridObservation,
    SourceSite,
    build_sample,
    haversine_km,
    load_observations,
    load_sources,
    match_nearest_source,
)
from .montecarlo import (
    DGPSpec,
    MCSummary,
    RecoverySummary,
    STANDARD_DGPS,
    generate_dgp,
    parameter_recovery_campaign,
    run_campaign,
)
from .specfun import (
    SpecFunResult,
    bessel_i,
    bessel_k0,
    bessel_k01,
    bessel_k1,
    gamma_fn,
    kummer_m,
    pochhammer,
)

__version__ = "0.1.0"
