"""plumefront: point-source diffusion fields, their spatial boundaries, and
the statistical machinery for recovering both from gridded observations.

`import plumefront` loads the closed forms only (errors, specfun, fields and
functionals), which need math and no numpy.  The exports of dynamics,
estimation, ingest and montecarlo, which need numpy, load their module on
first access and are read from it on every access, so a name patched in its
home module is the name seen here.
"""

import importlib

from .errors import (
    DataError,
    DomainError,
    FitError,
    InsufficientDataError,
    NonMonotoneFieldWarning,
    NumericalError,
    PlumefrontError,
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

_LAZY = {
    "dynamics": ("AdiabaticBoundary", "BoundaryTrajectory", "adiabatic_boundary",
                 "boundary_ode_integrate", "perturbed_boundary", "steady_state_boundary"),
    "estimation": ("DecayFit", "DiagnosticsReport", "FieldFitResult", "NonparFit",
                   "ProfileSelection", "RegionalResult", "boundary_from_kappa",
                   "bootstrap_boundary_interval", "detect_boundary", "diagnostics",
                   "fit_field_nls", "fit_loglinear", "nonparametric_fit",
                   "regional_heterogeneity", "select_profile_model"),
    "ingest": ("GridObservation", "SourceSite", "build_sample", "haversine_km",
               "load_observations", "load_sources", "match_nearest_source"),
    "montecarlo": ("DGPSpec", "MCSummary", "RecoverySummary", "STANDARD_DGPS", "generate_dgp",
                   "parameter_recovery_campaign", "run_campaign"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

# every name imported above (not the submodules themselves), then the lazy ones
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(importlib))]
__all__ += _HOME


def __getattr__(name):
    # Not cached in this module's namespace: a tracer's patch of the home
    # module, and its restore, stay visible here.
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
