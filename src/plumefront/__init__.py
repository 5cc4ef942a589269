"""plumefront: point-source diffusion fields, their spatial boundaries, and
the statistical machinery for recovering both from gridded observations.

`import plumefront` loads no submodule.  Each export resolves from its home
module on first use (importing that module, and only that one, if it is not
loaded yet) and is read from it again on every access, so a name patched in
its home module is the name seen here.
"""

import importlib
import sys

_LAZY = {
    "errors": ("DataError", "DomainError", "FitError", "InsufficientDataError",
               "NonMonotoneFieldWarning", "NumericalError", "PlumefrontError"),
    "fields": ("BesselField", "DecayingSourceField", "FieldEval", "FieldParams", "GaussianField",
               "KummerField", "SourceEvent", "superpose"),
    "functionals": ("BoundarySpec", "MomentResult", "boundary_radius", "boundary_sensitivity",
                    "boundary_velocity", "cumulative_exposure", "energy", "spatial_moment"),
    "specfun": ("SpecFunResult", "bessel_i", "bessel_k0", "bessel_k1", "gamma_fn", "kummer_m"),
    "dynamics": ("AdiabaticBoundary", "BoundaryTrajectory", "adiabatic_boundary",
                 "boundary_ode_integrate", "steady_state_boundary"),
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
_HOME = {name: f"{__name__}.{module}" for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_HOME)


def __getattr__(name):
    # Not cached in this module's namespace: a tracer's patch of the home
    # module, and its restore, stay visible here.
    home = _HOME.get(name)
    if home is not None:
        return getattr(sys.modules.get(home) or importlib.import_module(home), name)
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
