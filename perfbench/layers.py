"""Which plumefront functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules.  Each traced function reports
``<module>.<fn>.calls`` and ``<module>.<fn>.self_s``; a few layers add counts
that show whether a change altered the statistics rather than only the speed.
No layer queues work for another process, so there is no wait-time metric.
"""

from __future__ import annotations

import statistics

import numpy as np
import scipy.special as sps

from plumefront.errors import FitError
from tracer import Target, self_times

# Leaf functions called tens of thousands of times are aggregated per parent.
LEAVES = {
    "specfun": ("kummer_m", "bessel_k0", "bessel_k1", "bessel_i", "gamma_fn"),
    "fields": ("GaussianField.value", "BesselField.value", "BesselField.eval",
               "KummerField.value", "DecayingSourceField.value", "superpose"),
}
SPANS = {
    "functionals": ("boundary_radius", "boundary_velocity", "boundary_sensitivity",
                    "spatial_moment", "energy", "cumulative_exposure"),
    "dynamics": ("boundary_ode_integrate", "steady_state_boundary"),
    "estimation": ("cross_validated_bandwidth", "nonparametric_fit", "fit_loglinear",
                   "detect_boundary", "diagnostics", "regional_heterogeneity",
                   "fit_field_nls", "select_profile_model"),
    "montecarlo": ("generate_dgp", "run_campaign"),
    "ingest": ("load_sources", "load_observations", "match_nearest_source", "build_sample"),
    "cli": ("dispatch",),
}
DGP_IDS = ("strong_decay", "weak_decay", "hump", "flat")
CLI_SUBCOMMANDS = ("boundary", "ingest", "estimate", "diagnose")


def _observe_fit(tracer, args, kwargs, result, exc, seconds):
    if result is not None:
        tracer.count("estimation.fit_field_nls.iters", result.n_iter)
    if isinstance(exc, FitError):
        tracer.count("estimation.fit_field_nls.failed")


def _observe_campaign(tracer, args, kwargs, result, exc, seconds):
    specs = kwargs.get("specs", args[0] if args else ())
    ids = sorted({spec.id for spec in specs})
    if len(ids) == 1:
        tracer.count(f"montecarlo.run_campaign.busy_s.{ids[0]}", seconds)


def _observe_rows(key):
    def observe(tracer, args, kwargs, result, exc, seconds):
        if result is not None:
            tracer.count(key, len(result))
    return observe


OBSERVERS = {
    "estimation.fit_field_nls": _observe_fit,
    "montecarlo.run_campaign": _observe_campaign,
    "ingest.load_observations": _observe_rows("ingest.rows_read"),
    "ingest.build_sample": _observe_rows("ingest.rows_kept"),
}


def targets() -> list[Target]:
    out = []
    for table, aggregate in ((LEAVES, True), (SPANS, False)):
        for module, names in table.items():
            for qualname in names:
                name = f"{module}.{qualname}"
                out.append(Target(module, qualname, aggregate, OBSERVERS.get(name)))
    return out


def _kummer_max_rel_err(buf) -> float:
    # Only where kummer_m returned a finite value: it gives inf past e^700,
    # and scipy's series takes minutes for the z ~ 1e76 a diverging fit can try.
    a, b, z, value = np.frombuffer(buf, dtype=float).reshape(-1, 4).T
    ok = np.isfinite(value)
    return _max_rel_err(value[ok], sps.hyp1f1(a[ok], b[ok], z[ok]))


def _k0_max_rel_err(buf) -> float:
    z, value = np.frombuffer(buf, dtype=float).reshape(-1, 2).T
    return _max_rel_err(value, sps.k0(z))


def _max_rel_err(value, reference) -> float:
    ok = np.isfinite(reference) & (reference != 0)
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(value[ok] - reference[ok]) / np.abs(reference[ok])))


ACCURACY = {"specfun.kummer_m": _kummer_max_rel_err, "specfun.bessel_k0": _k0_max_rel_err}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for table in (LEAVES, SPANS):
        for module, names in table.items():
            for qualname in names:
                specs += [(f"{module}.{qualname}.calls", "count", "lower"),
                          (f"{module}.{qualname}.self_s", "s", "lower")]
    specs += [(f"{name}.max_rel_err", "ratio", "lower") for name in ACCURACY]
    specs += [("estimation.fit_field_nls.iters", "count", "lower"),
              ("estimation.fit_field_nls.failed", "count", "lower")]
    specs += [(f"montecarlo.run_campaign.busy_s.{d}", "s", "lower") for d in DGP_IDS]
    specs += [("montecarlo.np_reported", "count", "higher"),
              ("montecarlo.np_with_ci", "count", "higher"),
              ("montecarlo.failed", "count", "lower"),
              ("ingest.rows_read", "count", "higher"),
              ("ingest.rows_kept", "count", "higher"),
              ("cli.import_s", "s", "lower")]
    specs += [(f"cli.dispatch_s.{sub}", "s", "lower") for sub in CLI_SUBCOMMANDS]
    specs += [("trace.overhead_frac", "ratio", "lower"), ("trace.unattributed_s", "s", "lower")]
    return specs


def layer_metrics(tracer, traced_wall, overhead_frac, import_s, mc_counts=None,
                  dispatch_s=None) -> tuple[dict, float]:
    """Per-layer values from a closed tracer; also returns the sum of self times."""
    per_name, unattributed = self_times(tracer.spans, tracer.aggregates, traced_wall)
    values = {}
    for name, unit, _ in metric_specs():
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and base in per_name:
            values[name] = per_name[base][field]
        else:
            values[name] = tracer.counters.get(name, 0)
    for name in ACCURACY:
        values[f"{name}.max_rel_err"] = tracer.max_rel_err.get(name, 0.0)
    for key, count in (mc_counts or {}).items():
        values[f"montecarlo.{key}"] = count
    for sub, seconds in (dispatch_s or {}).items():
        values[f"cli.dispatch_s.{sub}"] = statistics.median(seconds)
    values["cli.import_s"] = import_s
    values["trace.overhead_frac"] = overhead_frac
    values["trace.unattributed_s"] = unattributed
    self_sum = sum(entry["self_s"] for entry in per_name.values())
    return values, self_sum
