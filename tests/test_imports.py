"""What each entry point loads.

`import plumefront` loads no submodule and no dataclasses: every export
resolves on first use to its home module's attribute, loading that module
alone, and is not cached in the package.  The closed-form commands (`field`
and `boundary` for every profile, `moments` and `exposure` for the Gaussian)
load no numpy, scipy or statistics.
Selecting a profile model on Gaussian data loads neither scipy nor
statistics; with the cylindrical hint it loads `scipy.special` for K0 and
no other scipy subpackage.  `ingest` loads no estimation, montecarlo or
dynamics, and no scipy at any size, and `estimate` and `diagnose` no
montecarlo or dynamics."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

def run_probe(probe):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


EXPORTS = [
    "DataError", "DomainError", "FitError", "InsufficientDataError", "NonMonotoneFieldWarning",
    "NumericalError", "PlumefrontError",
    "BesselField", "DecayingSourceField", "FieldEval", "FieldParams", "GaussianField",
    "KummerField", "SourceEvent", "superpose",
    "BoundarySpec", "MomentResult", "boundary_radius", "boundary_sensitivity",
    "boundary_velocity", "cumulative_exposure", "energy", "spatial_moment",
    "SpecFunResult", "bessel_i", "bessel_k0", "bessel_k1", "gamma_fn", "kummer_m",
    "AdiabaticBoundary", "BoundaryTrajectory", "adiabatic_boundary", "boundary_ode_integrate",
    "steady_state_boundary",
    "DecayFit", "DiagnosticsReport", "FieldFitResult", "NonparFit", "ProfileSelection",
    "RegionalResult", "boundary_from_kappa", "bootstrap_boundary_interval", "detect_boundary",
    "diagnostics", "fit_field_nls", "fit_loglinear", "nonparametric_fit",
    "regional_heterogeneity", "select_profile_model",
    "GridObservation", "SourceSite", "build_sample", "haversine_km", "load_observations",
    "load_sources", "match_nearest_source",
    "DGPSpec", "MCSummary", "RecoverySummary", "STANDARD_DGPS", "generate_dgp",
    "parameter_recovery_campaign", "run_campaign",
]

FRESH_PROBE = f"""
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "plumefront")

import plumefront
assert loaded() == ["plumefront"], loaded()
assert "dataclasses" not in sys.modules
assert plumefront.__all__ == {EXPORTS!r}, plumefront.__all__

# a name loads its home module (and what that module imports: specfun, for fields)
from plumefront import GaussianField, PlumefrontError
assert loaded() == ["plumefront", "plumefront.errors", "plumefront.fields",
                    "plumefront.specfun"], loaded()

# nothing is cached here: a patch of the home module shows through the package
fields = sys.modules["plumefront.fields"]
fields.GaussianField = patched = type("Patched", (), {{}})
assert plumefront.GaussianField is patched
fields.GaussianField = GaussianField
assert plumefront.GaussianField is GaussianField and "GaussianField" not in vars(plumefront)
"""


def test_import_loads_no_submodule():
    run_probe(FRESH_PROBE)


PROBE = """
import sys

def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)

def lazy_modules():
    # statistics, too, is imported only where it is used
    return loaded("scipy", "statistics")

import plumefront, plumefront.cli
assert not loaded("numpy", "scipy", "statistics"), loaded("numpy", "scipy", "statistics")

# the closed forms are floats in math and specfun, for every profile
for profile in (["gaussian"], ["bessel", "--amplitude", "0.7"], ["kummer", "--coeffs", "1,0.5"],
                ["decaying", "--lam", "1"]):
    for argv in (["field", "--r", "1,2", "--t", "2"],
                 ["boundary", "--tau-min", "1e-4", "--t", "1,30"]):
        argv = [*argv, "--profile", *profile]
        assert plumefront.cli.dispatch(argv) == 0, argv
        assert not loaded("numpy", "scipy", "statistics"), (argv, loaded("numpy"))
# a relative threshold with one value on stdout, and a decaying boundary at a large radius
for argv in (["boundary", "--profile", "gaussian", "--nu", "1", "--epsilon", "0.1", "--t", "4"],
             ["boundary", "--profile", "decaying", "--lam", "1", "--tau-min", "1e-6",
              "--t", "30"]):
    assert plumefront.cli.dispatch(argv) == 0, argv
    assert not loaded("numpy", "scipy", "statistics"), (argv, loaded("numpy"))
# the Gaussian's moments and exposure are closed forms: no scipy.integrate
for argv in (["moments", "--t", "1,2", "--k", "0,2,4"], ["exposure", "--r", "0.5,2"],
             ["exposure", "--r", "1e-300,1e110"], ["exposure", "--r", "1,2", "--horizon", "3"]):
    assert plumefront.cli.dispatch(argv) == 0, argv
    assert not loaded("numpy", "scipy", "statistics"), (argv, loaded("scipy"))

# the rest of the namespace resolves on first use, to its home module's object
assert "plumefront.dynamics" not in sys.modules
assert plumefront.dynamics is sys.modules["plumefront.dynamics"]
import importlib
modules = [importlib.import_module("plumefront." + name)
           for name in ("errors", "specfun", "fields", "functionals", "dynamics", "estimation",
                        "ingest", "montecarlo")]
assert set(plumefront.__all__) <= set(dir(plumefront))
unlisted = {name for name in dir(plumefront) if not name.startswith("_")} - set(plumefront.__all__)
assert all(type(getattr(plumefront, name)) is type(sys) for name in unlisted), unlisted
for name in plumefront.__all__:
    homes = [m for m in modules if name in vars(m)]
    assert homes, name
    assert all(getattr(plumefront, name) is vars(m)[name] for m in homes), name

# nothing is cached here: a patch of the home module shows through the package
original = plumefront.estimation.fit_loglinear
plumefront.estimation.fit_loglinear = patched = lambda *args: None
assert plumefront.fit_loglinear is patched
plumefront.estimation.fit_loglinear = original
assert plumefront.fit_loglinear is original and "fit_loglinear" not in vars(plumefront)

try:
    plumefront.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("plumefront.no_such_name resolved")
assert not lazy_modules(), lazy_modules()

# the field fits search log nu themselves (no scipy.optimize)
from plumefront.estimation import select_profile_model, simulate_gaussian_field_sample

r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
assert select_profile_model(r, y, t).model == "gaussian"
assert not lazy_modules(), lazy_modules()

# the cylindrical fit takes K0 from scipy.special, and nothing else from scipy
import numpy as np
from plumefront.fields import BesselField, FieldParams

field = BesselField(FieldParams(nu=0.8, q=1.0, dim=2, source_pos=(0.0, 0.0)), 0.7)
rng = np.random.default_rng(100)
t = rng.choice([0.5, 1.0, 2.0], size=300)
r = rng.uniform(0.1, 4.0, size=300)
y = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
y += 0.002 * rng.standard_normal(300)
assert select_profile_model(r, y, t, geometry_hint="cylindrical").model == "bessel"
subpackages = {m.split(".")[1] for m in loaded("scipy") if "." in m}
assert "special" in subpackages and not loaded("statistics"), lazy_modules()
others = {"optimize", "integrate", "stats", "linalg", "sparse", "spatial", "interpolate", "fft"}
assert not subpackages & others, subpackages
assert all(p == "special" or p == "version" or p.startswith("_") for p in subpackages), subpackages
"""


def test_import_and_boundary_load_no_scipy():
    run_probe(PROBE)


# A stray scipy import (`rankdata`, a spatial index for nearest sources)
# would cost each of these CLI processes about a second.
EMPIRICAL_PROBE = r"""
import math, os, sys, tempfile

import plumefront.cli

work = tempfile.mkdtemp()
src, obs, sample = (os.path.join(work, n) for n in ("src.csv", "obs.csv", "sample.csv"))
with open(src, "w") as fh:
    fh.write("id,lat,lon,capacity_mw\na,30,-95,500\nb,31,-94,400\n")
with open(obs, "w") as fh:
    fh.write("lat,lon,period,outcome\n")
    for i in range(12):
        for j in range(12):
            lat, lon = 29.5 + 0.2 * i, -95.5 + 0.2 * j
            d = 111.0 * math.hypot(lat - 30.0, 0.86 * (lon + 95.0))
            for month in range(1, 13):
                value = math.exp(-0.02 * d) * (1.0 + 0.1 * math.sin(7 * i + 3 * j + month))
                fh.write(f"{lat:.1f},{lon:.1f},2020-{month:02d},{value:.6g}\n")
for argv, unused in (
    (["ingest", "--sources", src, "--observations", obs, "--out", sample],
     ("estimation", "montecarlo", "dynamics")),
    (["estimate", "--input", sample, "--method", "both", "--robust-cutoff", "50",
      "--out", os.devnull], ("montecarlo", "dynamics")),
    (["diagnose", "--input", sample, "--split", "30", "--out", os.devnull],
     ("montecarlo", "dynamics")),
):
    code = plumefront.cli.dispatch(argv)
    assert code == 0, (argv[0], code)
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not scipy, (argv[0], scipy)
    loaded = [m for m in unused if "plumefront." + m in sys.modules]
    assert not loaded, (argv[0], loaded)
"""


def test_ingest_estimate_and_diagnose_load_no_scipy():
    run_probe(EMPIRICAL_PROBE)


# `ingest` above a million cell-source pairs (3,400 cells x 300 sources)
# loads no scipy either.  One month a cell, so the months filter drops every
# row.
LARGE_INGEST_PROBE = r"""
import os, sys, tempfile

import plumefront.cli

with tempfile.TemporaryDirectory() as work:
    src, obs = os.path.join(work, "src.csv"), os.path.join(work, "obs.csv")
    with open(src, "w") as fh:
        fh.write("id,lat,lon,capacity_mw\n")
        fh.writelines(f"s{k},{30 + k % 20 * 0.1:.1f},{-95 + k // 20 * 0.1:.1f},500\n"
                      for k in range(300))
    with open(obs, "w") as fh:
        fh.write("lat,lon,period,outcome\n")
        fh.writelines(f"{29 + i * 0.05:.2f},{-96 + j * 0.05:.2f},2020-01,1.0\n"
                      for i in range(68) for j in range(50))
    argv = ["ingest", "--sources", src, "--observations", obs, "--out", os.devnull]
    assert plumefront.cli.dispatch(argv) == 0
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not scipy, scipy
"""


def test_ingest_above_a_million_pairs_loads_no_scipy():
    run_probe(LARGE_INGEST_PROBE)
