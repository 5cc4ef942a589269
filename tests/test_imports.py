"""Importing the package, running a closed-form command and selecting a
profile model (Gaussian data, and Bessel data with the cylindrical hint)
load neither scipy nor statistics."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys

def lazy_modules():
    # statistics, too, is imported only where it is used
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "statistics"))

import plumefront, plumefront.cli
assert not lazy_modules(), lazy_modules()
code = plumefront.cli.dispatch(
    ["boundary", "--profile", "gaussian", "--nu", "1", "--epsilon", "0.1", "--t", "4"]
)
assert code == 0, code
assert not lazy_modules(), lazy_modules()

# the field fits search log nu themselves (no scipy.optimize)
from plumefront.estimation import select_profile_model, simulate_gaussian_field_sample

r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
assert select_profile_model(r, y, t).model == "gaussian"
assert not lazy_modules(), lazy_modules()

# the cylindrical fit evaluates K0 on arrays in specfun
import numpy as np
from plumefront.fields import BesselField, FieldParams

field = BesselField(FieldParams(nu=0.8, q=1.0, dim=2, source_pos=(0.0, 0.0)), 0.7)
rng = np.random.default_rng(100)
t = rng.choice([0.5, 1.0, 2.0], size=300)
r = rng.uniform(0.1, 4.0, size=300)
y = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
y += 0.002 * rng.standard_normal(300)
assert select_profile_model(r, y, t, geometry_hint="cylindrical").model == "bessel"
assert not lazy_modules(), lazy_modules()
"""


def test_import_and_boundary_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# A stray scipy import (a k-d tree below its size limit, `rankdata`) would
# cost each of these CLI processes about a second.
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
for argv in (
    ["ingest", "--sources", src, "--observations", obs, "--out", sample],
    ["estimate", "--input", sample, "--method", "both", "--robust-cutoff", "50",
     "--out", os.devnull],
    ["diagnose", "--input", sample, "--split", "30", "--out", os.devnull],
):
    code = plumefront.cli.dispatch(argv)
    assert code == 0, (argv[0], code)
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not scipy, (argv[0], scipy)
"""


def test_ingest_estimate_and_diagnose_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", EMPIRICAL_PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
