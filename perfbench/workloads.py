"""The four benchmark workloads, their inputs, operations and output checks.

Every workload makes its inputs from the seed it is given, runs one unit of
work per call to ``op(k)`` (the k-th operation of a closed loop) and checks
the outputs afterwards with ``check``, outside the timed region.  The check
functions are plain functions of the outputs so the self-tests can feed them
deliberately perturbed values.

Workload      one operation                           unit counted
mc_campaign   run_campaign on one standard DGP         10 replications
profile_fit   select_profile_model on one data set     1 call
field_func.   the closed-form functional suite         1 suite
cli_pipeline  one CLI process (boundary, ingest,        1 process
              estimate or diagnose, in turn)
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special as sps
from scipy.optimize import brentq

import plumefront as pf
from plumefront import cli
from plumefront.estimation import simulate_gaussian_field_sample
from plumefront.montecarlo import STANDARD_DGPS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROCESS_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for child interpreters: import plumefront from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def rel_err(value, reference) -> float:
    return abs(value - reference) / abs(reference)


class Workload:
    """Base class: subclasses set name/round_size and implement the hooks."""

    name = ""
    round_size = 1  # the timed loop stops only after a whole round of ops
    paced = False  # short single-threaded Python ops in this process: time them against the reference kernel

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def generate(self):
        """Make the inputs from the seed."""

    def warm_up(self):
        """Run a small piece of the work so first-call costs fall in set-up."""

    def op(self, k: int):
        """Run the k-th operation; return (units of work, output)."""
        raise NotImplementedError

    def inprocess_op(self, k: int):
        """The operation as it runs in this process (what a traced run wraps)."""
        return self.op(k)

    def reduce(self, k: int, output):
        """Shrink an output to what check() needs; runs outside the timed call."""
        return output

    def check(self, outputs):
        """Check outputs [(k, output | None, error | None)].

        Returns (attempted, failures, details): operations attempted, one
        message per failed operation, and a dict of figures for the report.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mc_campaign
# ---------------------------------------------------------------------------


DGP_ORDER = ("strong_decay", "weak_decay", "hump", "flat")


def mc_clauses(records) -> dict[str, bool]:
    """Criterion-9 clauses that stay stable at 30-40 replications per DGP.

    Left out, with the per-DGP bias and RMSE reported by mc_figures instead:
    coverage (0.90 at 20 replications); strong-decay |bias| <= 1 km (the
    500-replication bias is 0.3-0.5 km with a standard error of about
    0.24 km at 30 replications, and seed 203 reads 1.06 km); hump
    nonparametric RMSE <= 8 km (one replication in a few hundred crosses
    about 50 km off near the far edge, and seed 42 reads 10.6 km).
    """

    def estimates(dgp, method):
        return np.array([r.estimate for r in records
                         if r.dgp_id == dgp and r.method == method and r.estimate is not None])

    def rmse(dgp, method):
        err = estimates(dgp, method) - STANDARD_DGPS[dgp].true_boundary
        return float(np.sqrt(np.mean(err * err))) if err.size else math.inf

    flat_reps = sum(1 for r in records if r.dgp_id == "flat" and r.method == "nonparametric")
    flat_fp = estimates("flat", "nonparametric").size / flat_reps if flat_reps else math.inf
    return {
        "strong nonparametric rmse <= 2 km": rmse("strong_decay", "nonparametric") <= 2.0,
        "hump parametric rmse >= 2x nonparametric":
            rmse("hump", "parametric") >= 2.0 * rmse("hump", "nonparametric"),
        "flat nonparametric false-positive rate <= 0.10": flat_fp <= 0.10,
    }


def mc_replication_problems(records) -> list[str]:
    """One message per replication that failed or reported an impossible boundary.

    Only the nonparametric detector is held to (0, d_max]: the naive
    parametric rule reports ln(10)/kappa, which lies far outside the data
    range for the hump and flat DGPs by design.
    """
    by_rep: dict[tuple, list] = {}
    for r in records:
        by_rep.setdefault((r.dgp_id, r.seed), []).append(r)
    problems = []
    for (dgp, seed), recs in sorted(by_rep.items()):
        d_max = STANDARD_DGPS[dgp].d_max
        bad = [f"{r.method} failed" for r in recs if r.failed]
        bad += [f"boundary {r.estimate} outside (0, {d_max}]" for r in recs
                if r.method == "nonparametric" and not r.failed and r.estimate is not None
                and not 0 < r.estimate <= d_max]
        if bad:
            problems.append(f"{dgp} seed {seed}: " + "; ".join(bad))
    return problems


def mc_figures(records) -> dict[str, float | None]:
    """Nonparametric bias and RMSE per DGP with a true boundary, in km."""
    out = {}
    for dgp in DGP_ORDER[:-1]:  # flat has no true boundary
        truth = STANDARD_DGPS[dgp].true_boundary
        err = np.array([r.estimate - truth for r in records if r.dgp_id == dgp
                        and r.method == "nonparametric" and r.estimate is not None])
        out[f"{dgp}_bias_km"] = float(err.mean()) if err.size else None
        out[f"{dgp}_rmse_km"] = float(np.sqrt(np.mean(err * err))) if err.size else None
    return out


def mc_counts(records) -> dict[str, int]:
    npar = [r for r in records if r.method == "nonparametric"]
    return {
        "np_reported": sum(r.estimate is not None for r in npar),
        "np_with_ci": sum(r.ci_lo is not None for r in npar),
        "failed": sum(r.failed for r in records),
    }


class MCCampaign(Workload):
    """run_campaign at the criterion-9 design, one call per standard DGP."""

    name = "mc_campaign"
    round_size = len(DGP_ORDER)
    N_REPS, N_OBS, N_BOOT, N_GRID, FRACTION = 10, 5000, 200, 512, 0.1

    def base_seed(self, rnd: int) -> int:
        # run_campaign seeds replication r with base_seed + r.
        return (self.seed * 100_003 + rnd) * self.N_REPS

    def warm_up(self):
        spec = STANDARD_DGPS["strong_decay"]
        d, y = pf.generate_dgp(spec, self.N_OBS, self.base_seed(100_000))
        pf.nonparametric_fit(d, y, bandwidth="auto-cv", n_grid=self.N_GRID)
        pf.fit_loglinear(d, np.maximum(y, 1e-6))

    def op(self, k):
        rnd, j = divmod(k, len(DGP_ORDER))
        spec = STANDARD_DGPS[DGP_ORDER[j]]
        _, records = pf.run_campaign(
            [spec], n_reps=self.N_REPS, n_obs=self.N_OBS, base_seed=self.base_seed(rnd),
            fraction=self.FRACTION, n_boot=self.N_BOOT, n_grid=self.N_GRID,
            keep_replications=True,
        )
        return self.N_REPS, records

    def check(self, outputs):
        records = [r for _, out, _ in outputs if out is not None for r in out]
        failures = [f"op {k}: {err}" for k, out, err in outputs if err is not None] * self.N_REPS
        attempted = len(records) // 2 + len(failures)
        failures += mc_replication_problems(records)
        clauses = mc_clauses(records)
        failures += [name for name, ok in clauses.items() if not ok]
        attempted += len(clauses)
        details = {"replications_per_dgp": len(records) // 2 // len(DGP_ORDER),
                   **mc_counts(records), **mc_figures(records)}
        return attempted, failures, details


# ---------------------------------------------------------------------------
# profile_fit
# ---------------------------------------------------------------------------


PROFILE_TIMES = (0.5, 1.0, 2.0)
PROFILE_N = 300
GAUSS_NU, GAUSS_NOISE, GAUSS_SEEDS = 1.0, 0.001, tuple(range(12))
BESSEL_NU, BESSEL_AMP, BESSEL_NOISE, BESSEL_SEEDS = 0.8, 0.7, 0.002, tuple(range(100, 105))


def profile_problems(items, selections) -> list[str]:
    """Gaussian data: >= 95% select gaussian with nu within 5%.
    Cylindrical data: every call selects bessel with nu within 10%."""
    problems = []
    gauss_hits = gauss_calls = 0
    for item, sel in zip(items, selections):
        kind, data_seed = item[0], item[1]
        if kind == "gaussian":
            gauss_calls += 1
            gauss_hits += sel.model == "gaussian" and rel_err(sel.params["nu"], GAUSS_NU) <= 0.05
        elif not (sel.model == "bessel" and rel_err(sel.params["nu"], BESSEL_NU) < 0.10):
            problems.append(f"cylindrical data seed {data_seed}: {sel.model} {sel.params}")
    if gauss_calls and gauss_hits < 0.95 * gauss_calls:
        problems.append(f"gaussian selected with nu within 5% in {gauss_hits}/{gauss_calls} calls")
    return problems


class ProfileFit(Workload):
    """A fixed list of select_profile_model calls at n = 300, times (0.5, 1, 2).

    The list is the data of the repository's own model-selection tests:
    Gaussian-field samples with data seeds 0-11 (no geometry hint, so a
    Gaussian and then a Kummer Gauss-Newton fit) and Bessel-field samples with
    data seeds 100-104 (cylindrical hint).  One call takes from 0.1 s to over
    20 s depending on how the Kummer fit converges on its data, so a list
    drawn afresh per seed would move the rate by tens of percent between
    seeds; the list is therefore fixed and the seed only sets its order.
    """

    name = "profile_fit"

    def generate(self):
        items = []
        for s in GAUSS_SEEDS:
            r, t, y = simulate_gaussian_field_sample(
                GAUSS_NU, 1.0, PROFILE_N, PROFILE_TIMES, GAUSS_NOISE, seed=s)
            items.append(("gaussian", s, r, t, y))
        field = pf.BesselField(
            pf.FieldParams(nu=BESSEL_NU, q=1.0, dim=2, source_pos=(0.0, 0.0)), BESSEL_AMP)
        for s in BESSEL_SEEDS:
            rng = np.random.default_rng(s)
            t = rng.choice(PROFILE_TIMES, size=PROFILE_N)
            r = rng.uniform(0.1, 4.0, size=PROFILE_N)
            clean = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
            items.append(("bessel", s, r, t, clean + BESSEL_NOISE * rng.standard_normal(PROFILE_N)))
        order = np.random.default_rng(self.seed).permutation(len(items))
        self.items = [items[i] for i in order]
        self.round_size = len(self.items)

    def warm_up(self):
        _, s, r, t, y = next(item for item in self.items if item[0] == "gaussian")
        pf.fit_field_nls(r, t, y, field_class="gaussian", seed=s)

    def op(self, k):
        item = self.items[k % len(self.items)]
        kind, s, r, t, y = item
        hint = "cylindrical" if kind == "bessel" else "none"
        return 1, (item, pf.select_profile_model(r, y, t, geometry_hint=hint, seed=s))

    def check(self, outputs):
        failures = [f"op {k}: {err}" for k, out, err in outputs if err is not None]
        done = [out for _, out, _ in outputs if out is not None]
        failures += profile_problems([d[0] for d in done], [d[1] for d in done])
        details = {"models": sorted({d[1].model for d in done})}
        return len(outputs) + 1, failures, details


# ---------------------------------------------------------------------------
# field_functionals
# ---------------------------------------------------------------------------


KUMMER_COEFFS = ((1.0, 0), (0.0, 1), (1.0, 2))
ODE_STEPS = 1000
BESSEL_ODE_STEPS = 200
WARM_UP_SUITE = 2**31  # a suite index the timed loop never reaches


def yukawa(nu, q, lam, r):
    """Long-time limit Q exp(-r sqrt(lam/nu)) / (4 pi nu r) of the decaying source."""
    return q * math.exp(-r * math.sqrt(lam / nu)) / (4.0 * math.pi * nu * r)


def bessel_radius(nu, amp, tau_min, t):
    """Radius where (A/t) K0(r / (2 sqrt(nu t))) = tau_min, solved on scipy's K0."""
    target = tau_min * t / amp
    w = brentq(lambda x: sps.k0(x) - target, 1e-12, 700.0, xtol=1e-15, rtol=1e-15)
    return 2.0 * math.sqrt(nu * t) * w


def suite_params(seed: int, k: int) -> dict:
    rng = np.random.default_rng([seed, k])
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return {
        "nu": u(0.5, 2.0), "q": u(0.5, 2.0), "t": u(1.0, 8.0), "eps": u(0.05, 0.3),
        "r_exp": u(0.5, 3.0), "amp": u(0.5, 2.0), "w_bessel": u(0.5, 3.0),
        "lam": u(0.5, 2.0), "r_yuk": u(0.5, 2.0), "z_shift": u(0.0, 0.5),
        "events": [(tuple(rng.uniform(-1.0, 1.0, 3)), u(0.0, 0.5), u(0.5, 2.0)) for _ in range(4)],
        "points": rng.uniform(-2.0, 2.0, size=(64, 3)),
    }


def run_suite(p: dict) -> dict:
    """Evaluate every field family and functional once; return the raw outputs."""
    nu, q, t, eps = p["nu"], p["q"], p["t"], p["eps"]
    out = {}
    gauss = pf.GaussianField(pf.FieldParams(nu=nu, q=q))
    spec = pf.BoundarySpec(mode="decay_by_epsilon", epsilon=eps)
    out["d_star"] = pf.boundary_radius(gauss, spec, t)
    out["velocity"] = pf.boundary_velocity(gauss, spec, t)
    out["sensitivity"] = pf.boundary_sensitivity(
        lambda v: pf.GaussianField(pf.FieldParams(nu=v, q=q)), nu, spec, t)
    out["moments"] = {k: pf.spatial_moment(gauss, k, t).value for k in (0, 2, 4)}
    out["energy"] = pf.energy(gauss, t)
    r_exp = p["r_exp"] * math.sqrt(nu * t)
    out["exposure_inf"] = pf.cumulative_exposure(gauss, r_exp)
    out["exposure_t"] = pf.cumulative_exposure(gauss, r_exp, horizon=t)
    d0 = 2.0 * math.sqrt(nu * 1.0 * math.log(1.0 / (1.0 - eps)))
    traj = pf.boundary_ode_integrate(gauss, d0, 1.0, 1.0 + t, steps=ODE_STEPS, spec=spec)
    out["ode_times"], out["ode_radii"] = traj.times, traj.radii

    bessel = pf.BesselField(pf.FieldParams(nu=nu, q=q, dim=2, source_pos=(0.0, 0.0)), p["amp"])
    radii = np.geomspace(0.05, 8.0, 32) * math.sqrt(nu * t)
    out["bessel_radii"] = radii
    out["bessel_values"] = np.array([bessel.value(float(r), t) for r in radii])
    out["bessel_d_dr"] = np.array([bessel.eval(float(r), t).d_dr for r in radii])
    r_b = 2.0 * math.sqrt(nu * t) * p["w_bessel"]
    tau_b = p["amp"] / t * float(sps.k0(p["w_bessel"]))
    out["bessel_boundary"] = pf.boundary_radius(
        bessel, pf.BoundarySpec(mode="absolute", tau_min=tau_b), t)
    out["bessel_boundary_true"] = r_b
    traj = pf.boundary_ode_integrate(bessel, r_b, t, 2.0 * t, steps=BESSEL_ODE_STEPS,
                                     spec=pf.BoundarySpec(mode="absolute", tau_min=tau_b))
    out["bessel_ode_times"], out["bessel_ode_radii"] = traj.times, traj.radii

    # Arguments z = r^2/(4 nu t) on both sides of the series/asymptotic switch at 30.
    kummer = pf.KummerField(KUMMER_COEFFS, pf.FieldParams(nu=nu, q=q))
    z = np.linspace(24.0, 36.0, 25) + p["z_shift"]
    out["kummer_values"] = np.array([kummer.value(math.sqrt(4.0 * nu * t * zz), t) for zz in z])
    zc = np.linspace(0.5, 15.0, 8)
    out["connection"] = [(pf.kummer_m(0.5, 1.0, 2.0 * x).value,
                          math.exp(x) * pf.bessel_i(0.0, float(x)).value) for x in zc]

    lam = p["lam"]
    dec = pf.DecayingSourceField(pf.FieldParams(nu=nu, q=q, lam=lam))
    r_y = p["r_yuk"] * math.sqrt(nu / lam)
    out["decaying_value"] = dec.value(r_y, 40.0 / lam)
    out["decaying_r"] = r_y
    out["decaying_boundary"] = pf.boundary_radius(
        dec, pf.BoundarySpec(mode="absolute", tau_min=yukawa(nu, q, lam, r_y)), 40.0 / lam)
    out["steady_boundary"] = pf.steady_state_boundary(nu, lam, q, 1e-3 * q / nu)

    events = [pf.SourceEvent(pos=pos, time=s, strength=w) for pos, s, w in p["events"]]
    out["superposed"] = np.array([pf.superpose(events, nu, x, 1.0) for x in p["points"]])
    return out


def suite_problems(p: dict, out: dict) -> list[str]:
    """Closed forms of criteria 1-5 and 7, Bessel values against scipy, the
    decaying source against its Yukawa limit and superposition against a
    direct sum.  Kummer values are not gated (known z > 30 error)."""
    nu, q, t, eps = p["nu"], p["q"], p["t"], p["eps"]
    log_term = math.log(1.0 / (1.0 - eps))
    d_star = 2.0 * math.sqrt(nu * t * log_term)
    r_exp = p["r_exp"] * math.sqrt(nu * t)
    w = out["bessel_radii"] / (2.0 * math.sqrt(nu * t))
    exact_ode = 2.0 * np.sqrt(nu * out["ode_times"] * log_term)
    r_y, lam = out["decaying_r"], p["lam"]
    tau_b = p["amp"] / t * float(sps.k0(p["w_bessel"]))
    bessel_exact = np.array([bessel_radius(nu, p["amp"], tau_b, tt)
                             for tt in out["bessel_ode_times"][::20]])
    superposed = np.zeros(len(p["points"]))
    for pos, s, strength in p["events"]:
        dt = 1.0 - s
        rr = np.sum((p["points"] - np.asarray(pos)) ** 2, axis=1)
        superposed += strength * np.exp(-rr / (4.0 * nu * dt)) / (4.0 * math.pi * nu * dt) ** 1.5
    steady_len = math.sqrt(nu / lam)
    checks = {
        "boundary radius d* = 2 sqrt(nu t ln(1/(1-eps)))": rel_err(out["d_star"], d_star) <= 1e-8,
        "boundary velocity = d*/(2t)": rel_err(out["velocity"], d_star / (2.0 * t)) <= 1e-7,
        "boundary sensitivity = d*/(2 nu)": rel_err(out["sensitivity"], d_star / (2.0 * nu)) <= 1e-7,
        "M0 = Q": rel_err(out["moments"][0], q) <= 1e-6,
        "M2 = 6 nu Q t": rel_err(out["moments"][2], 6.0 * nu * q * t) <= 1e-6,
        "M4 = 60 Q (nu t)^2": rel_err(out["moments"][4], 60.0 * q * (nu * t) ** 2) <= 1e-6,
        "E = Q^2 (8 pi nu t)^(-3/2)": rel_err(out["energy"], q * q * (8.0 * math.pi * nu * t) ** -1.5)
        <= 1e-6,
        "infinite-horizon exposure = Q/(4 pi nu r)":
            rel_err(out["exposure_inf"], q / (4.0 * math.pi * nu * r_exp)) <= 1e-6,
        "exposure to t = Q/(4 pi nu r) erfc(r/sqrt(4 nu t))":
            rel_err(out["exposure_t"], q / (4.0 * math.pi * nu * r_exp)
                    * math.erfc(r_exp / math.sqrt(4.0 * nu * t))) <= 1e-6,
        "ODE trajectory within 1e-8 of the closed-form radius":
            float(np.max(np.abs(out["ode_radii"] - exact_ode) / exact_ode)) <= 1e-8
            and out["ode_times"][-1] >= 1.0 + t - 1e-9,
        "Bessel ODE trajectory within 1e-6 of the K0 level set":
            float(np.max(np.abs(out["bessel_ode_radii"][::20] / bessel_exact - 1.0))) <= 1e-6
            and out["bessel_ode_times"][-1] >= 2.0 * t - 1e-9,
        "Bessel values = (A/t) K0 (scipy)":
            float(np.max(np.abs(out["bessel_values"] / (p["amp"] / t * sps.k0(w)) - 1.0))) <= 1e-9,
        "Bessel d/dr = -(A/t) K1 / (2 sqrt(nu t)) (scipy)":
            float(np.max(np.abs(out["bessel_d_dr"]
                                / (-p["amp"] / t * sps.k1(w) / (2.0 * math.sqrt(nu * t))) - 1.0)))
            <= 1e-9,
        "Bessel absolute-threshold boundary": rel_err(out["bessel_boundary"],
                                                      out["bessel_boundary_true"]) <= 1e-8,
        "M(1/2, 1, 2z) = e^z I0(z) for 2z <= 30":
            max(rel_err(a, b) for a, b in out["connection"]) <= 1e-8,
        "decaying source = Yukawa limit at lam t = 40":
            rel_err(out["decaying_value"], yukawa(nu, q, lam, r_y)) <= 1e-6,
        "decaying-source boundary = Yukawa level set at lam t = 40":
            rel_err(out["decaying_boundary"], r_y) <= 1e-6,
        "steady-state boundary = l ln(Q/(lam l tau_min))":
            rel_err(out["steady_boundary"],
                    steady_len * math.log(q / (lam * steady_len * (1e-3 * q / nu)))) <= 1e-12,
        "superposition = direct sum of Green's functions":
            float(np.max(np.abs(out["superposed"] - superposed) / superposed)) <= 1e-12,
        "Kummer values finite": bool(np.all(np.isfinite(out["kummer_values"]))),
    }
    return [name for name, ok in checks.items() if not ok]


class FieldFunctionals(Workload):
    """The closed-form suite over all five field families, fresh parameters per suite."""

    name = "field_functionals"
    round_size = 5
    paced = True

    def warm_up(self):
        run_suite(suite_params(self.seed, WARM_UP_SUITE))

    def op(self, k):
        return 1, run_suite(suite_params(self.seed, k))

    def reduce(self, k, output):
        return suite_problems(suite_params(self.seed, k), output)

    def check(self, outputs):
        failures = [f"op {k}: {err}" for k, out, err in outputs if err is not None]
        failures += [f"suite {k}: {m}" for k, out, _ in outputs if out is not None for m in out]
        return len(outputs), failures, {}


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------


CLI_BOUNDARY_ARGS = ["boundary", "--profile", "gaussian", "--nu", "1", "--epsilon", "0.1", "--t", "4"]
CLI_BOUNDARY_EXPECTED = "1.298371384"
N_SOURCES, GRID_LAT, GRID_LON, N_MONTHS = 300, 30, 40, 24
KAPPA_TRUE, KAPPA_TOL = 0.04, 0.02  # per km; relative tolerance on the estimate
MIN_CAPACITY, MAX_DISTANCE_KM, MIN_MONTHS = 100.0, 200.0, 10
ROBUST_CUTOFF_KM, SPLIT_KM = 50.0, 30.0
EARTH_RADIUS_KM = 6371.0088
ORACLE_BLOCK_ROWS = 1024


def haversine_matrix(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distances (km) between every pair, by the haversine formula."""
    p1, p2 = np.radians(lat1)[:, None], np.radians(lat2)[None, :]
    dlat = p2 - p1
    dlon = np.radians(lon2)[None, :] - np.radians(lon1)[:, None]
    a = np.sin(dlat / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def make_pipeline_inputs(seed: int):
    """Sources and monthly cell observations as (sources_text, observations_text).

    Outcomes decay as 5 exp(-kappa d) with log-normal noise, d the distance to
    the nearest source above the capacity cut.  About 3% of outcomes are
    missing, 1% are negative (dropped as invalid) and one cell-year in ten
    keeps only 6 months (dropped by the 10-month rule).
    """
    rng = np.random.default_rng([seed, 7])
    src_lat = rng.uniform(31.0, 39.0, N_SOURCES).round(4)
    src_lon = rng.uniform(-101.0, -89.0, N_SOURCES).round(4)
    capacity = rng.lognormal(math.log(150.0), 0.8, N_SOURCES).round(1)
    keep = capacity > MIN_CAPACITY
    lat = np.repeat(np.linspace(32.0, 38.0, GRID_LAT), GRID_LON).round(4)
    lon = np.tile(np.linspace(-100.0, -90.0, GRID_LON), GRID_LAT).round(4)
    d = haversine_matrix(lat, lon, src_lat[keep], src_lon[keep]).min(axis=1)

    src_rows = ["id,lat,lon,capacity_mw"]
    src_rows += [f"S{i:04d},{a:.4f},{b:.4f},{c:.1f}"
                 for i, (a, b, c) in enumerate(zip(src_lat, src_lon, capacity))]
    obs_rows = ["lat,lon,period,outcome"]
    for cell in range(lat.size):
        for year in (2020, 2021):
            short = rng.random() < 0.1
            for month in range(1, 13):
                if short and month > 6:
                    continue
                u = rng.random()
                if u < 0.03:
                    outcome = ""
                elif u < 0.04:
                    outcome = "-1"
                else:
                    val = 5.0 * math.exp(-KAPPA_TRUE * d[cell] + 0.25 * rng.standard_normal())
                    outcome = f"{val:.6g}"
                obs_rows.append(f"{lat[cell]:.4f},{lon[cell]:.4f},{year}-{month:02d},{outcome}")
    return "\n".join(src_rows) + "\n", "\n".join(obs_rows) + "\n"


def expected_sample(sources_text: str, observations_text: str) -> list[tuple]:
    """Brute-force ingest: (lat, lon, period, outcome, nearest id, distance) rows."""
    src = list(csv.DictReader(io.StringIO(sources_text)))
    src = [s for s in src if float(s["capacity_mw"]) > MIN_CAPACITY]
    obs = [o for o in csv.DictReader(io.StringIO(observations_text))
           if o["outcome"] != "" and float(o["outcome"]) >= 0]
    lat = np.array([float(o["lat"]) for o in obs])
    lon = np.array([float(o["lon"]) for o in obs])
    src_lat = np.array([float(s["lat"]) for s in src])
    src_lon = np.array([float(s["lon"]) for s in src])
    # In blocks of rows, so this process stays small: a child process forked
    # from it starts with its resident set, which would count in the
    # children's peak.
    idx, dist = np.empty(len(obs), dtype=int), np.empty(len(obs))
    for lo in range(0, len(obs), ORACLE_BLOCK_ROWS):
        dm = haversine_matrix(lat[lo:lo + ORACLE_BLOCK_ROWS], lon[lo:lo + ORACLE_BLOCK_ROWS],
                              src_lat, src_lon)
        idx[lo:lo + len(dm)] = np.argmin(dm, axis=1)
        dist[lo:lo + len(dm)] = dm[np.arange(len(dm)), idx[lo:lo + len(dm)]]
    near = [(o, src[i]["id"], dd) for o, i, dd in zip(obs, idx, dist) if dd <= MAX_DISTANCE_KM]
    months: dict[tuple, set] = {}
    for o, _, _ in near:
        months.setdefault((o["lat"], o["lon"], o["period"][:4]), set()).add(o["period"])
    return [(float(o["lat"]), float(o["lon"]), o["period"], float(o["outcome"]), sid, float(dd))
            for o, sid, dd in near
            if len(months[(o["lat"], o["lon"], o["period"][:4])]) >= MIN_MONTHS]


def sample_problems(sample_text: str, expected: list[tuple]) -> list[str]:
    """Compare the ingest table with the brute-force match row by row."""
    rows = list(csv.DictReader(io.StringIO(sample_text)))
    if len(rows) != len(expected):
        return [f"ingest kept {len(rows)} rows, brute force keeps {len(expected)}"]
    for i, (row, exp) in enumerate(zip(rows, expected)):
        got = (float(row["lat"]), float(row["lon"]), row["period"], float(row["outcome"]),
               row["nearest_source_id"], float(row["distance_km"]))
        if got[:5] != exp[:5] or abs(got[5] - exp[5]) > 1e-6 * max(exp[5], 1.0):
            return [f"ingest row {i}: {got} != brute force {exp}"]
    return []


def estimate_problems(estimate_text: str) -> list[str]:
    rows = {r["method"]: r for r in csv.DictReader(io.StringIO(estimate_text))}
    problems = []
    kappa = float(rows["loglinear"]["kappa_per_km"])
    if rel_err(kappa, KAPPA_TRUE) > KAPPA_TOL:
        problems.append(f"log-linear kappa {kappa} not within {KAPPA_TOL:.0%} of {KAPPA_TRUE}")
    if rows["nonparametric"]["reject_null"] != "true":
        problems.append("nonparametric decline gate did not reject on decaying data")
    return problems


class CLIPipeline(Workload):
    """plumefront's command line driven as separate processes on seeded files.

    One operation is one process; a round is the cycle boundary, ingest,
    estimate, diagnose.
    """

    name = "cli_pipeline"
    SUBCOMMANDS = ("boundary", "ingest", "estimate", "diagnose")
    round_size = len(SUBCOMMANDS)

    def generate(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sources_text, self.observations_text = make_pipeline_inputs(self.seed)
        self.paths = {n: self.workdir / f"{n}.csv"
                      for n in ("sources", "observations", "sample", "estimate", "diagnose", "bnd")}
        self.paths["sources"].write_text(self.sources_text, encoding="utf-8")
        self.paths["observations"].write_text(self.observations_text, encoding="utf-8")

    def argv(self, sub: str) -> list[str]:
        p = {k: str(v) for k, v in self.paths.items()}
        if sub == "boundary":
            return list(CLI_BOUNDARY_ARGS)
        if sub == "ingest":
            return ["ingest", "--sources", p["sources"], "--observations", p["observations"],
                    "--out", p["sample"]]
        if sub == "estimate":
            return ["estimate", "--input", p["sample"], "--method", "both",
                    "--robust-cutoff", str(ROBUST_CUTOFF_KM), "--out", p["estimate"]]
        return ["diagnose", "--input", p["sample"], "--split", str(SPLIT_KM), "--out", p["diagnose"]]

    def _clear_outputs(self):
        for name in ("sample", "estimate", "diagnose", "bnd"):
            self.paths[name].unlink(missing_ok=True)

    def op(self, k):
        sub = self.SUBCOMMANDS[k % len(self.SUBCOMMANDS)]
        if k % len(self.SUBCOMMANDS) == 0:
            self._clear_outputs()
        proc = run_process(["-m", "plumefront.cli"] + self.argv(sub))
        return 1, {"sub": sub, "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def inprocess_op(self, k):
        sub = self.SUBCOMMANDS[k % len(self.SUBCOMMANDS)]
        if k % len(self.SUBCOMMANDS) == 0:
            self._clear_outputs()
        argv = self.argv(sub) + (["--out", str(self.paths["bnd"])] if sub == "boundary" else [])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        stdout = ""
        if sub == "boundary" and self.paths["bnd"].exists():
            table = self.paths["bnd"].read_text(encoding="utf-8").splitlines()
            stdout = table[1].split(",")[1] if len(table) == 2 else ""
        return 1, {"sub": sub, "code": code, "stdout": stdout, "stderr": err.getvalue()}

    @functools.cached_property
    def expected(self) -> list[tuple]:
        """The brute-force ingest table, computed once, outside the set-up."""
        return expected_sample(self.sources_text, self.observations_text)

    def reduce(self, k, output):
        """The problems with one process's output (outside the timed call)."""
        sub, code = output["sub"], output["code"]
        if code:
            return [f"{sub} exited {code}"]
        if sub == "boundary":
            value = output["stdout"].strip()
            return [] if value == CLI_BOUNDARY_EXPECTED else [f"boundary printed {value!r}"]
        if sub == "diagnose":
            found = "decision=framework_applies" in output["stderr"]
            return [] if found else ["diagnose did not find the decay"]
        path = self.paths["sample" if sub == "ingest" else "estimate"]
        if not path.exists():
            return [f"{sub} wrote no table"]
        text = path.read_text(encoding="utf-8")
        return sample_problems(text, self.expected) if sub == "ingest" else estimate_problems(text)

    def check(self, outputs):
        failures = [f"op {k}: {err}" for k, out, err in outputs if err is not None]
        failures += [f"op {k}: {m}" for k, out, _ in outputs if out is not None for m in out]
        return len(outputs), failures, {"rows_expected": len(self.expected)}


def run_process(args) -> subprocess.CompletedProcess:
    """Run a child interpreter from the checkout root and wait for it to end."""
    return subprocess.run([sys.executable] + list(args), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)


WORKLOADS = {w.name: w for w in (MCCampaign, ProfileFit, FieldFunctionals, CLIPipeline)}
