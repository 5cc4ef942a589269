"""Simulation harness for boundary-detection and parameter-recovery studies.

Four data-generating processes span the spatial patterns of interest:
strong exponential decay, weak exponential decay, a non-monotone hump, and
a flat null with no boundary at all.  The harness runs a parametric
(log-linear, naive always-report) detector and the nonparametric
(local-linear + bootstrap gate) detector over seeded replications and
aggregates bias, RMSE, interval coverage, and false-positive behaviour.
The gate tests at the 5% level and the interval is the 95% percentile
interval (`estimation.ALPHA`).

All randomness flows through numpy's seeded default generator (PCG64);
replication r uses base_seed + r, so results are independent of execution
order and bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PlumefrontError
from .estimation import (
    DEFAULT_CLAMP,
    LN10,
    _check_bootstrap_args,
    _check_grid_size,
    bootstrap_boundary_interval,
    detect_boundary,
    fit_field_nls,
    fit_loglinear,
    nonparametric_fit,
    simulate_gaussian_field_sample,
)


@dataclass(frozen=True)
class DGPSpec:
    """One data-generating process: mean function, noise level, truth."""

    id: str  # strong_decay | weak_decay | hump | flat
    params: dict
    noise_sd: float
    true_boundary: float | None
    d_max: float

    def __post_init__(self):
        if not self.noise_sd > 0:
            raise DomainError(f"noise_sd must be > 0, got {self.noise_sd}")
        if (self.true_boundary is None) != (self.id == "flat"):
            raise DomainError("true_boundary must be None exactly for the flat DGP")


def _mean_strong(d, p):
    return p["amplitude"] * np.exp(-p["kappa"] * d)


def _mean_hump(d, p):
    return p["base"] + p["amp"] * np.exp(-((d - p["center"]) ** 2) / p["width_sq"])


def _mean_flat(d, p):
    return np.full_like(d, p["level"])


_MEANS = {
    "strong_decay": _mean_strong,
    "weak_decay": _mean_strong,
    "hump": _mean_hump,
    "flat": _mean_flat,
}

# The hump DGP's 38.2 km comparison target is taken from the boundary-
# detection benchmark as given; no threshold convention derives it from the
# hump formula, so it is flagged as an external target wherever reported.
STANDARD_DGPS = {
    "strong_decay": DGPSpec(
        id="strong_decay",
        params={"amplitude": 0.8, "kappa": 0.05},
        noise_sd=0.1,
        true_boundary=LN10 / 0.05,
        d_max=100.0,
    ),
    "weak_decay": DGPSpec(
        id="weak_decay",
        params={"amplitude": 0.6, "kappa": 0.005},
        noise_sd=0.08,
        true_boundary=LN10 / 0.005,
        d_max=600.0,
    ),
    "hump": DGPSpec(
        id="hump",
        params={"base": 0.5, "amp": 0.2, "center": 20.0, "width_sq": 200.0},
        noise_sd=0.06,
        true_boundary=38.2,
        d_max=100.0,
    ),
    "flat": DGPSpec(
        id="flat",
        params={"level": 0.5},
        noise_sd=0.05,
        true_boundary=None,
        d_max=100.0,
    ),
}


@dataclass(frozen=True)
class MCSummary:
    dgp_id: str
    method: str  # parametric | nonparametric
    bias: float | None
    rmse: float | None
    coverage: float | None
    false_positive_rate: float | None
    correct_rejection_rate: float | None
    n_reps: int
    n_obs: int
    n_detected: int
    n_failed: int


@dataclass(frozen=True)
class ReplicationRecord:
    dgp_id: str
    method: str
    rep: int
    seed: int
    estimate: float | None
    ci_lo: float | None
    ci_hi: float | None
    failed: bool


def mean_function(spec: DGPSpec, d):
    return _MEANS[spec.id](np.asarray(d, dtype=float), spec.params)


def generate_dgp(spec: DGPSpec, n: int, seed: int):
    """Distances uniform on (0, d_max]; outcomes = mean + Gaussian noise."""
    if n <= 0:
        raise DomainError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    d = spec.d_max * (1.0 - rng.random(n))  # (0, d_max]
    y = mean_function(spec, d) + spec.noise_sd * rng.standard_normal(n)
    return d, y


def _parametric_detect(d, y):
    """Naive always-report rule: log-linear fit on floored outcomes, boundary
    whenever the fitted decay is positive, no significance gate."""
    fit = fit_loglinear(d, np.maximum(y, DEFAULT_CLAMP))
    return fit.d_star, fit.d_star_ci


def _nonparametric_detect(d, y, fraction, n_boot, n_grid, seed):
    """Local-linear crossing with the bootstrap decline gate and percentile CI.

    The gate and the interval draw from one generator seeded with `seed`,
    the gate first.
    """
    fit = nonparametric_fit(d, y, bandwidth="auto-cv", n_grid=n_grid)
    rng = np.random.default_rng(seed)
    boundary, _ = detect_boundary(fit, fraction, n_boot, seed=rng)
    if boundary is None:
        return None, None
    return boundary, bootstrap_boundary_interval(fit, fraction, n_boot, seed=rng)


def _summarize(spec, method, records, n_obs):
    estimates = np.array([r.estimate for r in records if r.estimate is not None])
    n_detected = estimates.size
    n_failed = sum(r.failed for r in records)
    bias = rmse = coverage = fp = cr = None
    if spec.true_boundary is None:
        if n_failed < len(records):  # rates over the replications that did not fail
            fp = n_detected / (len(records) - n_failed)
            cr = 1.0 - fp
    elif n_detected:
        err = estimates - spec.true_boundary
        bias = float(err.mean())
        rmse = float(np.sqrt(np.mean(err**2)))
        covered = [
            r.ci_lo <= spec.true_boundary <= r.ci_hi
            for r in records
            if r.estimate is not None and r.ci_lo is not None
        ]
        coverage = float(np.mean(covered)) if covered else None
    return MCSummary(
        dgp_id=spec.id,
        method=method,
        bias=bias,
        rmse=rmse,
        coverage=coverage,
        false_positive_rate=fp,
        correct_rejection_rate=cr,
        n_reps=len(records),
        n_obs=n_obs,
        n_detected=n_detected,
        n_failed=n_failed,
    )


def run_campaign(
    specs,
    n_reps: int,
    n_obs: int,
    methods=("parametric", "nonparametric"),
    base_seed: int = 0,
    fraction: float = 0.1,
    n_boot: int = 200,
    n_grid: int = 512,
    keep_replications: bool = False,
):
    """Run every method on every DGP over seeded replications and aggregate.

    The methods (at least one, none repeated) and the detector arguments
    are checked before the first replication.
    Per-replication failures are recorded, not fatal; the summary carries the
    failure count, and the flat DGP's rates count only the replications that
    did not fail (None if all did).  Returns the summaries, plus the
    per-replication records when keep_replications is set.
    """
    if n_reps < 10:
        raise DomainError(f"n_reps must be >= 10, got {n_reps}")
    if (not methods or len(set(methods)) < len(methods)
            or set(methods) - {"parametric", "nonparametric"}):
        raise DomainError("methods must be one or more of parametric and nonparametric, none "
                          f"repeated: got {list(methods)}")
    _check_bootstrap_args(fraction, n_boot)
    _check_grid_size(n_grid)

    summaries = []
    all_records = []
    for spec in specs:
        per_method = {m: [] for m in methods}
        for rep in range(n_reps):
            seed = base_seed + rep
            d, y = generate_dgp(spec, n_obs, seed)
            for method in methods:
                estimate = ci = None
                failed = False
                try:
                    if method == "parametric":
                        estimate, ci = _parametric_detect(d, y)
                    else:
                        estimate, ci = _nonparametric_detect(d, y, fraction, n_boot, n_grid, seed)
                except PlumefrontError:
                    failed = True
                per_method[method].append(
                    ReplicationRecord(
                        dgp_id=spec.id,
                        method=method,
                        rep=rep,
                        seed=seed,
                        estimate=estimate,
                        ci_lo=None if ci is None else ci[0],
                        ci_hi=None if ci is None else ci[1],
                        failed=failed,
                    )
                )
        for method in methods:
            summaries.append(_summarize(spec, method, per_method[method], n_obs))
            all_records.extend(per_method[method])
    if keep_replications:
        return summaries, all_records
    return summaries


@dataclass(frozen=True)
class RecoverySummary:
    """Parameter-recovery metrics for the Gaussian-field least-squares fit."""

    true_nu: float
    true_q: float
    bias_nu: float
    bias_q: float
    rmse_nu: float
    rmse_q: float
    mean_se_nu: float
    mean_se_q: float
    qq_normality_corr_nu: float
    qq_normality_corr_q: float
    qq_table: list  # (normal quantile, standardized nu quantile, standardized q quantile)
    n_reps: int
    n_failed: int
    estimates_nu: np.ndarray
    estimates_q: np.ndarray


def _qq_corr(values: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    # imported here: statistics adds about 2 ms to every process that imports it
    from statistics import NormalDist

    ordered = np.sort(values)
    std = (ordered - ordered.mean()) / ordered.std(ddof=1)
    n = ordered.size
    theo = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    return float(np.corrcoef(theo, std)[0, 1]), theo, std


def parameter_recovery_campaign(
    n_reps: int, n_obs: int = 600, noise_sd: float = 0.00025, seed: int = 0
) -> RecoverySummary:
    """Repeatedly simulate Gaussian-field samples, refit, and summarize.

    The samples are drawn at nu = q = 1 and times 0.5, 1 and 2.  Default
    noise keeps the estimates in the regime where the recovery RMSE targets
    are testable; noise_sd = 0 reproduces the exact-recovery check.
    """
    if n_reps < 10:
        raise DomainError(f"n_reps must be >= 10, got {n_reps}")
    nu0 = q0 = 1.0
    nus, qs, ses_nu, ses_q = [], [], [], []
    n_failed = 0
    for rep in range(n_reps):
        r, t, y = simulate_gaussian_field_sample(nu0, q0, n_obs, (0.5, 1.0, 2.0), noise_sd,
                                                 seed=seed + rep)
        try:
            fit = fit_field_nls(r, t, y, field_class="gaussian")
        except PlumefrontError:
            n_failed += 1
            continue
        nus.append(fit.nu)
        qs.append(fit.q)
        ses_nu.append(fit.se_nu)
        ses_q.append(fit.se_q)

    nus = np.array(nus)
    qs = np.array(qs)
    if nus.size < 2:
        raise DomainError("too few successful replications to summarize")
    corr_nu, theo, std_nu = _qq_corr(nus)
    corr_q, _, std_q = _qq_corr(qs)
    table = list(zip(theo.tolist(), std_nu.tolist(), std_q.tolist()))
    return RecoverySummary(
        true_nu=nu0,
        true_q=q0,
        bias_nu=float(nus.mean() - nu0),
        bias_q=float(qs.mean() - q0),
        rmse_nu=float(np.sqrt(np.mean((nus - nu0) ** 2))),
        rmse_q=float(np.sqrt(np.mean((qs - q0) ** 2))),
        mean_se_nu=float(np.mean(ses_nu)),
        mean_se_q=float(np.mean(ses_q)),
        qq_normality_corr_nu=corr_nu,
        qq_normality_corr_q=corr_q,
        qq_table=table,
        n_reps=n_reps,
        n_failed=n_failed,
        estimates_nu=nus,
        estimates_q=qs,
    )
