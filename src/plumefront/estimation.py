"""Statistical recovery of decay parameters and boundaries from point data.

Parametric side: log-linear decay fits with spatial-correlation-robust
standard errors (pairwise Bartlett taper over inter-observation distance)
and the implied 10%-decay boundary d* = ln(10)/kappa with a delta-method
confidence interval.

Nonparametric side: local-linear regression with an Epanechnikov kernel on
an evenly spaced grid, rule-of-thumb bandwidth optionally refined by
leave-one-out cross-validation, and threshold-crossing boundary detection
gated by a paired bootstrap test of total decline at the 5% level (so that
flat profiles are rejected rather than assigned spurious boundaries) and
reported with a 95% bootstrap percentile interval.

Every local-linear sum comes from one kernel: the Epanechnikov weight is a
polynomial inside its window, so the sums at all grid points follow from
prefix sums of powers of distance over the sorted data (Fan and Marron 1994;
Seifert et al. 1994), centred per block of grid points at most 4 bandwidths
wide to hold the cancellation near 1e-12.  The reported fit is exact;
cross-validation and the bootstrap still run on 400 bins, far narrower than
any admissible bandwidth.  On the bin lattice the CV takes the sums of every
occupied bin at all ten bandwidths from one call of the direct-sum kernel,
one matrix product each, and the bootstrap gate draws only the
observations in the bins its two endpoint windows read.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, FitError, InsufficientDataError
from .fields import FieldParams
from .functionals import _zeroin
from .specfun import kummer_m

LN10 = math.log(10.0)
Z95 = 1.959963984540054  # two-sided 95% normal quantile
Z05_ONESIDED = 1.6448536269514722
CHI2_1_99 = 6.6348966010212145
SCAN_HALF_WIDTH = 12.0  # the field fits scan log nu over log median r^2 / 4t +- this
_SCAN_BLOCK = 1 << 16  # most profile values one model call of a field fit evaluates
_LOG_FLOAT_MIN, _LOG_FLOAT_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)

CV_GRID_SIZE = 10
CV_GRID_SPAN = 4.0  # bandwidth grid from rot/span to rot*span
N_BINS = 400
ALPHA = 0.05  # the gate's one-sided level; the interval covers 1 - ALPHA
DEFAULT_CLAMP = 1e-6
_BLOCK_BANDWIDTHS = 4.0  # widest grid block sharing one prefix-sum centre
_DIRECT_SUM_COND = 10.0  # windows of worse conditioning take direct sums
_DRAW_CHUNK = 1 << 16  # most bootstrap indices drawn in one call (cache-sized)
# Bootstrap intervals refit at a mildly undersmoothed bandwidth so the
# resampling spread is not masked by smoothing bias (the usual coverage
# device for kernel-smoothing intervals).
CI_UNDERSMOOTH = 0.7


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Log-linear decay fit; kappa_s > 0 means the outcome decays with distance."""

    kappa_s: float
    intercept: float
    se_classical: float
    se_spatial: float | None
    r_squared: float
    n: int
    d_star: float | None
    d_star_ci: tuple[float, float] | None


@dataclass(frozen=True)
class NonparFit:
    """Local-linear fit on a distance grid.

    distances/outcomes are retained so that boundary detection can bootstrap
    by resampling observation pairs and refitting.
    """

    grid: np.ndarray
    m_hat: np.ndarray
    bandwidth: float
    distances: np.ndarray
    outcomes: np.ndarray


@dataclass(frozen=True)
class DiagnosticsReport:
    spearman_rho: float
    spearman_p: float
    binned_means: list  # (lo, hi, mean, se, count)
    pct_decline_from_first_bin: list
    decision: str  # framework_applies | framework_weak | framework_rejected
    n_bins_used: int
    bins_widened: bool


@dataclass(frozen=True)
class RegionalResult:
    near: DecayFit
    far: DecayFit
    split_distance: float
    sign_reversal: bool


@dataclass(frozen=True)
class FieldFitResult:
    nu: float
    q: float
    cov: np.ndarray
    rss: float
    n_iter: int  # rss evaluations: 49 scan rows, then one per slope of the root search
    se_nu: float
    se_q: float  # finite even where cov[1, 1] = se_q^2 overflows


@dataclass(frozen=True)
class ProfileSelection:
    model: str  # gaussian | bessel | kummer
    params: dict
    rss: float
    runs_z: float | None
    lr_stat: float | None


def _as_columns(label: str, *arrays) -> list[np.ndarray]:
    """The arrays as finite 1-D float arrays of equal length; label names them."""
    cols = [np.asarray(a, dtype=float) for a in arrays]
    if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
        raise DataError(f"{label} must be 1-D arrays of equal length")
    if not all(np.isfinite(c).all() for c in cols):
        raise DataError(f"{label} must be finite (no NaN or inf)")
    return cols


def _as_xy(distances, outcomes) -> list[np.ndarray]:
    """Distances and outcomes as finite 1-D float arrays of equal length."""
    return _as_columns("distances and outcomes", distances, outcomes)


def _check_varies(d, y):
    """DataError when the distances or the outcomes are all equal."""
    for name, col in (("distances", d), ("outcomes", y)):
        if col.size and col.min() == col.max():
            raise DataError(f"{name} do not vary (every value is {col[0]:.6g})")


# ---------------------------------------------------------------------------
# parametric: log-linear decay
# ---------------------------------------------------------------------------


def boundary_from_kappa(kappa: float, se: float) -> tuple[float | None, tuple[float, float] | None]:
    """10%-decay boundary ln(10)/kappa with delta-method 95% interval.

    The half-width is 1.96 ln(10) se / kappa^2, inf where that overflows; no
    boundary is implied for kappa <= 0.  DomainError for a kappa that is not
    finite or an se that is negative or not finite.
    """
    if not math.isfinite(kappa):
        raise DomainError(f"kappa must be finite, got {kappa}")
    if not 0 <= se < math.inf:
        raise DomainError(f"se must be >= 0 and finite, got {se}")
    if kappa <= 0:
        return None, None
    d_star = LN10 / kappa
    half = Z95 * LN10 * se / kappa / kappa  # kappa * kappa may underflow to 0
    return d_star, (d_star - half, d_star + half)


def _spatial_hac_cov(d: np.ndarray, x: np.ndarray, u: np.ndarray, cutoff: float) -> np.ndarray:
    """Sandwich covariance with Bartlett weights over pairwise distance.

    S = sum_ij max(0, 1 - |d_i - d_j|/cutoff) u_i u_j x_i x_j'; computed in
    O(n log n) with prefix sums over the distance-sorted sample.
    """
    order = np.argsort(d, kind="stable")
    ds = d[order]
    g = (u[:, None] * x)[order]  # n x k score vectors
    gd = g * ds[:, None]
    pg = np.vstack([np.zeros(g.shape[1]), np.cumsum(g, axis=0)])
    pgd = np.vstack([np.zeros(g.shape[1]), np.cumsum(gd, axis=0)])

    n = len(ds)
    idx = np.arange(n)
    lo = np.searchsorted(ds, ds - cutoff, side="left")
    hi = np.searchsorted(ds, ds + cutoff, side="right")

    # Self pairs carry weight exactly 1 and are handled outside the prefix
    # sums, so a cutoff below the minimum pairwise distance reduces exactly
    # to the heteroskedasticity-robust (own-term) covariance.
    # left window j in [lo, i): weight 1 - (d_i - d_j)/c
    sum_g_left = pg[idx] - pg[lo]
    sum_gd_left = pgd[idx] - pgd[lo]
    left = sum_g_left - (ds[:, None] * sum_g_left - sum_gd_left) / cutoff
    # right window j in (i, hi): weight 1 - (d_j - d_i)/c
    sum_g_right = pg[hi] - pg[idx + 1]
    sum_gd_right = pgd[hi] - pgd[idx + 1]
    right = sum_g_right - (sum_gd_right - ds[:, None] * sum_g_right) / cutoff

    s = g.T @ (g + left + right)
    s = 0.5 * (s + s.T)
    xtx_inv = np.linalg.inv(x.T @ x)
    return xtx_inv @ s @ xtx_inv


def fit_loglinear(distances, outcomes, robust_cutoff: float | None = None) -> DecayFit:
    """OLS of log(outcome) on distance, reported with the decay sign convention.

    The model is log y = intercept - kappa_s * d + e, so positive kappa_s
    means decay.  With `robust_cutoff` set, a spatially robust standard
    error accumulates score covariances over observation pairs within the
    cutoff under a triangular (Bartlett) weight; the implied-boundary
    interval then uses the robust standard error.  The cutoff must be > 0
    and below the span of the distances, max - min: as it grows past the
    span every weight tends to 1, and the score sum to 0 by the normal
    equations, so the robust standard error would vanish.
    """
    d, y = _as_xy(distances, outcomes)
    n = d.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    if np.any(y <= 0):
        raise DomainError("outcomes must be strictly positive for the log transform")
    if robust_cutoff is not None and not 0 < robust_cutoff < math.inf:
        raise DomainError(f"robust_cutoff must be > 0 and finite, got {robust_cutoff}")
    _check_varies(d, y)
    span = float(d.max() - d.min())
    if robust_cutoff is not None and robust_cutoff >= span:
        raise DomainError(f"robust_cutoff must be below the span of the distances, "
                          f"max - min = {span:.6g}, got {robust_cutoff:.6g}")

    ly = np.log(y)
    d_mean = d.mean()
    sxx = float(np.sum((d - d_mean) ** 2))
    if sxx <= 0:
        raise DataError("zero distance variance: design matrix is rank deficient")
    slope = float(np.sum((d - d_mean) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * d_mean)
    kappa = -slope

    resid = ly - (intercept + slope * d)
    rss = float(resid @ resid)
    tss = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0
    r_squared = min(max(r_squared, 0.0), 1.0)
    sigma2 = rss / (n - 2)
    se_classical = math.sqrt(sigma2 / sxx)

    se_spatial = None
    if robust_cutoff is not None:
        x = np.column_stack([np.ones(n), d])
        cov = _spatial_hac_cov(d, x, resid, robust_cutoff)
        se_spatial = math.sqrt(max(cov[1, 1], 0.0))

    se_used = se_spatial if se_spatial is not None else se_classical
    d_star, ci = boundary_from_kappa(kappa, se_used)
    return DecayFit(
        kappa_s=kappa,
        intercept=intercept,
        se_classical=se_classical,
        se_spatial=se_spatial,
        r_squared=r_squared,
        n=n,
        d_star=d_star,
        d_star_ci=ci,
    )


# ---------------------------------------------------------------------------
# nonparametric: local-linear regression
# ---------------------------------------------------------------------------


def _loclin_blocks(xs, grid, h):
    """Window bounds lo, hi of each grid point in xs (points strictly inside
    (a - h, a + h)) and the grid blocks [starts, ends) of `_loclin_sums`;
    block [g0, g1) reads xs[lo[g0]:hi[g1 - 1]].  Where a +- h rounds to a
    data point a, the window is empty: hi = lo, not hi < lo.  Where the grid
    spans more block widths than a float holds, each point is a block."""
    lo = np.searchsorted(xs, grid - h, side="right")
    hi = np.maximum(np.searchsorted(xs, grid + h, side="left"), lo)
    width = _BLOCK_BANDWIDTHS * float(h)
    span = float(grid[-1] - grid[0]) / width  # Python floats: inf past the floats, no warning
    block = np.floor((grid - grid[0]) / width) if span < math.inf else np.arange(grid.size)
    starts = np.flatnonzero(np.diff(block, prepend=-1.0))
    return lo, hi, starts, np.append(starts[1:], grid.size)


def _loclin_sums(xs, w, wy, grid, h):
    """Local-linear sums (count, S0, S1, S2, T0, T1) at every grid point a.

    xs and grid ascending; w, wy: weights and weighted outcomes of xs, one
    vector or a batch of rows.  S_k = sum w K (x - a)^k, T_k = sum wy K
    (x - a)^k, count = positive-weight points strictly inside the window.
    The grid is cut into blocks at most _BLOCK_BANDWIDTHS bandwidths wide.
    One vector: K = 0.75 (1 - u^2), u = (x - a)/h, is a polynomial in the
    window, so the sums follow from prefix sums of w z^i (i <= 4) and wy z^i
    (i <= 3), z = (x - c)/h centred on the block, shifted to each a.  The
    fit from those differences is off by about 1e-13 times the window's
    conditioning S0 S2 / (S0 S2 - S1^2), and by up to 3e-11 times it in a
    window of a few points beside a data gap, so windows of one point or of
    conditioning at least _DIRECT_SUM_COND are summed directly.  A batch
    multiplies the block's exact kernel weights instead (BLAS beats batched
    prefix sums there).

    S2 is 0.75 h^2 times a moment of z, and 0.75 h^2 overflows from h =
    1.55e154: a window whose S2 is then +-inf is summed directly (its
    conditioning test reads inf >= inf), while one whose moment has
    underflowed to 0 gets S2 = NaN.  A bandwidth whose sums, after the
    direct pass, are not all finite raises DomainError; on data spanning
    about 100 that happens from h = 1e164, and h = 1e155 keeps its curve.
    """
    lo, hi, starts, ends = _loclin_blocks(xs, grid, h)
    if w.ndim > 1:
        out = np.empty((6, w.shape[0], grid.size))
        for g0, g1 in zip(starts, ends):
            a, b = lo[g0], hi[g1 - 1]
            out[:, :, g0:g1] = _window_sums(w[:, a:b], wy[:, a:b], xs[a:b, None] - grid[g0:g1], h)
        return out

    centre = np.repeat(0.5 * (grid[starts] + grid[ends - 1]), ends - starts)
    p = np.empty((10, grid.size))
    for g0, g1 in zip(starts, ends):
        a, b = lo[g0], hi[g1 - 1]
        z = (xs[a:b] - centre[g0]) / h
        z2 = z * z
        zp = np.array([np.ones_like(z), z, z2, z2 * z, z2 * z2])  # z^i by products, not pow
        cs = np.zeros((10, b - a + 1))  # column 0 is the empty prefix
        np.cumsum(np.vstack([w[a:b] * zp, wy[a:b] * zp[:4], w[a:b] > 0]), axis=1, out=cs[:, 1:])
        p[:, g0:g1] = cs[:, hi[g0:g1] - a] - cs[:, lo[g0:g1] - a]
    # sum w (1 - u^2) u^k, u = z - dl, by the binomial shift of the window
    # moments p_i = sum w z^i (q_i = sum wy z^i)
    p0, p1, p2, p3, p4, q0, q1, q2, q3, count = p
    dl = (grid - centre) / h
    d2 = dl * dl
    with np.errstate(invalid="ignore"):  # 0.75 h^2 may be inf, and its moment 0
        out = np.array([
            count,
            0.75 * ((1.0 - d2) * p0 + 2.0 * dl * p1 - p2),
            0.75 * h * ((d2 - 1.0) * dl * p0 + (1.0 - 3.0 * d2) * p1 + 3.0 * dl * p2 - p3),
            0.75 * h * h * ((d2 - d2 * d2) * p0 + (4.0 * d2 - 2.0) * dl * p1
                            + (1.0 - 6.0 * d2) * p2 + 4.0 * dl * p3 - p4),
            0.75 * ((1.0 - d2) * q0 + 2.0 * dl * q1 - q2),
            0.75 * h * ((d2 - 1.0) * dl * q0 + (1.0 - 3.0 * d2) * q1 + 3.0 * dl * q2 - q3),
        ])
        s0s2 = out[1] * out[3]
    redo = (hi > lo) & ((count < 2) | (s0s2 >= _DIRECT_SUM_COND * (s0s2 - out[2] ** 2)))
    for i in np.flatnonzero(redo):
        out[:, i] = _window_sums(w[lo[i]:hi[i]], wy[lo[i]:hi[i]], xs[lo[i]:hi[i]] - grid[i], h)
    if not np.isfinite(out).all():
        raise DomainError(f"bandwidth {h:.6g} is too large: the local-linear sums leave the "
                          "float range")
    return out


def _window_sums(w, wy, du, h):
    """(count, S0, S1, S2, T0, T1) from the exact Epanechnikov weights K of
    the offsets du = x - a: w @ (K > 0, K, K du, K du^2), wy @ (K, K du).
    One window takes vectors; a block takes rows of weights against one
    column of offsets per grid point."""
    k = 0.75 * np.maximum(1.0 - (du / h) ** 2, 0.0)
    kd = k * du
    return [(w > 0) @ (k > 0).astype(float), w @ k, w @ kd, w @ (kd * du), wy @ k, wy @ kd]


def _loclin_solve(sums):
    """Fitted values from `_loclin_sums`, S0 S2 - S1^2, and where the fit is
    local-linear: with two or more points in the window (by count) unless
    they nearly coincide, S0 S2 - S1^2 <= 1e-10 S0 S2; local-constant with
    one point or coincident points; NaN with none."""
    count, s0, s1, s2, t0, t1 = sums
    denom = s0 * s2 - s1 * s1
    linear = (count >= 2) & (denom > 1e-10 * s0 * s2)
    const = np.where(count >= 1, t0 / np.where(count >= 1, s0, 1.0), np.nan)
    m = np.where(linear, (s2 * t0 - s1 * t1) / np.where(linear, denom, 1.0), const)
    return m, denom, linear


def _loclin_curve(d: np.ndarray, y: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """Exact local-linear fit at each grid point."""
    order = np.argsort(d, kind="stable")
    m = _loclin_solve(_loclin_sums(d[order], np.ones(d.size), y[order], grid, h))[0]
    # A grid point with an empty window inherits its nearest neighbour's value.
    bad = np.isnan(m)
    if bad.any():
        good = np.nonzero(~bad)[0]
        if good.size == 0:
            raise DataError("bandwidth too small: every window is empty")
        for i in np.nonzero(bad)[0]:
            m[i] = m[good[np.argmin(np.abs(good - i))]]
    return m


def rule_of_thumb_bandwidth(distances) -> float:
    """1.06 sigma_d n^(-1/5)."""
    (d,) = _as_columns("distances", distances)
    return 1.06 * float(d.std()) * d.size ** (-0.2)


def _bin_data(d: np.ndarray, y: np.ndarray):
    """Centres, observation counts and outcome sums of N_BINS equal bins over
    the range of d, the bin width and each observation's bin."""
    lo, hi = float(d.min()), float(d.max())
    width = (hi - lo) / N_BINS or 1.0
    ids = np.clip(((d - lo) / width).astype(int), 0, N_BINS - 1)
    counts = np.bincount(ids, minlength=N_BINS).astype(float)
    ysum = np.bincount(ids, weights=y, minlength=N_BINS)
    centers = lo + (np.arange(N_BINS) + 0.5) * width
    return centers, counts, ysum, width, ids


def _cv_scores(width, counts, ysum, yssq, grid_h) -> np.ndarray:
    """Leave-one-out CV score of the binned sample at every bandwidth.

    The bins are a lattice of step width, so the window of every centre
    holds the bins at the same offsets k width, |k width| < h.  The sliding
    windows of the zero-padded counts and outcome sums, one row per occupied
    centre, go to `_window_sums` with those offsets as one column per
    bandwidth: each of its six sums is one matrix product for all centres
    and bandwidths.  Only occupied bins enter the score, so a bandwidth
    scores inf only where an occupied bin has no local-linear fit or a self
    weight of 1; an empty bin, as in a data gap, adds nothing and demands
    nothing.
    """
    n_taps = min(counts.size - 1, int(np.max(grid_h) / width))
    off = width * np.arange(-n_taps, n_taps + 1)
    cols = np.pad(np.array([counts, ysum]), ((0, 0), (n_taps, n_taps)))
    # cnt[j, k] (ys alike): the bin at offset off[k] from centre j
    cnt, ys = np.lib.stride_tricks.sliding_window_view(cols, off.size, axis=1)
    occupied = counts > 0
    sums = np.array(_window_sums(cnt[occupied], ys[occupied], off[:, None], grid_h))
    m, denom, linear = _loclin_solve(sums)  # (occupied centre, bandwidth)
    c, s, q = counts[occupied, None], ysum[occupied, None], yssq[occupied, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        one_minus = 1.0 - 0.75 * sums[3] / denom  # 1 - a point's weight on itself
        ok = (linear & (one_minus > 1e-8)).all(axis=0)
        scores = np.sum((q - 2.0 * m * s + c * m * m) / one_minus ** 2, axis=0)
    return np.where(ok, scores, math.inf)


def cross_validated_bandwidth(distances, outcomes) -> float:
    """LOO cross-validation over a 10-point log grid around the rule of thumb.

    The score is that of the 400-bin sample (`_cv_scores`), taken at all ten
    bandwidths at once.  DomainError when the rule of thumb is not finite
    and > 0 (constant distances); DataError when no bandwidth of the grid
    gives every occupied bin a local-linear fit.
    """
    d, y = _as_xy(distances, outcomes)
    h0 = rule_of_thumb_bandwidth(d)
    if not 0 < h0 < math.inf:
        raise DomainError(f"the rule-of-thumb bandwidth must be finite and > 0, got {h0}")
    _, counts, ysum, width, ids = _bin_data(d, y)
    yssq = np.bincount(ids, weights=y * y, minlength=counts.size)
    grid_h = np.geomspace(h0 / CV_GRID_SPAN, h0 * CV_GRID_SPAN, CV_GRID_SIZE)
    scores = _cv_scores(width, counts, ysum, yssq, grid_h)
    if np.isinf(scores).all():
        raise DataError(f"cross-validation: no bandwidth in [{grid_h[0]:.6g}, {grid_h[-1]:.6g}] "
                        "gives every occupied bin a local-linear fit")
    return float(grid_h[int(np.argmin(scores))])


def _check_grid_size(n_grid):
    if n_grid < 200:
        raise DomainError(f"grid must have at least 200 points, got {n_grid}")


def nonparametric_fit(
    distances,
    outcomes,
    bandwidth: float | str = "auto",
    n_grid: int = 201,
) -> NonparFit:
    """Local-linear regression on an evenly spaced grid spanning the data.

    bandwidth: a finite number > 0, "auto" (rule of thumb 1.06 sigma n^-1/5),
    or "auto-cv" (rule of thumb refined by leave-one-out cross-validation
    over a 10-point logarithmic grid around it).  A bandwidth whose
    local-linear sums leave the float range raises DomainError (see
    `_loclin_sums`); one too small for any window raises DataError.
    """
    d, y = _as_xy(distances, outcomes)
    if d.size < 50:
        raise InsufficientDataError(f"nonparametric fit needs n >= 50, got {d.size}")
    _check_grid_size(n_grid)

    if bandwidth == "auto":
        h = rule_of_thumb_bandwidth(d)
    elif bandwidth == "auto-cv":
        h = cross_validated_bandwidth(d, y)
    else:
        try:
            h = float(bandwidth)
        except (TypeError, ValueError):
            h = math.nan
        if not 0 < h < math.inf:
            raise DomainError(f"bandwidth must be finite > 0, 'auto' or 'auto-cv': {bandwidth!r}")

    grid = np.linspace(float(d.min()), float(d.max()), n_grid)
    m_hat = _loclin_curve(d, y, grid, h)
    return NonparFit(grid=grid, m_hat=m_hat, bandwidth=h, distances=d, outcomes=y)


def _boundaries_from_curves(grid, curves, p):
    """Threshold crossing of each curve (row); NaN where there is none.

    The first grid point at or after the peak where the curve falls to p
    times its near-edge value.  A curve with an interior peak that never
    decays that far (a hump plateauing above zero) uses floor + p * (peak -
    floor) instead.  A curve holding a NaN has none.
    """
    rows = np.arange(curves.shape[0])
    i_peak = np.argmax(curves, axis=1)
    after = np.arange(curves.shape[1]) >= i_peak[:, None]
    below = after & (curves <= p * curves[:, :1])
    floor = np.where(after, curves, np.inf).min(axis=1)
    peak = curves[rows, i_peak]
    below_amp = after & (curves <= (floor + p * (peak - floor))[:, None])
    interior = i_peak > max(2, int(0.02 * curves.shape[1]))
    use_amp = ~below.any(axis=1) & interior
    first = np.where(use_amp, np.argmax(below_amp, axis=1), np.argmax(below, axis=1))
    found = np.where(use_amp, below_amp.any(axis=1), below.any(axis=1))
    found &= ~np.isnan(curves).any(axis=1)
    return np.where(found, grid[first], np.nan)


def _resample_bins(ids, y, n_boot, rng, used=None):
    """Bin counts and outcome sums of n_boot pair-bootstrap resamples.

    Only the m observations in the bins of the mask `used` are drawn (all n
    without one): of a resample's n uniform draws, Binomial(n, m/n) land on
    them, uniformly and independently, so when the mask drops a bin each
    resample draws its Binomial(n, m/n) count first (one call for all), and
    otherwise n.  The used bins get exactly the distribution of binning
    every draw; the others read 0.  Rows are drawn about _DRAW_CHUNK at a
    time, one `rng.integers` call and one flat bincount per chunk, so
    without a dropped bin the PCG64 stream, and every count and sum, is that
    of one `rng.integers(0, n, size=n)` call per resample.
    """
    n = ids.size
    per_row = np.full(n_boot, n)
    if used is not None and not used.all():
        keep = used[ids]
        ids, y = ids[keep], y[keep]
        per_row = rng.binomial(n, ids.size / n, n_boot)
    m = ids.size
    rows = max(1, _DRAW_CHUNK // max(m, 1))
    counts, ysum = np.empty((2, n_boot, N_BINS))
    for start in range(0, n_boot, rows):
        k = per_row[start : start + rows]
        take = rng.integers(0, m, size=int(k.sum()))
        flat, ends, r = ids[take], np.cumsum(k).tolist(), k.size
        for i in range(1, r):  # each resample's rows to its own N_BINS bins
            flat[ends[i - 1] : ends[i]] += i * N_BINS
        counts[start : start + r] = np.bincount(flat, minlength=r * N_BINS).reshape(r, -1)
        ysum[start : start + r] = np.bincount(flat, y[take], r * N_BINS).reshape(r, -1)
    return counts, ysum


def _bootstrap_curves(d, y, h, grid, n_boot, rng):
    """Pair-bootstrap local-linear curves on the grid, one row per resample.

    Observations are resampled exactly; `_loclin_sums` then runs on the 400
    bin centres with the resampled bin counts and outcome sums as one batch
    of weights.  Only the observations in the bins its grid blocks read are
    drawn (`_resample_bins`), so a grid of the two range endpoints (the
    gate) draws about as many rows as those bins hold, not all n per
    resample.  An empty window gives NaN, not a neighbour fill.
    """
    centers, _, _, _, ids = _bin_data(d, y)
    lo, hi, starts, ends = _loclin_blocks(centers, grid, h)
    used = np.zeros(N_BINS, dtype=bool)
    for g0, g1 in zip(starts, ends):
        used[lo[g0] : hi[g1 - 1]] = True
    counts, ysum = _resample_bins(ids, y, n_boot, rng, used)
    return _loclin_solve(_loclin_sums(centers, counts, ysum, grid, h))[0]


def _quantiles(a: np.ndarray, qs) -> list[float]:
    """np.quantile(a, qs), numpy's default linear method, as a list, or for
    qs = "median" [np.median(a)], bitwise, from the partition of the 1-D
    float array a that numpy makes.  Those numpy functions import numpy.ma
    (through np.unique and np.ma.isMaskedArray), 10-25 ms once per process;
    this does not.  As in numpy, q sits at v = (n - 1) q of the sorted
    sample, gamma = v - lo past lo = floor(v) (v + 1 at the top, where
    numpy reads index -1 twice), and is read from the nearer order
    statistic: a[lo] + (a[lo+1] - a[lo]) gamma, or from gamma = 1/2 on
    a[lo+1] - (a[lo+1] - a[lo]) (1 - gamma).  The median is np.mean of the
    middle one or two, summed from +0.0.  Every value is NaN where a holds a
    NaN; np.nanquantile(a, qs) is this of a[~np.isnan(a)], except that numpy
    compacts a in another order, so where +0 and -0 tie the sign of a zero
    quantile may differ."""
    n = a.size
    if qs == "median":
        picks, kth = [((n - 1) // 2, n // 2, None)], {n - 1}
    else:
        picks, kth = [], {0, n - 1}  # (lo, hi, gamma) of each q
        for q in qs:
            v = (n - 1) * q
            lo = math.floor(v)
            picks.append((n - 1, n - 1, v + 1.0) if v >= n - 1 else (lo, lo + 1, v - lo))
    part = np.partition(a, sorted(kth.union(*(p[:2] for p in picks))))
    if math.isnan(part[-1]):  # NaN sorts last
        return [math.nan] * len(picks)
    out = []
    for lo, hi, gamma in picks:
        x, y = float(part[lo]), float(part[hi])
        if gamma is None:
            out.append((0.0 + x + y) / 2.0 if hi > lo else 0.0 + x)
        elif gamma >= 0.5:
            out.append(y - (y - x) * (1.0 - gamma))
        else:
            out.append(x + (y - x) * gamma)
    return out


def _check_bootstrap_args(fraction, n_boot):
    if not 0 < fraction < 1:
        raise DomainError(f"fraction must be in (0,1), got {fraction}")
    if n_boot < 1:
        raise DomainError(f"n_boot must be >= 1, got {n_boot}")


def detect_boundary(
    fit: NonparFit,
    fraction: float,
    n_boot: int = 200,
    seed: int | np.random.Generator | None = None,
) -> tuple[float | None, bool]:
    """Boundary from the fitted curve, declared only past a decline gate.

    The candidate is the threshold crossing of the fitted curve.  It is
    reported only when the paired bootstrap (resampling observations,
    refitting the range endpoints) rejects H0: m(0) - m(d_max) <= 0 at the
    5% level (ALPHA), i.e. the 5% quantile of the bootstrapped total
    decline is positive.  Absence of a boundary is a value, not an error,
    but a gate that cannot run is: DataError when every bootstrapped decline
    is NaN (no resample holds a binned observation within the bandwidth of
    both range endpoints).
    seed may be a Generator, which the draws then advance.  Returns
    (boundary or None, rejected).
    """
    _check_bootstrap_args(fraction, n_boot)
    cand = _boundaries_from_curves(fit.grid, fit.m_hat[None, :], fraction)[0]
    curves = _bootstrap_curves(fit.distances, fit.outcomes, fit.bandwidth, fit.grid[[0, -1]],
                               n_boot, np.random.default_rng(seed))
    declines = curves[:, 0] - curves[:, 1]
    if np.isnan(declines).all():
        width = _bin_data(fit.distances, fit.outcomes)[3]
        raise DataError(f"decline gate: no resample has a binned observation within the "
                        f"bandwidth {fit.bandwidth:.4g} km of both range endpoints "
                        f"(bin width {width:.4g} km)")
    reject = _quantiles(declines[~np.isnan(declines)], [ALPHA])[0] > 0.0
    if reject and not math.isnan(cand):
        return float(cand), True
    return None, reject


def bootstrap_boundary_interval(
    fit: NonparFit,
    fraction: float,
    n_boot: int = 200,
    seed: int | np.random.Generator | None = None,
) -> tuple[float, float] | None:
    """95% percentile interval (1 - ALPHA) of the bootstrapped boundary estimates.

    The curves are refitted at the undersmoothed bandwidth; None when fewer
    than max(10, n_boot/2) of them cross.  seed may be a Generator.
    """
    _check_bootstrap_args(fraction, n_boot)
    curves = _bootstrap_curves(fit.distances, fit.outcomes, CI_UNDERSMOOTH * fit.bandwidth,
                               fit.grid, n_boot, np.random.default_rng(seed))
    samples = _boundaries_from_curves(fit.grid, curves, fraction)
    ok = samples[~np.isnan(samples)]
    if ok.size < max(10, n_boot // 2):
        return None
    lo, hi = _quantiles(ok, [ALPHA / 2.0, 1.0 - ALPHA / 2.0])
    return lo, hi


# ---------------------------------------------------------------------------
# diagnostics and regional heterogeneity
# ---------------------------------------------------------------------------


def _rank(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ties given the average of the ranks they span."""
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    first = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    size = np.diff(np.append(first, a.size))
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(first + 0.5 * (size - 1) + 1.0, size)
    return ranks


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def spearman_correlation(x, y) -> tuple[float, float]:
    """Spearman rank correlation with a large-sample normal p-value."""
    x, y = _as_xy(x, y)
    _check_varies(x, y)
    rx, ry = _rank(x), _rank(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    z = rho * math.sqrt(max(x.size - 1, 1))
    p = 2.0 * _norm_sf(abs(z))
    return rho, min(p, 1.0)


def diagnostics(distances, outcomes, n_bins: int = 8) -> DiagnosticsReport:
    """Pre-estimation screen: rank correlation, binned decline, decision rule.

    Decision: framework_applies when the fitted decay is positive and
    significant (one-sided 5%) with R^2 > 0.10; framework_weak when
    significant with R^2 in [0.05, 0.10]; framework_rejected otherwise.
    Non-positive outcomes are floored at 1e-6 for the log-linear screen, the
    same convention the naive parametric detector uses.
    """
    d, y = _as_xy(distances, outcomes)
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    if d.size < 5 * n_bins:
        raise InsufficientDataError(f"need at least {5 * n_bins} observations for {n_bins} bins")

    rho, p = spearman_correlation(d, y)

    bins_used = n_bins
    widened = False
    while True:
        edges = np.linspace(d.min(), d.max(), bins_used + 1)
        ids = np.clip(np.searchsorted(edges, d, side="right") - 1, 0, bins_used - 1)
        counts = np.bincount(ids, minlength=bins_used)
        if np.all(counts >= 5) or bins_used == 1:
            break
        bins_used -= 1
        widened = True

    binned = []
    for b in range(bins_used):
        sel = ids == b
        vals = y[sel]
        mean = float(vals.mean()) if vals.size else math.nan
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
        binned.append((float(edges[b]), float(edges[b + 1]), mean, se, int(vals.size)))

    first = binned[0][2]
    declines = [(first - row[2]) / first if first != 0 else math.nan for row in binned]

    fit = fit_loglinear(d, np.maximum(y, DEFAULT_CLAMP))
    t_stat = fit.kappa_s / fit.se_classical if fit.se_classical > 0 else 0.0
    significant_decay = fit.kappa_s > 0 and _norm_sf(t_stat) < 0.05
    if significant_decay and fit.r_squared > 0.10:
        decision = "framework_applies"
    elif significant_decay and fit.r_squared >= 0.05:
        decision = "framework_weak"
    else:
        decision = "framework_rejected"

    return DiagnosticsReport(
        spearman_rho=rho,
        spearman_p=p,
        binned_means=binned,
        pct_decline_from_first_bin=declines,
        decision=decision,
        n_bins_used=bins_used,
        bins_widened=widened,
    )


def regional_heterogeneity(distances, outcomes, split_distance: float) -> RegionalResult:
    """Independent decay fits on either side of a distance split.

    sign_reversal is True only when the near side decays (kappa > 0,
    one-sided 5%) and the far side rises (kappa < 0, one-sided 5%), the
    pattern that flags a different source class dominating the far field.
    """
    d, y = _as_xy(distances, outcomes)
    near_sel = d < split_distance
    n_near, n_far = int(near_sel.sum()), int((~near_sel).sum())
    if n_near < 30:
        raise InsufficientDataError(f"near side has {n_near} observations, need >= 30")
    if n_far < 30:
        raise InsufficientDataError(f"far side has {n_far} observations, need >= 30")
    near = fit_loglinear(d[near_sel], y[near_sel])
    far = fit_loglinear(d[~near_sel], y[~near_sel])

    t_near = near.kappa_s / near.se_classical
    t_far = far.kappa_s / far.se_classical
    reversal = t_near > Z05_ONESIDED and t_far < -Z05_ONESIDED
    return RegionalResult(near=near, far=far, split_distance=split_distance, sign_reversal=reversal)


# ---------------------------------------------------------------------------
# nonlinear field fits
# ---------------------------------------------------------------------------


# A profile row function takes nu as a float, giving the profile at every
# (r, t), or as a column of nu values, giving one row per nu.


def _gaussian_normaliser(t, nu):
    return (4.0 * math.pi * nu * t) ** 1.5


def _gaussian_model(r, t, nu):
    return np.exp(-r * r / (4.0 * nu * t)) / _gaussian_normaliser(t, nu)


def _failed_fit_cause(field_class, t, nu):
    """Why the rows of a failed fit left the floats, where the profile knows
    it ('' otherwise): a Gaussian normaliser that underflows to 0."""
    t_min = float(t.min())
    if field_class == "gaussian" and _gaussian_normaliser(t_min, nu) == 0.0:
        return f": the normaliser (4 pi nu t)^1.5 underflows to 0 at t={t_min:.6e}"
    return ""


def _bessel_model(r, t, nu):
    """K0(r / 2 sqrt(nu t)) / t with scipy's K0, imported on the first call."""
    from scipy.special import k0

    return k0(r / (2.0 * np.sqrt(nu * t))) / t


def _kummer_model(r, t, nu):
    """M(1/2, 1, z) / t, z = r^2 / 4 nu t, as e^x I0(x) / t, x = z/2 (DLMF
    13.6.9), with numpy's I0: one row for a float nu, one per nu of a
    column.  A row is all inf when its value at its largest z is inf, past
    the floats, so the fit gives it rss inf; a row whose values are finite
    stays in, and the fit scales it where g.g overflows.  Each row's largest
    z goes through one scalar kummer_m call, which gives inf past the floats
    without a floating-point overflow; only the other rows are evaluated, in
    one array call."""
    z = r * r / (4.0 * nu * t)
    rows = z.reshape(-1, r.size)
    keep = []
    for z_top, t_top in zip(rows.max(axis=1).tolist(), t[np.argmax(rows, axis=1)].tolist()):
        g_top = kummer_m(0.5, 1.0, z_top).value / t_top
        keep.append(g_top != math.inf)
    keep = np.array(keep)
    out = np.full(rows.shape, math.inf)
    x = 0.5 * rows[keep]
    out[keep] = np.exp(x) * np.i0(x) / t
    return out.reshape(z.shape)


_MODELS = {"gaussian": _gaussian_model, "bessel": _bessel_model, "kummer": _kummer_model}


def _scan_centre(r, t) -> float:
    """log median r^2 / 4t over r != 0, the centre of the log-nu scan; DomainError
    outside the domain `fit_field_nls` states, where the profiles or cov[0, 0]
    under- or overflow."""
    with np.errstate(over="ignore", under="ignore"):
        q = (r * r / (4.0 * t))[r != 0]
    (mid,), lo, hi = _quantiles(q, "median"), float(q.min()), float(q.max())
    ok = sys.float_info.min <= lo and hi < math.inf
    if ok:
        centre = math.log(mid)
        # ln of nu^2 at both ends of the scan, and of the least and greatest r^2 / 4 nu t
        logs = (2.0 * (centre - SCAN_HALF_WIDTH), 2.0 * (centre + SCAN_HALF_WIDTH),
                math.log(lo) - centre - SCAN_HALF_WIDTH, math.log(hi) - centre + SCAN_HALF_WIDTH)
        ok = all(_LOG_FLOAT_MIN <= x < _LOG_FLOAT_MAX for x in logs)
    if not ok:
        raise DomainError(f"r^2 / 4t (median {mid:.6e}) and the nu scan around it (median "
                          f"* e^+-{SCAN_HALF_WIDTH:g}) leave the range of normal floats: "
                          f"rescale the distances or times")
    return centre


def _unit_scaled(y):
    """(y 2^k, k) with max |y| 2^k in [0.5, 1), k = 0 for y = 0: exact, so
    the fits' sums of squares stay normal floats whatever the units of y."""
    k = -math.frexp(float(np.abs(y).max()))[1]
    return np.ldexp(y, k), k


def fit_field_nls(
    distances, times, outcomes, field_class: str = "gaussian", seed: int | None = None
) -> FieldFitResult:
    """Least-squares fit of amplitude * g(r, t; nu) by variable projection.

    The amplitude is closed form for each nu, so the rss with it projected
    out is scanned at 49 points of log nu (log median r^2 / 4t, r != 0, +- 12),
    and inside the best cell its slope, d rss / d log nu = -2 amplitude
    (dg / d log nu).res (Golub and Pereyra 1973), is taken to zero by Brent's
    zeroin, stopping at 1e-10 in log nu.  The profile is evaluated as rows,
    one per nu: the model takes a column of nu and gives a (rows, n) array, so
    the scan is one model call (blocks of at most _SCAN_BLOCK values, one row
    for n past it) and each slope one call of the rows nu (1 +- 1e-6) and nu,
    whose central difference is dg/dnu; each row's g.y and res.res stay
    separate dot products, so the fit is that of one call per nu, bitwise.
    An rss of inf counts as rising away from the scan's best point.  cov =
    sigma^2 (J'J)^-1, J = [amplitude dg/dnu, g], from the root's rows.  One
    range rule decides every row: y, and each row g whose g.g is not a normal
    float, is projected scaled by the power of two that takes its max |.|
    into [0.5, 1) (_unit_scaled), and a row has rss inf only where its own
    values leave the floats.  The scalings are exact, so nu and se_nu do not
    depend on the units of y, nor on distances x s with times x s^2; q, se_q,
    cov and rss are in the units of y and g, 0 or inf past the floats.
    FitError when the minimum is on the scan edge, the slope does not change
    sign across the best cell, the rss is not finite, the amplitude is not
    positive or J'J is singular at the root: the single-term Kummer profile
    grows with r, so on decaying data its least squares lie at nu ->
    infinity.  A Kummer row is M(1/2, 1, z) / t = e^(z/2) I0(z/2) / t (DLMF
    13.6.9), z = r^2 / 4 nu t, with numpy's I0; one whose value at its
    largest z (one scalar kummer_m call per row) is inf has rss inf without
    its other points being evaluated; n_iter still counts it.  A Bessel row
    is K0(r / 2 sqrt(nu t)) / t with scipy.special.k0, imported on the first
    Bessel fit.  The fit is deterministic; seed is unused.

    Domain: distances >= 0 (> 0 for Bessel), times > 0, some distance
    nonzero.  Every nonzero r^2 / 4t, the scanned nu and nu^2 (the scale of
    cov[0, 0]) and the profile arguments r^2 / 4 nu t must be finite normal
    floats over the scan, or DomainError names the median r^2 / 4t.
    """
    if field_class not in _MODELS:
        raise DomainError(f"unknown field class {field_class!r}")
    r, t, y = _as_columns("distances, times, outcomes", distances, times, outcomes)
    if r.size < 50:
        raise InsufficientDataError(f"field fit needs n >= 50, got {r.size}")
    if np.any(t <= 0) or not r.any():
        raise DomainError("times must be > 0 and some distance nonzero")
    n_bad = np.count_nonzero(r < 0)
    if n_bad:
        raise DomainError(f"distances must be >= 0: {n_bad} of {r.size} are negative")
    if field_class == "bessel" and not r.all():
        n_bad = r.size - np.count_nonzero(r)
        raise DomainError(f"the Bessel profile needs every distance > 0 (K0 is infinite "
                          f"at r = 0): {n_bad} of {r.size} distances are 0")
    centre = _scan_centre(r, t)
    if t.min() == t.max():
        warnings.warn(
            "all observations share one time: nu and q are only weakly "
            "identified from a single snapshot",
            UserWarning,
        )

    model = _MODELS[field_class]
    y, k_y = _unit_scaled(y)
    evals = []  # (rss, log nu, amplitude, scale) of every evaluation: y 2^k_y, g 2^scale
    slopes = {}  # log nu -> (slope, its evaluation, J'J) of every slope

    def project(log_nu, g):
        """(amplitude, g, residuals) of one row, which joins evals: g is scaled by
        _unit_scaled where g.g is not a normal float; rss is inf where g leaves the floats."""
        gg, scale = float(g @ g), 0
        if not sys.float_info.min <= gg < math.inf:
            g, scale = _unit_scaled(g)
            gg = float(g @ g)
        amp, rss, res = math.nan, math.inf, None
        if 0.0 < gg < math.inf:
            # from the residuals: sum y^2 - (g.y)^2 / g.g cancels on noiseless data
            amp = float(g @ y) / gg
            res = y - amp * g
            rss = float(res @ res)
        evals.append((rss, log_nu, amp, scale))
        return amp, g, res

    def slope(log_nu):
        """d rss / d log nu x 1e-6 from the rows nu (1 +- 1e-6) and nu; where it
        is not finite, inf of the sign of log nu - grid[i]."""
        if log_nu not in slopes:
            nu = math.exp(log_nu)
            up, down, g = model(r, t, nu * np.array([[1.0 + 1e-6], [1.0 - 1e-6], [1.0]]))
            amp, g, res = project(log_nu, g)
            diff = np.ldexp(up - down, evals[-1][3])  # (g+ - g-) 2^scale
            jac = np.column_stack([amp / (2e-6 * nu) * diff, g])  # nu and the scaled amplitude
            s = -amp * float(diff @ res) if res is not None else math.nan
            if not math.isfinite(s):
                s = math.copysign(math.inf, log_nu - grid[i])
            slopes[log_nu] = (s, evals[-1], jac.T @ jac)
        return slopes[log_nu][0]

    grid = (centre + np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, 49)).tolist()
    per_block = max(1, _SCAN_BLOCK // r.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # such rows get rss inf
        for start in range(0, len(grid), per_block):
            block = grid[start : start + per_block]
            for log_nu, g in zip(block, model(r, t, np.array([[math.exp(x)] for x in block]))):
                project(log_nu, g)
        i = int(np.argmin([e[0] for e in evals]))
        inside = 0 < i < len(grid) - 1
        if inside:
            lo, hi = grid[i - 1], grid[i + 1]
            if not slope(lo) <= 0.0 < slope(hi):
                raise FitError(f"{field_class} field fit: the rss slope does not change sign "
                               f"across the best scan cell, nu = {math.exp(lo):.6e} to "
                               f"{math.exp(hi):.6e}")
            _, (rss, log_nu, amp, scale), jtj = slopes[_zeroin(slope, hi, lo, 1e-10)]
        else:
            rss, log_nu, amp, scale = min(evals)
    e, nu = scale - k_y, math.exp(log_nu)  # 2^e takes the amplitude to the units of y and g
    with np.errstate(over="ignore"):  # inf past the floats
        q, rss_y = float(np.ldexp(amp, e)), float(np.ldexp(rss, -2 * k_y))
    if not (inside and math.isfinite(rss) and 0 < amp < math.inf):
        raise FitError(f"{field_class} field fit failed at nu={nu:.6e} (scan edge: {not inside}), "
                       f"rss={rss_y:.6e}, amplitude={q:.6e}"
                       f"{_failed_fit_cause(field_class, t, nu)}")
    try:
        cov = rss / (r.size - 2) * np.linalg.inv(jtj)
    except np.linalg.LinAlgError as err:
        raise FitError(f"{field_class} field fit: J'J is singular at nu={nu:.6e} ({err})") from None
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))  # of nu and of the scaled amplitude
    with np.errstate(over="ignore"):
        cov, se = np.ldexp(cov, e * np.array([[0, 1], [1, 2]])), np.ldexp(se, [0, e])
    return FieldFitResult(nu=nu, q=q, cov=cov, rss=rss_y, n_iter=len(evals),
                          se_nu=float(se[0]), se_q=float(se[1]))


def _runs_z(residuals: np.ndarray) -> float:
    """Wald-Wolfowitz runs statistic on the residual sign sequence."""
    signs = residuals >= 0
    n1 = int(signs.sum())
    n2 = signs.size - n1
    if n1 == 0 or n2 == 0:
        return 0.0
    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    mu = 2.0 * n1 * n2 / (n1 + n2) + 1.0
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) / ((n1 + n2) ** 2 * (n1 + n2 - 1.0))
    return (runs - mu) / math.sqrt(var) if var > 0 else 0.0


def select_profile_model(
    distances, outcomes, times, geometry_hint: str = "none", seed: int | None = None
) -> ProfileSelection:
    """Choose the simplest adequate profile family for the data.

    Cylindrical geometry goes straight to the Bessel field.  Otherwise the
    Gaussian is fitted first and upgraded to a single-term Kummer profile
    only when the residual-sum-of-squares improvement is significant at 1%
    on a likelihood-ratio-style statistic (Gaussian errors assumed); lr_stat
    is None when the Kummer fit fails, as it does on decaying data (see
    `fit_field_nls`).  A runs test on the distance-ordered residuals is
    reported alongside.  The amplitude and rss are in the units of y, 0 or
    inf past the floats.  The fits are variable-projection searches, so the
    result is deterministic; seed is unused.
    """
    if geometry_hint not in ("cylindrical", "none"):
        raise DomainError(f"geometry_hint must be 'cylindrical' or 'none', got {geometry_hint!r}")
    r, t, y = _as_columns("distances, times, outcomes", distances, times, outcomes)
    if r.size < 100:
        raise InsufficientDataError(f"model selection needs n >= 100, got {r.size}")

    y, k_y = _unit_scaled(y)  # the fits' own scaling, so lr_stat does not depend on it
    if geometry_hint == "cylindrical":
        model, amplitude, fit = "bessel", "amplitude", fit_field_nls(r, t, y, "bessel")
        runs_z = lr = None
    else:
        model, amplitude, fit = "gaussian", "q", fit_field_nls(r, t, y, "gaussian")
        m = fit.q * _gaussian_model(r, t, fit.nu)
        runs_z = _runs_z((y - m)[np.argsort(r, kind="stable")])
        try:
            kum = fit_field_nls(r, t, y, "kummer")
            lr = r.size * math.log(fit.rss / kum.rss) if kum.rss > 0 else math.inf
        except (FitError, DataError):
            lr = None
        if lr is not None and lr > CHI2_1_99:
            model, amplitude, fit = "kummer", "c0", kum
    with np.errstate(over="ignore"):  # inf past the floats
        q, rss = float(np.ldexp(fit.q, -k_y)), float(np.ldexp(fit.rss, -2 * k_y))
    return ProfileSelection(model=model, params={"nu": fit.nu, amplitude: q}, rss=rss,
                            runs_z=runs_z, lr_stat=lr)


def simulate_gaussian_field_sample(
    nu: float, q: float, n: int, times, noise_sd: float, seed: int | None = None
):
    """Draw (r, t, y) from the 3D Gaussian field plus iid normal noise, r
    uniform on [0, 4 sqrt(nu max t))."""
    FieldParams(nu=nu, q=q)  # checks nu and q
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=float)
    if not np.all((times > 0) & (times < math.inf)):
        raise DomainError(f"times must be finite and > 0, got {times}")
    t = rng.choice(times, size=n)
    r_max = 4.0 * math.sqrt(nu * float(times.max()))
    if r_max == math.inf:
        raise DomainError(f"4 sqrt(nu max t) overflows: nu = {nu}, max t = {times.max()}")
    r = rng.uniform(0.0, r_max, size=n)
    return r, t, q * _gaussian_model(r, t, nu) + noise_sd * rng.standard_normal(n)
