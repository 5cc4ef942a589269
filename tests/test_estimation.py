"""Decay fitting, robust standard errors, local-linear regression, and
boundary detection."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumefront import estimation
from plumefront.errors import DataError, DomainError, FitError, InsufficientDataError
from plumefront.estimation import (
    LN10,
    _bin_data,
    _cv_scores,
    _rank,
    boundary_from_kappa,
    bootstrap_boundary_interval,
    cross_validated_bandwidth,
    detect_boundary,
    diagnostics,
    fit_field_nls,
    fit_loglinear,
    nonparametric_fit,
    regional_heterogeneity,
    rule_of_thumb_bandwidth,
    select_profile_model,
    simulate_gaussian_field_sample,
    spearman_correlation,
)
from plumefront.functionals import _zeroin
from plumefront.specfun import kummer_m


def _brute_force_hac_se(d, x, u, cutoff):
    xtx_inv = np.linalg.inv(x.T @ x)
    s = np.zeros((2, 2))
    for i in range(len(d)):
        w = np.maximum(0.0, 1.0 - np.abs(d[i] - d) / cutoff)
        s += np.outer(u[i] * x[i], (w * u) @ x)
    return math.sqrt((xtx_inv @ s @ xtx_inv)[1, 1])


class TestFitLoglinear:
    def test_exact_recovery(self):
        d = np.arange(1.0, 101.0)
        y = np.exp(1.0 - 0.05 * d)
        fit = fit_loglinear(d, y)
        assert fit.kappa_s == pytest.approx(0.05, abs=1e-10)
        assert fit.intercept == pytest.approx(1.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
        assert fit.d_star == pytest.approx(LN10 / 0.05, rel=1e-9)

    def test_table_arithmetic(self):
        # kappa = 0.004028 implies a 10%-decay boundary near 572 km
        d_star, ci = boundary_from_kappa(0.004028, 0.000012)
        assert d_star == pytest.approx(571.6, abs=0.1)
        half = 0.5 * (ci[1] - ci[0])
        assert half / 1.96 == pytest.approx(1.703, abs=0.01)

    @pytest.mark.parametrize("kappa, se, message", [
        (math.nan, 0.1, "kappa must be finite, got nan"),
        (math.inf, 0.1, "kappa must be finite, got inf"),
        (-math.inf, 0.1, "kappa must be finite, got -inf"),
        (0.1, math.nan, "se must be >= 0 and finite, got nan"),
        (0.1, math.inf, "se must be >= 0 and finite, got inf"),
        (0.1, -1e-3, "se must be >= 0 and finite, got -0.001"),
        (-0.1, math.nan, "se must be >= 0 and finite, got nan"),
    ])
    def test_boundary_from_kappa_rejects_bad_arguments(self, kappa, se, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            boundary_from_kappa(kappa, se)

    @pytest.mark.parametrize("kappa, se, half", [(1e-200, 1e-3, math.inf), (1e-200, 0.0, 0.0),
                                                 (1e-155, 1e-3, estimation.Z95 * LN10 * 1e307)])
    def test_boundary_from_kappa_where_kappa_squared_underflows(self, kappa, se, half):
        # kappa * kappa is 0 or subnormal; se / kappa / kappa is the half-width or inf
        d_star, ci = boundary_from_kappa(kappa, se)
        assert d_star == LN10 / kappa
        assert (d_star - ci[0], ci[1] - d_star) == pytest.approx((half, half), rel=1e-12)

    def test_no_boundary_for_rising_outcome(self):
        d = np.arange(1.0, 51.0)
        y = np.exp(0.01 * d)
        fit = fit_loglinear(d, y)
        assert fit.kappa_s < 0
        assert fit.d_star is None
        assert fit.d_star_ci is None

    def test_hac_collapses_to_heteroskedastic_robust(self):
        rng = np.random.default_rng(0)
        d = np.sort(rng.uniform(0, 100, 300)) + np.arange(300) * 1e-5
        y = np.exp(1.0 - 0.03 * d + 0.4 * rng.standard_normal(300))
        fit = fit_loglinear(d, y, robust_cutoff=1e-9)
        x = np.column_stack([np.ones(300), d])
        u = np.log(y) - (fit.intercept - fit.kappa_s * d)
        hc0 = _brute_force_hac_se(d, x, u, 1e-12)
        assert fit.se_spatial == pytest.approx(hc0, rel=1e-10)

    @pytest.mark.parametrize("cutoff", [2.0, 15.0, 50.0])
    def test_hac_matches_brute_force(self, cutoff):
        rng = np.random.default_rng(3)
        d = rng.uniform(0, 100, 250)
        y = np.exp(0.5 - 0.02 * d + 0.5 * rng.standard_normal(250))
        fit = fit_loglinear(d, y, robust_cutoff=cutoff)
        x = np.column_stack([np.ones(250), d])
        u = np.log(y) - (fit.intercept - fit.kappa_s * d)
        assert fit.se_spatial == pytest.approx(_brute_force_hac_se(d, x, u, cutoff), rel=1e-10)

    def test_input_contracts(self):
        with pytest.raises(InsufficientDataError):
            fit_loglinear([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            fit_loglinear([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(DataError):
            fit_loglinear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_underflowing_distance_variance_is_data_error(self):
        # the distances vary, but their squared deviations underflow to 0
        with pytest.raises(DataError, match="zero distance variance"):
            fit_loglinear([0.0, 1e-170, 2e-170], [1.0, 2.0, 3.0])


class TestInputValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda d, y: fit_loglinear(d, y),
            lambda d, y: cross_validated_bandwidth(d, y),
            lambda d, y: nonparametric_fit(d, y),
            lambda d, y: diagnostics(d, y),
            lambda d, y: regional_heterogeneity(d, y, 50.0),
            lambda d, y: spearman_correlation(d, y),
        ],
        ids=["fit_loglinear", "cross_validated_bandwidth", "nonparametric_fit",
             "diagnostics", "regional_heterogeneity", "spearman_correlation"],
    )
    @pytest.mark.parametrize("bad", ["nan_distance", "inf_outcome", "length", "2-D"])
    def test_bad_input_is_data_error(self, call, bad):
        rng = np.random.default_rng(0)
        d = rng.uniform(1.0, 100.0, 200)
        y = np.exp(-0.05 * d) + 0.01
        if bad == "nan_distance":
            d[3] = np.nan
        elif bad == "inf_outcome":
            y[5] = np.inf
        elif bad == "length":
            y = y[:-1]
        else:
            d, y = d.reshape(20, 10), y.reshape(20, 10)
        with pytest.raises(DataError):
            call(d, y)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan])
    def test_non_positive_robust_cutoff_is_domain_error(self, cutoff):
        d = np.random.default_rng(0).uniform(1.0, 100.0, 200)
        with pytest.raises(DomainError, match="robust_cutoff must be > 0"):
            fit_loglinear(d, np.exp(-0.05 * d), robust_cutoff=cutoff)

    @pytest.mark.parametrize("factor", [1.0, 1.5, 1e300])
    def test_robust_cutoff_at_or_beyond_the_span_is_domain_error(self, factor):
        # the weights tend to 1 and the spatial standard error to 0
        d = np.random.default_rng(0).uniform(1.0, 100.0, 200)
        span = float(d.max() - d.min())
        cutoff = factor * span
        match = f"below the span of the distances, max - min = {span:.6g}, got {cutoff:.6g}"
        with pytest.raises(DomainError, match=re.escape(match)):
            fit_loglinear(d, np.exp(-0.05 * d), robust_cutoff=cutoff)
        assert fit_loglinear(d, np.exp(-0.05 * d), robust_cutoff=0.99 * span).se_spatial >= 0.0

    def test_infinite_robust_cutoff_is_domain_error(self):
        # every Bartlett weight would be 1, and the score sum 0
        d = np.random.default_rng(0).uniform(1.0, 100.0, 200)
        with pytest.raises(DomainError, match="robust_cutoff must be > 0 and finite, got inf"):
            fit_loglinear(d, np.exp(-0.05 * d), robust_cutoff=math.inf)

    def test_constant_distances_cv_is_domain_error(self):
        d = np.full(200, 5.0)
        with pytest.raises(DomainError, match="rule-of-thumb bandwidth"):
            cross_validated_bandwidth(d, np.random.default_rng(0).uniform(size=200))

    @pytest.mark.parametrize("call", [fit_loglinear, spearman_correlation],
                             ids=["fit_loglinear", "spearman_correlation"])
    @pytest.mark.parametrize("column", ["distances", "outcomes"])
    def test_constant_column_is_data_error(self, call, column):
        d = np.random.default_rng(0).uniform(0.0, 100.0, 200)
        y = np.exp(-0.05 * d)
        if column == "distances":
            d = np.full(200, 0.1)
        else:
            y = np.full(200, 0.5)
        with pytest.raises(DataError, match=f"{column} do not vary"):
            call(d, y)

    @pytest.mark.parametrize("d", [[1.0, np.nan, 3.0], [1.0, np.inf, 3.0], [[1.0, 2.0]]],
                             ids=["nan", "inf", "2-D"])
    def test_bad_rule_of_thumb_input_is_data_error(self, d):
        with pytest.raises(DataError):
            rule_of_thumb_bandwidth(d)

    @pytest.mark.parametrize(
        "call",
        [
            lambda r, t, y: fit_field_nls(r, t, y),
            lambda r, t, y: select_profile_model(r, y, t),
        ],
        ids=["fit_field_nls", "select_profile_model"],
    )
    @pytest.mark.parametrize("bad", ["nan_outcome", "inf_distance", "nan_time", "length"])
    def test_bad_field_fit_input_is_data_error(self, call, bad, capfd):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 150, (0.5, 1.0, 2.0), 1e-3, seed=0)
        if bad == "nan_outcome":
            y[3] = np.nan
        elif bad == "inf_distance":
            r[7] = np.inf
        elif bad == "nan_time":
            t[11] = np.nan
        else:
            t = t[:-1]
        with pytest.raises(DataError):
            call(r, t, y)
        # rejected before any LAPACK routine could complain on stderr
        assert capfd.readouterr().err == ""


class TestNonparametricFit:
    def test_affine_reproduction(self):
        rng = np.random.default_rng(1)
        d = np.sort(rng.uniform(0, 100, 400))
        y = 3.0 - 0.02 * d
        fit = nonparametric_fit(d, y, bandwidth=8.0)
        interior = (fit.grid > 8.0) & (fit.grid < 92.0)
        expected = 3.0 - 0.02 * fit.grid[interior]
        assert np.max(np.abs(fit.m_hat[interior] - expected)) < 1e-8

    def test_rule_of_thumb(self):
        d = np.random.default_rng(2).uniform(0, 100, 5000)
        assert rule_of_thumb_bandwidth(d) == pytest.approx(1.06 * d.std() * 5000 ** -0.2, rel=1e-12)

    def test_cv_bandwidth_in_grid_range(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0, 100, 2000)
        y = 0.8 * np.exp(-0.05 * d) + 0.1 * rng.standard_normal(2000)
        h0 = rule_of_thumb_bandwidth(d)
        h = cross_validated_bandwidth(d, y)
        assert h0 / 4.0 <= h <= h0 * 4.0

    def test_cv_choice_near_oracle_bandwidth(self):
        # the CV pick's out-of-sample error should be close to the best the
        # bandwidth grid can do (fresh validation sample as the oracle)
        rng = np.random.default_rng(4)

        def draw(n):
            d = rng.uniform(0, 600, n)
            return d, 0.6 * np.exp(-0.005 * d) + 0.08 * rng.standard_normal(n)

        d, y = draw(3000)
        d_val, y_val = draw(3000)
        h_cv = cross_validated_bandwidth(d, y)
        h0 = rule_of_thumb_bandwidth(d)

        def val_error(h):
            fit = nonparametric_fit(d, y, bandwidth=h)
            pred = np.interp(d_val, fit.grid, fit.m_hat)
            return float(np.mean((y_val - pred) ** 2))

        grid = np.geomspace(h0 / 4.0, h0 * 4.0, 10)
        best = min(val_error(float(h)) for h in grid)
        assert val_error(h_cv) <= 1.02 * best

    def test_cv_ignores_empty_bins_in_a_gap(self):
        # a 20 km gap: an empty bin adds nothing to the score, so it must not
        # rule a bandwidth out (requiring a fit there left only h >= 16 km)
        rng = np.random.default_rng(1)
        d = np.concatenate([rng.uniform(0, 40, 1000), rng.uniform(60, 100, 1000)])
        y = np.exp(-0.05 * d) + 0.05 * rng.standard_normal(2000)
        h0 = rule_of_thumb_bandwidth(d)
        grid_h = np.geomspace(h0 / 4.0, h0 * 4.0, 10)
        _, counts, ysum, width, ids = _bin_data(d, y)
        scores = _cv_scores(width, counts, ysum, np.bincount(ids, y * y, counts.size), grid_h)
        assert np.isfinite(scores).all()
        assert scores.min() == pytest.approx(4.965, abs=1e-3)
        assert cross_validated_bandwidth(d, y) == grid_h[3] == pytest.approx(4.68, abs=0.01)

    @staticmethod
    def two_clusters():
        """100 points on [0, 0.01] and 100 on [100, 100.01]: no bandwidth of
        the CV grid gives a bin of either cluster a local-linear fit."""
        rng = np.random.default_rng(0)
        d = np.concatenate([rng.uniform(0, 0.01, 100), rng.uniform(100, 100.01, 100)])
        return d, 1.0 + 0.1 * rng.standard_normal(200)

    def test_cv_without_admissible_bandwidth_is_data_error(self):
        d, y = self.two_clusters()
        h0 = rule_of_thumb_bandwidth(d)
        with pytest.raises(DataError, match=f"{h0 / 4:.6g}, {h0 * 4:.6g}"):
            cross_validated_bandwidth(d, y)
        with pytest.raises(DataError, match="cross-validation"):
            nonparametric_fit(d, y, bandwidth="auto-cv")

    def test_contracts(self):
        d = np.linspace(0, 10, 30)
        with pytest.raises(InsufficientDataError):
            nonparametric_fit(d, d)
        d = np.linspace(0, 10, 60)
        with pytest.raises(DomainError):
            nonparametric_fit(d, d, bandwidth=-1.0)
        with pytest.raises(DomainError):
            nonparametric_fit(d, d, n_grid=50)

    @pytest.mark.parametrize("bandwidth", [math.inf, math.nan, 0.0, -1.0, "abc"],
                             ids=["inf", "nan", "zero", "negative", "text"])
    def test_bad_bandwidth_is_domain_error(self, bandwidth):
        d = np.linspace(0.0, 10.0, 60)
        with pytest.raises(DomainError):
            nonparametric_fit(d, np.exp(-0.1 * d), bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e-20, 1e-300])
    def test_bandwidth_below_the_float_spacing_is_data_error(self, bandwidth):
        # a +- h rounds to a at every grid point a, so no window holds a point
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        with pytest.raises(DataError, match="bandwidth too small: every window is empty"):
            nonparametric_fit(d, y, bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [5e-324, 1e-310, 1e-308])
    def test_bandwidth_whose_grid_span_overflows_is_data_error(self, bandwidth):
        # the grid's span over 4 h passes the floats; no floating-point flag
        # comes before the error
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        with np.errstate(all="raise"), pytest.raises(DataError, match="every window is empty"):
            nonparametric_fit(d, y, bandwidth=bandwidth)


    @pytest.mark.parametrize("bandwidth", [1e200, 1e300, 1.7976931348623157e308])
    def test_bandwidth_whose_sums_leave_the_float_range_is_domain_error(self, bandwidth):
        # 0.75 h^2 is inf, and the window moments it multiplies have underflowed
        # to 0: the sums were NaN, and the curve came out flat at the sample mean.
        # No overflow or invalid flag comes before the error (underflow is expected)
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        with np.errstate(over="raise", invalid="raise"), pytest.raises(
                DomainError, match="sums leave the float range"):
            nonparametric_fit(d, y, bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e155, 1e163])
    def test_bandwidth_whose_square_overflows_keeps_its_curve(self, bandwidth):
        # S2 = 0.75 h^2 x moment is inf there, and those windows are summed directly
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        wide = nonparametric_fit(d, y, bandwidth=1e100).m_hat
        np.testing.assert_allclose(nonparametric_fit(d, y, bandwidth=bandwidth).m_hat, wide,
                                   rtol=0, atol=1e-13)
        assert np.ptp(wide) > 0.5


class TestDetectBoundary:
    def _noiseless_fit(self, kappa=0.05, n=5000):
        d = np.linspace(0.01, 100.0, n)
        y = 0.8 * np.exp(-kappa * d)
        return nonparametric_fit(d, y, bandwidth=3.0, n_grid=512)

    def test_noiseless_crossing_within_one_grid_step(self):
        fit = self._noiseless_fit()
        boundary, reject = detect_boundary(fit, 0.1, n_boot=50, seed=0)
        assert reject
        step = fit.grid[1] - fit.grid[0]
        assert boundary == pytest.approx(LN10 / 0.05, abs=step + 1e-9)

    def test_lower_fraction_never_decreases_boundary(self):
        fit = self._noiseless_fit()
        previous = 0.0
        for p in (0.5, 0.3, 0.2, 0.1, 0.05):
            boundary, _ = detect_boundary(fit, p, n_boot=20, seed=0)
            assert boundary >= previous - 1e-12
            previous = boundary

    def test_flat_data_yields_none(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0, 100, 4000)
        y = 0.5 + 0.05 * rng.standard_normal(4000)
        fit = nonparametric_fit(d, y, bandwidth="auto", n_grid=256)
        boundary, reject = detect_boundary(fit, 0.1, n_boot=200, seed=7)
        assert boundary is None

    def test_bootstrap_interval_brackets_noiseless_boundary(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(0, 100, 5000)
        y = 0.8 * np.exp(-0.05 * d) + 0.1 * rng.standard_normal(5000)
        fit = nonparametric_fit(d, y, bandwidth="auto", n_grid=512)
        ci = bootstrap_boundary_interval(fit, 0.1, n_boot=200, seed=8)
        assert ci is not None and ci[0] < LN10 / 0.05 < ci[1]

    @pytest.mark.parametrize("data_seed", [0, 5])
    def test_bootstrap_interval_none_when_too_few_curves_cross(self, data_seed):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        # on flat data the half-level crossing is rare: at data seed 5 fewer
        # than 20 of the 40 curves cross, at data seed 0 enough of them do
        fit = nonparametric_fit(*generate_dgp(STANDARD_DGPS["flat"], 500, data_seed))
        ci = bootstrap_boundary_interval(fit, 0.5, n_boot=40, seed=5)
        assert (ci is None) == (data_seed == 5)

    def test_contracts(self):
        fit = self._noiseless_fit(n=200)
        with pytest.raises(DomainError):
            detect_boundary(fit, 1.5)
        with pytest.raises(DomainError):
            detect_boundary(fit, 0.1, n_boot=0)

    def test_gate_without_a_bin_near_an_endpoint_is_data_error(self):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        # 400 bins of about 0.25 km: no bin centre lies within 0.05 km of either endpoint
        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 2000, 3)
        fit = nonparametric_fit(d, y, bandwidth=0.05)
        with pytest.raises(DataError, match=r"bandwidth 0\.05 km .*\(bin width 0\.2499 km\)"):
            detect_boundary(fit, 0.1, seed=0)
        boundary, reject = detect_boundary(nonparametric_fit(d, y, bandwidth=0.2), 0.1, seed=0)
        assert reject and boundary == pytest.approx(37.5, abs=0.01)

    @pytest.mark.parametrize("bad", [{"fraction": 1.5}, {"n_boot": 0}], ids=["fraction", "n_boot"])
    def test_interval_contracts(self, bad):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, seed=1)
        fit = nonparametric_fit(d, y)
        with pytest.raises(DomainError):
            bootstrap_boundary_interval(fit, **{"fraction": 0.1, "seed": 1, **bad})


class TestQuantiles:
    """estimation._quantiles against numpy's quantile, nanquantile and median,
    bitwise: the gate's, the interval's and a few other levels, on seeded
    arrays with and without ties, n = 1 and 2, odd and even n."""

    QS = [estimation.ALPHA, estimation.ALPHA / 2.0, 1.0 - estimation.ALPHA / 2.0,
          0.0, 0.25, 0.5, 1.0 / 3.0, 0.9, 1.0]

    @staticmethod
    def _arrays(signed_zeros=True):
        rng = np.random.default_rng(41)
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 199, 200, 201, 400]:
            for _ in range(5):
                yield rng.standard_normal(n)
                yield rng.integers(-2, 3, n).astype(float)  # ties
                yield rng.choice([0.0, 1.5, -2.25, 7.0], n)
                yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                if signed_zeros:
                    yield rng.choice([0.0, -0.0, 1.0], n)

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).tobytes()

    def test_equals_np_quantile_and_np_median(self):
        for a in self._arrays():
            assert self._bits(estimation._quantiles(a, self.QS)) == self._bits(np.quantile(a, self.QS))
            assert self._bits(estimation._quantiles(a, "median")) == self._bits(np.median(a)), a

    def test_equals_np_nanquantile_without_the_nans(self):
        rng = np.random.default_rng(42)
        for a in self._arrays(signed_zeros=False):
            a = np.where(rng.random(a.size) < 0.2, math.nan, a)
            if np.isnan(a).all():
                continue
            got = estimation._quantiles(a[~np.isnan(a)], self.QS)
            assert self._bits(got) == self._bits(np.nanquantile(a, self.QS)), a

    def test_a_nan_gives_nan(self):
        a = np.array([1.0, math.nan, 3.0, 2.0])
        assert all(math.isnan(v) for v in estimation._quantiles(a, self.QS))
        assert math.isnan(estimation._quantiles(a, "median")[0])


class TestDiagnostics:
    def test_perfectly_decreasing(self):
        d = np.linspace(1, 100, 200)
        y = np.exp(-0.05 * d)
        report = diagnostics(d, y, n_bins=8)
        assert report.spearman_rho == pytest.approx(-1.0)
        assert report.decision == "framework_applies"
        assert report.pct_decline_from_first_bin[0] == 0.0
        assert report.pct_decline_from_first_bin[-1] > 0.9

    def test_spearman_matches_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 300)
        y = x + rng.normal(0, 0.5, 300)
        rho, _ = spearman_correlation(x, y)
        assert rho == pytest.approx(spearmanr(x, y).statistic, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1.0 + 2**-52, 3.0, 1e300]),
                    min_size=1, max_size=60))
    def test_rank_averages_ties(self, values):
        a = np.array(values)
        # brute force: one plus the number below, plus half the other equal values
        below = (a[None, :] < a[:, None]).sum(axis=1)
        equal = (a[None, :] == a[:, None]).sum(axis=1)
        assert np.array_equal(_rank(a), 1.0 + below + 0.5 * (equal - 1))

    def test_bin_counts_sum_to_n(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(0, 100, 500)
        y = rng.normal(0.5, 0.1, 500)
        report = diagnostics(d, y, n_bins=10)
        assert sum(row[4] for row in report.binned_means) == 500

    def test_bins_widen_when_sparse(self):
        rng = np.random.default_rng(7)
        # heavy clumping near zero starves the far bins
        d = np.concatenate([rng.uniform(0, 5, 95), rng.uniform(90, 100, 3)])
        y = rng.normal(0.5, 0.1, 98)
        report = diagnostics(d, y, n_bins=12)
        assert report.bins_widened
        assert all(row[4] >= 5 for row in report.binned_means)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            diagnostics(np.arange(10.0), np.arange(10.0), n_bins=8)

    def test_no_bins_is_domain_error(self):
        d = np.linspace(1, 100, 200)
        with pytest.raises(DomainError, match="n_bins must be >= 1, got 0"):
            diagnostics(d, np.exp(-0.05 * d), n_bins=0)

    def test_significant_decay_with_small_r_squared_is_framework_weak(self):
        # log y = -0.0099 d + N(0, 1): R^2 = kappa^2 var(d) / (kappa^2 var(d) + 1) ~ 0.075
        rng = np.random.default_rng(27)
        d = rng.uniform(0.0, 100.0, 2000)
        y = np.exp(-0.0099 * d + rng.standard_normal(2000))
        assert 0.05 <= fit_loglinear(d, y).r_squared <= 0.10
        assert diagnostics(d, y).decision == "framework_weak"


class TestRegionalHeterogeneity:
    @staticmethod
    def mixture_sample(n, seed, kappa_near=0.00112, kappa_far=0.00123, sigma=0.35):
        """Near-field decay joined to a rising far-field component at 100 km."""
        rng = np.random.default_rng(seed)
        d = 200.0 * (1.0 - rng.random(n))
        log_mean = np.where(
            d < 100.0, -kappa_near * d, -kappa_near * 100.0 + kappa_far * (d - 100.0)
        )
        return d, np.exp(1.0 + log_mean + sigma * rng.standard_normal(n))

    def test_sign_reversal_detected(self):
        d, y = self.mixture_sample(4000, seed=0)
        res = regional_heterogeneity(d, y, 100.0)
        assert res.sign_reversal
        assert res.near.kappa_s == pytest.approx(0.00112, abs=3 * res.near.se_classical)
        assert res.far.kappa_s == pytest.approx(-0.00123, abs=3 * res.far.se_classical)

    def test_pure_decay_has_no_reversal(self):
        rng = np.random.default_rng(1)
        d = 100.0 * (1.0 - rng.random(4000))
        y = np.exp(1.0 - 0.05 * d + 0.3 * rng.standard_normal(4000))
        res = regional_heterogeneity(d, y, 23.0)
        assert not res.sign_reversal
        assert res.near.kappa_s > 0 and res.far.kappa_s > 0

    def test_flat_data_has_no_reversal(self):
        rng = np.random.default_rng(2)
        d = 100.0 * (1.0 - rng.random(2000))
        y = np.exp(0.3 * rng.standard_normal(2000))
        assert not regional_heterogeneity(d, y, 50.0).sign_reversal

    def test_shuffling_far_field_destroys_reversal(self):
        d, y = self.mixture_sample(4000, seed=3)
        rng = np.random.default_rng(99)
        destroyed = 0
        trials = 40
        for _ in range(trials):
            y_shuffled = y.copy()
            far = d >= 100.0
            y_shuffled[far] = rng.permutation(y[far])
            if not regional_heterogeneity(d, y_shuffled, 100.0).sign_reversal:
                destroyed += 1
        assert destroyed >= 0.95 * trials

    def test_side_size_contract(self):
        d = np.linspace(0, 100, 100)
        y = np.ones(100)
        with pytest.raises(InsufficientDataError, match="far"):
            regional_heterogeneity(d, y, 99.0)
        with pytest.raises(InsufficientDataError, match="near"):
            regional_heterogeneity(d, y, 1.0)


class TestDeltaMethodCoverage:
    def test_coverage_band_on_correctly_specified_decay(self):
        """d* interval covers the truth 91-98% of the time over 500 draws.

        Multiplicative log-normal noise on the strong-decay mean keeps the
        log-linear model exactly specified, which is what a delta-method
        interval needs for nominal coverage.
        """
        truth = LN10 / 0.05
        hits = 0
        for rep in range(500):
            rng = np.random.default_rng(5000 + rep)
            d = 100.0 * (1.0 - rng.random(5000))
            y = np.exp(math.log(0.8) - 0.05 * d + 0.25 * rng.standard_normal(5000))
            lo, hi = fit_loglinear(d, y).d_star_ci
            hits += lo <= truth <= hi
        assert 0.91 <= hits / 500 <= 0.98

    def test_kappa_centered_within_three_ses(self):
        rng = np.random.default_rng(77)
        d = 100.0 * (1.0 - rng.random(5000))
        y = np.exp(math.log(0.8) - 0.05 * d + 0.25 * rng.standard_normal(5000))
        fit = fit_loglinear(d, y)
        assert abs(fit.kappa_s - 0.05) <= 3.0 * fit.se_classical


class TestNonparametricOnBenchmarks:
    def test_strong_decay_source_level_recovered(self):
        # mean fitted value at the near edge within 2% of 0.8 over 100 draws
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        spec = STANDARD_DGPS["strong_decay"]
        edge_values = []
        for rep in range(100):
            d, y = generate_dgp(spec, 5000, seed=900 + rep)
            fit = nonparametric_fit(d, y, bandwidth="auto", n_grid=200)
            edge_values.append(fit.m_hat[0])
        assert np.mean(edge_values) == pytest.approx(0.8, rel=0.02)

    def test_hump_peak_located(self):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        spec = STANDARD_DGPS["hump"]
        for rep in range(5):
            d, y = generate_dgp(spec, 5000, seed=300 + rep)
            fit = nonparametric_fit(d, y, bandwidth="auto", n_grid=512)
            peak = fit.grid[int(np.argmax(fit.m_hat))]
            assert abs(peak - 20.0) <= 3.0


class TestDiagnosticsOnBenchmarks:
    def test_strong_decay_accepted(self):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        spec = STANDARD_DGPS["strong_decay"]
        hits = sum(
            diagnostics(*generate_dgp(spec, 3000, seed=400 + rep), n_bins=8).decision
            == "framework_applies"
            for rep in range(30)
        )
        assert hits >= 0.95 * 30

    def test_flat_rejected(self):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        spec = STANDARD_DGPS["flat"]
        hits = sum(
            diagnostics(*generate_dgp(spec, 3000, seed=500 + rep), n_bins=8).decision
            == "framework_rejected"
            for rep in range(30)
        )
        assert hits >= 0.90 * 30


class TestFieldNls:
    def test_noiseless_exact(self):
        r, t, y = simulate_gaussian_field_sample(0.7, 1.3, 300, (0.5, 1.0, 2.0), 0.0, seed=0)
        fit = fit_field_nls(r, t, y)
        assert fit.nu == pytest.approx(0.7, rel=1e-8)
        assert fit.q == pytest.approx(1.3, rel=1e-8)

    def test_covariance_brackets_noise(self):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 800, (0.5, 1.0, 2.0), 5e-4, seed=1)
        fit = fit_field_nls(r, t, y)
        assert abs(fit.nu - 1.0) < 5.0 * fit.se_nu
        assert abs(fit.q - 1.0) < 5.0 * fit.se_q

    def test_single_time_warns(self):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 200, (1.0,), 0.0, seed=2)
        with pytest.warns(UserWarning, match="one time"):
            fit_field_nls(r, t, y)

    @staticmethod
    def _grid_min_rss(profile, y, log_nu):
        """Least rss, amplitude projected out, on four nested 51-point log-nu
        grids around log_nu, each spanning one cell of the one before."""
        half = 1e-2
        for _ in range(4):
            xs = log_nu + np.linspace(-half, half, 51)
            rss = []
            for x in xs:
                g = profile(math.exp(x))
                res = y - (g @ y) / (g @ g) * g
                rss.append(float(res @ res))
            log_nu, half = xs[int(np.argmin(rss))], half / 25.0
        return min(rss)

    def test_gaussian_rss_is_the_grid_minimum(self):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 800, (0.5, 1.0, 2.0), 5e-4, seed=1)
        fit = fit_field_nls(r, t, y)
        best = self._grid_min_rss(
            lambda nu: np.exp(-r * r / (4 * nu * t)) / (4 * math.pi * nu * t) ** 1.5,
            y, math.log(fit.nu))
        assert fit.rss == pytest.approx(best, rel=1e-12)

    def test_bessel_rss_is_the_grid_minimum(self):
        from plumefront.fields import BesselField, FieldParams
        from plumefront.specfun import bessel_k0

        field = BesselField(FieldParams(nu=0.8, q=1.0, dim=2, source_pos=(0.0, 0.0)), 0.7)
        rng = np.random.default_rng(100)
        t = rng.choice([0.5, 1.0, 2.0], size=300)
        r = rng.uniform(0.1, 4.0, size=300)
        y = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
        y += 0.002 * rng.standard_normal(300)
        fit = fit_field_nls(r, t, y, field_class="bessel")
        best = self._grid_min_rss(
            lambda nu: np.array([bessel_k0(a / (2 * math.sqrt(nu * b))).value / b
                                 for a, b in zip(r, t)]),
            y, math.log(fit.nu))
        assert fit.rss == pytest.approx(best, rel=1e-12)

    def test_seed_does_not_change_the_fit(self):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 1e-3, seed=3)
        a = fit_field_nls(r, t, y, seed=1)
        b = fit_field_nls(r, t, y, seed=2)
        assert (a.nu, a.q, a.rss, a.n_iter) == (b.nu, b.q, b.rss, b.n_iter)
        assert np.array_equal(a.cov, b.cov)

    def test_kummer_fit_on_decaying_data_fails(self):
        # M(1/2, 1, z) grows with r, so on this data the least squares lie at nu -> infinity
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        with pytest.raises(FitError, match="scan edge: True"):
            fit_field_nls(r, t, y, field_class="kummer")

    @staticmethod
    def _kummer_sample(nu, seed):
        """M(1/2, 1, r^2 / 4 nu t) / t plus noise 0.01, r up to 2 sqrt(nu)."""
        rng = np.random.default_rng(seed)
        t = rng.choice([0.5, 1.0, 2.0], size=300)
        r = rng.uniform(0.0, 2.0 * math.sqrt(nu), size=300)
        y = np.array([kummer_m(0.5, 1.0, a * a / (4.0 * nu * b)).value / b for a, b in zip(r, t)])
        return r, t, y + 0.01 * rng.standard_normal(300)

    @staticmethod
    def _full_row_kummer(r, t, nu):
        """The Kummer profile e^x I0(x) / t, x = z/2, z = r^2 / 4 nu t, at
        every point of each row (one per nu of a column), overflowing or not."""
        x = 0.5 * (r * r / (4.0 * nu * t))
        return np.exp(x) * np.i0(x) / t

    @staticmethod
    def _scalar_row_kummer(r, t, nu):
        """The Kummer profile from scalar kummer_m at every point of each row."""
        z = r * r / (4.0 * nu * t)
        return np.array([kummer_m(0.5, 1.0, x).value for x in z.ravel().tolist()]).reshape(z.shape) / t

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("nu", [0.3, 2.0, 7.0])
    def test_kummer_fit_equals_full_row_evaluation(self, nu, seed, monkeypatch):
        r, t, y = self._kummer_sample(nu, seed)
        fit = fit_field_nls(r, t, y, field_class="kummer")
        monkeypatch.setitem(estimation._MODELS, "kummer", self._full_row_kummer)
        full = fit_field_nls(r, t, y, field_class="kummer")
        # skipping the rows whose top overflows changes nothing
        assert (fit.nu, fit.q, fit.rss, fit.n_iter) == (full.nu, full.q, full.rss, full.n_iter)
        assert fit.cov.tobytes() == full.cov.tobytes()
        assert abs(fit.nu - nu) < 0.01 * nu
        # numpy's I0 rounds unlike the scalar series, so the scalar row moves
        # the fit by rounding only
        monkeypatch.setitem(estimation._MODELS, "kummer", self._scalar_row_kummer)
        scalar = fit_field_nls(r, t, y, field_class="kummer")
        assert fit.nu == pytest.approx(scalar.nu, rel=1e-8, abs=0.0)
        assert fit.q == pytest.approx(scalar.q, rel=1e-8, abs=0.0)
        assert fit.rss == pytest.approx(scalar.rss, rel=1e-12, abs=0.0)
        assert fit.n_iter == scalar.n_iter

    def test_kummer_failure_on_decaying_data_is_unchanged(self, monkeypatch):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        rows = []

        def spy(r, t, nu):
            g = estimation._kummer_model(r, t, nu)
            rows.extend(np.isinf(g).all(axis=-1).reshape(-1).tolist())  # one per nu
            return g

        monkeypatch.setitem(estimation._MODELS, "kummer", spy)
        with pytest.raises(FitError) as err:
            fit_field_nls(r, t, y, field_class="kummer")
        assert str(err.value) == ("kummer field fit failed at nu=3.531417e+05 (scan edge: True), "
                                  "rss=4.065522e-02, amplitude=6.117900e-03")
        # all 49 scan points are evaluated and counted, the 15 whose top leaves the floats skipped
        assert len(rows) == 49 and sum(rows) == 15

    def test_singular_jacobian_is_fit_error(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(FitError) as err:
            fit_field_nls(r, t, y)
        assert str(err.value) == ("gaussian field fit: J'J is singular at nu=1.009152e+00 "
                                  "(Singular matrix)")

    def test_contracts(self):
        with pytest.raises(DomainError):
            fit_field_nls([1.0], [1.0], [1.0], field_class="exotic")
        with pytest.raises(InsufficientDataError):
            fit_field_nls(np.ones(10), np.ones(10), np.ones(10))
        with pytest.raises(DomainError, match="times"):
            fit_field_nls(np.ones(60), np.zeros(60), np.ones(60))
        with pytest.raises(DomainError, match="distance"):
            fit_field_nls(np.zeros(60), np.ones(60), np.ones(60))
        with pytest.raises(DomainError, match=r"every distance > 0 .*: 2 of 60 distances"):
            fit_field_nls(np.r_[0.0, 0.0, np.ones(58)], np.ones(60), np.ones(60), "bessel")


class TestFieldFitDomain:
    CALLS = [
        lambda r, t, y: fit_field_nls(r, t, y, field_class="gaussian"),
        lambda r, t, y: fit_field_nls(r, t, y, field_class="kummer"),
        lambda r, t, y: fit_field_nls(r, t, y, field_class="bessel"),
        lambda r, t, y: select_profile_model(r, y, t),
    ]
    IDS = ["gaussian", "kummer", "bessel", "select_profile_model"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    @pytest.mark.parametrize(
        "column, scale",
        # r^2 / 4t is 0, subnormal, subnormal, inf; then normal with the nu scan past 1e300
        [("distances", 1e-170), ("distances", 1e-160), ("distances", 1e-155),
         ("distances", 1e160), ("times", 1e-300)],
    )
    def test_scale_outside_the_float_range_is_domain_error(self, call, column, scale):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        if column == "distances":
            r = r * scale
        else:
            t = t * scale
        with pytest.raises(DomainError, match=r"r\^2 / 4t \(median .*normal floats"):
            call(r, t, y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_time_scale_inside_the_range_rescales_nu(self, scale):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        base = fit_field_nls(r, t, y)
        fit = fit_field_nls(r, t * scale, y)
        # the root search stops at 1e-10 in log nu, on a shifted grid
        assert fit.nu * scale == pytest.approx(base.nu, rel=1e-8)
        assert fit.q == pytest.approx(base.q, rel=1e-8)
        assert fit.se_nu * scale == pytest.approx(base.se_nu, rel=1e-6)
        # the rows whose profile overflows get rss inf without a warning
        with pytest.raises(FitError, match="scan edge: True"):
            fit_field_nls(r, t * scale, y, field_class="kummer")

    def test_unknown_geometry_hint_is_domain_error(self):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        with pytest.raises(DomainError, match="geometry_hint must be 'cylindrical' or 'none'"):
            select_profile_model(r, y, t, geometry_hint="spherical")

    @pytest.mark.parametrize("times", [(0.5, 0.0), (-1.0,), (1.0, math.inf), (math.nan,)],
                             ids=["zero", "negative", "inf", "nan"])
    def test_simulated_times_must_be_finite_and_positive(self, times):
        with pytest.raises(DomainError, match="times must be finite and > 0"):
            simulate_gaussian_field_sample(1.0, 1.0, 50, times, 0.0, seed=0)

    def test_simulated_distance_range_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match=r"4 sqrt\(nu max t\) overflows"):
            simulate_gaussian_field_sample(1e300, 1.0, 50, (1e300,), 0.0, seed=0)

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_negative_distances_are_domain_error(self, call):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        r[[4, 9]] = -r[[4, 9]]
        r[0] = 0.0  # the Bessel zero-distance check comes after
        with pytest.raises(DomainError, match="distances must be >= 0: 2 of 300 are negative"):
            call(r, t, y)


class TestSelectProfileModel:
    def test_gaussian_data_selects_gaussian(self):
        hits = 0
        for rep in range(12):
            r, t, y = simulate_gaussian_field_sample(
                1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=rep
            )
            sel = select_profile_model(r, y, t, seed=rep)
            hits += sel.model == "gaussian"
        assert hits >= 12 * 0.95

    def test_cylindrical_hint_selects_bessel(self):
        from plumefront.fields import BesselField, FieldParams

        field = BesselField(FieldParams(nu=0.8, q=1.0, dim=2, source_pos=(0.0, 0.0)), 0.7)
        hits = 0
        for rep in range(5):
            rng = np.random.default_rng(100 + rep)
            t = rng.choice([0.5, 1.0, 2.0], size=300)
            r = rng.uniform(0.1, 4.0, size=300)
            clean = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
            y = clean + 0.002 * rng.standard_normal(300)
            sel = select_profile_model(r, y, t, geometry_hint="cylindrical", seed=rep)
            hits += sel.model == "bessel" and abs(sel.params["nu"] - 0.8) / 0.8 < 0.1
        assert hits == 5

    def test_unhinted_selection_kummer_m_call_budget(self, monkeypatch):
        # The Kummer fit fails on this decaying sample after its 49-row scan.  Each
        # row makes one scalar call, at its largest z: 15 rows overflow there and
        # are skipped, and numpy evaluates the other 34 in one call.  The
        # benchmark's tracer patches this global.
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        calls = []
        real = estimation.kummer_m
        monkeypatch.setattr(estimation, "kummer_m", lambda *a: calls.append(a) or real(*a))
        assert select_profile_model(r, y, t).model == "gaussian"
        assert len(calls) == 49

    def test_runs_z_is_zero_when_every_residual_has_one_sign(self):
        assert estimation._runs_z(np.array([0.0, 1.0, 2.0])) == 0.0
        assert estimation._runs_z(-np.ones(5)) == 0.0

    def test_small_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            select_profile_model(np.ones(50), np.ones(50), np.ones(50))


class TestFieldFitUnits:
    """Distances x s and times x s^2 leave r^2 / 4t, and so nu, unchanged, while
    every profile value shrinks (s > 1) or grows (s < 1) until g.g leaves the
    normal floats; the fit scales such a row by a power of two, which is
    exact, and gets nu and its standard error back."""

    @staticmethod
    def _bessel_sample(seed=100):
        from plumefront.fields import BesselField, FieldParams

        field = BesselField(FieldParams(nu=0.8, q=1.0, dim=2, source_pos=(0.0, 0.0)), 0.7)
        rng = np.random.default_rng(seed)
        t = rng.choice([0.5, 1.0, 2.0], size=300)
        r = rng.uniform(0.1, 4.0, size=300)
        clean = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
        return r, t, clean + 0.002 * rng.standard_normal(300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field_class, s", [
        ("gaussian", 1e60), ("gaussian", 1e100), ("bessel", 1e100), ("bessel", 1e140),
        # g.g overflows near the least rss
        ("gaussian", 1e-52), ("gaussian", 1e-60), ("gaussian", 1e-100), ("bessel", 1e-100),
        ("bessel", 1e-150), ("kummer", 1e-100), ("kummer", 1e100),
    ])
    def test_fit_does_not_depend_on_units(self, field_class, s):
        if field_class == "gaussian":
            r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        else:
            r, t, y = self._bessel_sample() if field_class == "bessel" else \
                self._kummer_selection_sample()
        base = fit_field_nls(r, t, y, field_class=field_class)
        fit = fit_field_nls(r * s, t * s * s, y, field_class=field_class)
        assert abs(fit.nu - base.nu) <= 1e-9
        assert fit.rss == pytest.approx(base.rss, rel=1e-9)
        assert math.isfinite(fit.se_nu) and fit.se_nu == pytest.approx(base.se_nu, rel=1e-6)
        assert fit.q == pytest.approx(base.q * (s ** 3 if field_class == "gaussian" else s * s),
                                      rel=1e-8)

    @staticmethod
    def _kummer_selection_sample():
        from plumefront.fields import FieldParams, KummerField

        field = KummerField([(1.0, 0)], FieldParams(nu=1.0, q=1.0))
        rng = np.random.default_rng(0)
        t = rng.choice([0.5, 1.0, 2.0], size=300)
        r = rng.uniform(0.0, 0.5, size=300)
        clean = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
        return r, t, clean + 1e-3 * rng.standard_normal(300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e-160, 1e-155, 1e160, 1e300])
    @pytest.mark.parametrize("field_class", ["gaussian", "bessel"])
    def test_fit_does_not_depend_on_the_units_of_y(self, field_class, s):
        # y is projected scaled by a power of two; q and rss read in the units of y
        if field_class == "gaussian":
            r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        else:
            r, t, y = self._bessel_sample()
        base = fit_field_nls(r, t, y, field_class=field_class)
        fit = fit_field_nls(r, t, y * s, field_class=field_class)
        assert abs(fit.nu - base.nu) <= 1e-9
        assert fit.q / s == pytest.approx(base.q, rel=1e-8)
        assert fit.se_nu == pytest.approx(base.se_nu, rel=1e-6)
        # in the units of y: subnormal, or inf, past the floats
        assert fit.rss == pytest.approx(base.rss * s * s, rel=1e-9, abs=1e-320)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e-160, 1e-155, 1e160, 1e300])
    @pytest.mark.parametrize("data", ["gaussian", "bessel", "kummer"])
    def test_selection_does_not_depend_on_the_units_of_y(self, data, s):
        hint = "cylindrical" if data == "bessel" else "none"
        if data == "gaussian":
            r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        else:
            r, t, y = self._bessel_sample() if data == "bessel" else self._kummer_selection_sample()
        base = select_profile_model(r, y, t, geometry_hint=hint)
        sel = select_profile_model(r, y * s, t, geometry_hint=hint)
        assert sel.model == base.model == data
        assert abs(sel.params["nu"] - base.params["nu"]) <= 1e-9
        amplitude = {"gaussian": "q", "bessel": "amplitude", "kummer": "c0"}[data]
        assert sel.params[amplitude] / s == pytest.approx(base.params[amplitude], rel=1e-8)
        if data == "kummer":
            assert sel.lr_stat == pytest.approx(base.lr_stat, rel=1e-12)
        else:
            assert sel.lr_stat is base.lr_stat is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e-100, 1e-60, 1e-52, 1e60, 1e100])
    @pytest.mark.parametrize("data", ["gaussian", "bessel", "kummer"])
    def test_selection_does_not_depend_on_the_units(self, data, s):
        hint = "cylindrical" if data == "bessel" else "none"
        if data == "gaussian":
            r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        else:
            r, t, y = self._bessel_sample() if data == "bessel" else self._kummer_selection_sample()
        base = select_profile_model(r, y, t, geometry_hint=hint)
        sel = select_profile_model(r * s, y, t * s * s, geometry_hint=hint)
        assert sel.model == base.model == data
        assert abs(sel.params["nu"] - base.params["nu"]) <= 1e-9
        amplitude, power = {"gaussian": ("q", 3), "bessel": ("amplitude", 2),
                            "kummer": ("c0", 2)}[data]
        assert sel.params[amplitude] / s ** power == pytest.approx(base.params[amplitude],
                                                                  rel=1e-8)
        if data == "kummer":
            assert sel.lr_stat == pytest.approx(base.lr_stat, rel=1e-12)
        else:
            assert sel.lr_stat is base.lr_stat is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normaliser_that_underflows_is_fit_error(self):
        # at distances x 1e-150 and times x 1e-300, (4 pi nu t)^1.5 underflows to 0
        # on every scan row, so every row leaves the floats: no divide warning
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        with pytest.raises(FitError, match=r"\(scan edge: True\), rss=inf, amplitude=nan: the "
                           r"normaliser \(4 pi nu t\)\^1\.5 underflows to 0 at t=5\.0+e-301$"):
            fit_field_nls(r * 1e-150, t * 1e-300, y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e60, 1e100])
    def test_amplitude_standard_error_is_a_float_where_its_variance_is_not(self, s):
        # se_q is near 1.5e178 and 1.5e298, so cov[1, 1] = se_q^2 overflows to inf
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        base = fit_field_nls(r, t, y)
        fit = fit_field_nls(r * s, t * s * s, y)
        assert fit.cov[1, 1] == math.inf
        assert fit.se_q == pytest.approx(base.se_q * s ** 3, rel=1e-6)


class TestFieldScanOracle:
    """fit_field_nls scans log nu in blocks of rows, one model call per block,
    and takes each slope of its root search from one call of three rows; a
    reference written here makes one call per nu, with nu a float, and gives
    bitwise the same fit, or the same FitError."""

    @staticmethod
    def _reference_fit(r, t, y, field_class):
        """The fit by the per-point search, each slope from three model calls
        with nu a float: (nu, q, rss, cov, n_iter) or the FitError message,
        and the number of rows whose top overflows and of rows scaled by a
        power of two because their g.g is not a normal float."""
        model = estimation._MODELS[field_class]
        k = -math.frexp(float(np.max(np.abs(y))))[1]
        y = np.ldexp(y, k)
        evals, slopes, counts = [], {}, {"inf": 0, "scaled": 0}

        def row(nu):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                g = model(r, t, nu)
            counts["inf"] += bool(np.isinf(g).all())
            return g

        def project(log_nu):
            g, scale = row(math.exp(log_nu)), 0
            with np.errstate(over="ignore", invalid="ignore"):
                gg = float(g @ g)
                if not sys.float_info.min <= gg < math.inf:
                    scale = -math.frexp(float(np.max(np.abs(g))))[1]
                    g = np.ldexp(g, scale)
                    gg = float(g @ g)
            counts["scaled"] += scale != 0
            amp, rss, res = math.nan, math.inf, None
            if 0.0 < gg < math.inf:
                amp = float(g @ y) / gg
                res = y - amp * g
                rss = float(res @ res)
            evals.append((rss, log_nu, amp, scale))
            return amp, g, res

        def slope(log_nu):
            if log_nu not in slopes:
                nu = math.exp(log_nu)
                up, down = row(nu * (1.0 + 1e-6)), row(nu * (1.0 - 1e-6))
                amp, g, res = project(log_nu)
                with np.errstate(over="ignore", invalid="ignore"):
                    diff = np.ldexp(up - down, evals[-1][3])
                    jac = np.column_stack([amp / (2e-6 * nu) * diff, g])
                    s = -amp * float(diff @ res) if res is not None else math.nan
                if not math.isfinite(s):
                    s = math.copysign(math.inf, log_nu - grid[i])
                slopes[log_nu] = (s, evals[-1], jac.T @ jac)
            return slopes[log_nu][0]

        half = estimation.SCAN_HALF_WIDTH
        grid = (estimation._scan_centre(r, t) + np.linspace(-half, half, 49)).tolist()
        for x in grid:
            project(x)
        i = int(np.argmin([e[0] for e in evals]))
        if 0 < i < 48:
            assert slope(grid[i - 1]) <= 0.0 < slope(grid[i + 1])
            _, (rss, log_nu, amp, scale), jtj = slopes[_zeroin(slope, grid[i + 1], grid[i - 1],
                                                               1e-10)]
        else:
            rss, log_nu, amp, scale = min(evals)
        nu = math.exp(log_nu)
        with np.errstate(over="ignore"):
            q, rss_y = float(np.ldexp(amp, scale - k)), float(np.ldexp(rss, -2 * k))
        if not (0 < i < 48 and math.isfinite(rss) and 0 < amp < math.inf):
            return (f"{field_class} field fit failed at nu={nu:.6e} (scan edge: {not 0 < i < 48}), "
                    f"rss={rss_y:.6e}, amplitude={q:.6e}"), counts
        cov = rss / (r.size - 2) * np.linalg.inv(jtj)
        with np.errstate(over="ignore"):
            cov = np.ldexp(cov, (scale - k) * np.array([[0, 1], [1, 2]]))
        return (nu, q, rss_y, cov.tobytes(), len(evals)), counts

    @staticmethod
    def _sample(kind):
        if kind == "kummer":
            return TestFieldNls._kummer_sample(2.0, 0)
        if kind == "bessel":
            return TestFieldFitUnits._bessel_sample()
        return simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("one_row_blocks", [False, True], ids=["blocks", "one_row_blocks"])
    @pytest.mark.parametrize("field_class, data, s", [
        # the units of TestFieldFitUnits, where g is scaled by a power of two
        ("gaussian", "gaussian", 1.0), ("gaussian", "gaussian", 1e60),
        ("gaussian", "gaussian", 1e100), ("bessel", "bessel", 1.0), ("bessel", "bessel", 1e100),
        ("bessel", "bessel", 1e140),
        # the small units, where g.g overflows near the least rss
        ("gaussian", "gaussian", 1e-60), ("bessel", "bessel", 1e-100),
        # Kummer rows whose top overflows, in a fit and in the failure on decaying data
        ("kummer", "kummer", 1.0), ("kummer", "gaussian", 1.0),
    ])
    def test_block_scan_equals_the_per_point_scan(self, field_class, data, s, one_row_blocks,
                                                  monkeypatch):
        r, t, y = self._sample(data)
        r, t = r * s, t * s * s
        want, counts = self._reference_fit(r, t, y, field_class)
        # at unit scale only Kummer rows (two in each fit here) have g.g past the floats
        assert (counts["scaled"] > 0) == (s != 1.0 or field_class == "kummer")
        assert (counts["inf"] > 0) == (field_class == "kummer")
        if one_row_blocks:
            monkeypatch.setattr(estimation, "_SCAN_BLOCK", 1)
        if isinstance(want, str):
            with pytest.raises(FitError) as err:
                fit_field_nls(r, t, y, field_class=field_class)
            assert str(err.value) == want
        else:
            fit = fit_field_nls(r, t, y, field_class=field_class)
            assert (fit.nu, fit.q, fit.rss, fit.cov.tobytes(), fit.n_iter) == want

    def test_a_block_holds_the_whole_scan_at_n_300(self, monkeypatch):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        shapes = []

        def spy(r, t, nu):
            shapes.append(np.shape(nu))
            return estimation._gaussian_model(r, t, nu)

        monkeypatch.setitem(estimation._MODELS, "gaussian", spy)
        fit = fit_field_nls(r, t, y)
        # the scan, then nu (1 +- 1e-6) with nu for each slope of the root search
        assert shapes == [(49, 1)] + [(3, 1)] * (fit.n_iter - 49)
        monkeypatch.setattr(estimation, "_SCAN_BLOCK", 300 * 20)
        shapes.clear()
        fit_field_nls(r, t, y)
        assert shapes[:3] == [(20, 1), (20, 1), (9, 1)]


class TestFieldRootSearch:
    """The root of the rss slope against the least rss of a dense scan and
    golden sections, on the data of the benchmark's profile fits, and the
    search's edge cases."""

    @staticmethod
    def _golden_log_nu(r, t, y, field_class):
        """log nu at the least rss, amplitude projected out: 481 points of log
        median r^2 / 4t +- 12, then golden sections to 1e-12 in the best cell."""
        model = estimation._MODELS[field_class]

        def rss(x):
            g = model(r, t, math.exp(x))
            res = y - (g @ y) / (g @ g) * g
            return float(res @ res)

        xs = math.log(np.median(r * r / (4.0 * t))) + np.linspace(-12.0, 12.0, 481)
        i = int(np.argmin([rss(x) for x in xs]))
        a, b = xs[i - 1], xs[i + 1]
        w = 0.5 * (math.sqrt(5.0) - 1.0)
        c, d = b - w * (b - a), a + w * (b - a)
        fc, fd = rss(c), rss(d)
        while b - a > 1e-12:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - w * (b - a)
                fc = rss(c)
            else:
                a, c, fc = c, d, fd
                d = a + w * (b - a)
                fd = rss(d)
        return 0.5 * (a + b)

    @pytest.mark.parametrize("field_class, seed", [("gaussian", s) for s in range(12)]
                             + [("bessel", s) for s in range(100, 105)])
    def test_root_is_the_least_rss_within_a_few_evaluations(self, field_class, seed):
        if field_class == "gaussian":
            r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed)
        else:
            r, t, y = TestFieldFitUnits._bessel_sample(seed)
        fit = fit_field_nls(r, t, y, field_class=field_class)
        assert abs(fit.nu - math.exp(self._golden_log_nu(r, t, y, field_class))) <= 1e-8
        assert fit.n_iter <= 49 + 14

    @staticmethod
    def _best_cell(r, t, y):
        """The scan's log nu grid and the index of its least rss."""
        half = estimation.SCAN_HALF_WIDTH
        grid = estimation._scan_centre(r, t) + np.linspace(-half, half, 49)
        rows = estimation._gaussian_model(r, t, np.exp(grid)[:, None])
        res = [y - (g @ y) / (g @ g) * g for g in rows]
        return grid, int(np.argmin([float(e @ e) for e in res]))

    def test_slope_without_a_sign_change_is_fit_error(self, monkeypatch):
        # a bump in log nu just below the best cell's lower end, far from the
        # least rss, turns the rss up there: both ends of the cell have a rising rss
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        grid, i = self._best_cell(r, t, y)
        bottom = grid[i - 1] - 0.05

        def bumped(r, t, nu):
            log_nu = np.log(nu)
            bump = 0.2 * np.exp(-0.5 * ((log_nu - bottom) / 0.05) ** 2)
            return estimation._gaussian_model(r, t, np.exp(log_nu + bump))

        monkeypatch.setitem(estimation._MODELS, "gaussian", bumped)
        with pytest.raises(FitError) as err:
            fit_field_nls(r, t, y)
        assert str(err.value) == ("gaussian field fit: the rss slope does not change sign across "
                                  f"the best scan cell, nu = {math.exp(grid[i - 1]):.6e} to "
                                  f"{math.exp(grid[i + 1]):.6e}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_inf_end_row_counts_as_a_rising_rss(self, monkeypatch):
        r, t, y = simulate_gaussian_field_sample(1.0, 1.0, 300, (0.5, 1.0, 2.0), 0.001, seed=0)
        base = fit_field_nls(r, t, y)
        grid, i = self._best_cell(r, t, y)
        cut, inf_rows = math.exp(grid[i - 1] + 0.1), []

        def overflowing(r, t, nu):
            g = np.where(nu < cut, math.inf, estimation._gaussian_model(r, t, nu))
            inf_rows.extend(np.isinf(g).all(axis=-1).reshape(-1).tolist())
            return g

        monkeypatch.setitem(estimation._MODELS, "gaussian", overflowing)
        fit = fit_field_nls(r, t, y)
        assert sum(inf_rows[:49]) == i  # every scan row up to the cell's lower end
        assert abs(fit.nu - base.nu) <= 1e-9 and fit.n_iter <= 49 + 14


class TestKummerSelection:
    @pytest.mark.parametrize("noise, lr_floor", [(1e-4, 4000.0), (1e-3, 3000.0)])
    def test_kummer_data_selects_kummer(self, noise, lr_floor):
        from plumefront.fields import FieldParams, KummerField

        field = KummerField([(1.0, 0)], FieldParams(nu=1.0, q=1.0))
        rng = np.random.default_rng(0)
        t = rng.choice([0.5, 1.0, 2.0], size=300)
        r = rng.uniform(0.0, 0.5, size=300)
        clean = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
        sel = select_profile_model(r, clean + noise * rng.standard_normal(300), t)
        assert sel.model == "kummer"
        assert set(sel.params) == {"nu", "c0"}
        assert sel.params["nu"] == pytest.approx(1.0, abs=10 * noise)
        assert sel.params["c0"] == pytest.approx(1.0, abs=10 * noise)
        assert sel.lr_stat > lr_floor

    def test_singular_kummer_fit_is_no_kummer_fit(self, monkeypatch):
        from plumefront.fields import FieldParams, KummerField

        field = KummerField([(1.0, 0)], FieldParams(nu=1.0, q=1.0))
        rng = np.random.default_rng(0)
        t = rng.choice([0.5, 1.0, 2.0], size=300)
        r = rng.uniform(0.0, 0.5, size=300)
        y = np.array([field.value(float(a), float(b)) for a, b in zip(r, t)])
        y += 1e-4 * rng.standard_normal(300)
        real, calls = np.linalg.inv, []

        def singular_after_the_gaussian_fit(a):
            calls.append(a)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a)

        monkeypatch.setattr(np.linalg, "inv", singular_after_the_gaussian_fit)
        sel = select_profile_model(r, y, t)
        assert len(calls) == 2
        assert sel.model == "gaussian" and sel.lr_stat is None
