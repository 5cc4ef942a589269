"""The prefix-sum local-linear kernel against the dense fit it replaced, the
vectorised bootstrap crossings against the per-curve rule, the chunked
bootstrap draws against one draw per resample, the gate's endpoint draws
against the multinomial counts of drawing every row, and the lattice CV
scores against dense direct sums."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from plumefront import estimation
from plumefront.estimation import (
    N_BINS,
    _bin_data,
    _boundaries_from_curves,
    _bootstrap_curves,
    _loclin_curve,
    _loclin_solve,
    _loclin_sums,
    _resample_bins,
    cross_validated_bandwidth,
)
from plumefront.montecarlo import STANDARD_DGPS, generate_dgp


def _epanechnikov(u):
    out = 1.0 - u * u
    out[out < 0] = 0.0
    return 0.75 * out


def _dense_loclin_curve(d, y, grid, h):
    """The dense O(n x grid) fit the kernel replaced, kept as an oracle."""
    m = np.empty(grid.size)
    chunk = max(1, int(2e6 / max(d.size, 1)))
    for start in range(0, grid.size, chunk):
        g = grid[start : start + chunk, None]
        u = (d[None, :] - g) / h
        w = _epanechnikov(u)
        du = d[None, :] - g
        s0 = w.sum(axis=1)
        s1 = (w * du).sum(axis=1)
        s2 = (w * du * du).sum(axis=1)
        t0 = w @ y
        t1 = (w * du) @ y
        denom = s0 * s2 - s1 * s1
        block = np.where(
            denom > 1e-300,
            (s2 * t0 - s1 * t1) / np.where(denom > 1e-300, denom, 1.0),
            np.where(s0 > 0, t0 / np.where(s0 > 0, s0, 1.0), np.nan),
        )
        m[start : start + chunk] = block
    # A grid point with an empty window inherits its nearest neighbour's value.
    bad = np.isnan(m)
    if bad.any():
        good = np.nonzero(~bad)[0]
        for i in np.nonzero(bad)[0]:
            m[i] = m[good[np.argmin(np.abs(good - i))]]
    return m


def _crossing_from_curve(grid, m_hat, p):
    """The per-curve crossing rule the vectorised one replaced."""
    i_peak = int(np.argmax(m_hat))
    thr = p * m_hat[0]
    after = m_hat[i_peak:]
    crossed = np.nonzero(after <= thr)[0]
    if crossed.size:
        return float(grid[i_peak + crossed[0]])
    interior = i_peak > max(2, int(0.02 * m_hat.size))
    if interior:
        floor = float(after.min())
        peak = float(m_hat[i_peak])
        thr2 = floor + p * (peak - floor)
        crossed = np.nonzero(after <= thr2)[0]
        if crossed.size:
            return float(grid[i_peak + crossed[0]])
    return None


def _gap_sample(seed):
    """300 points on [0, 30] and 300 on [70, 100], h = 3, a 512-point grid;
    with each grid point's window (points strictly inside), their count and
    the conditioning S0 S2 / (S0 S2 - S1^2) of the window (1 below two
    points)."""
    rng = np.random.default_rng(seed)
    d = np.concatenate([rng.uniform(0.0, 30.0, 300), rng.uniform(70.0, 100.0, 300)])
    y = 1.0 + 0.01 * d + 0.1 * rng.standard_normal(600)
    h = 3.0
    grid = np.linspace(d.min(), d.max(), 512)
    inside = np.abs(d[None, :] - grid[:, None]) < h
    count = inside.sum(axis=1)
    du = d[None, :] - grid[:, None]
    w = _epanechnikov(du / h)
    s0, s1, s2 = w.sum(axis=1), (w * du).sum(axis=1), (w * du * du).sum(axis=1)
    cond = s0 * s2 / np.where(count >= 2, s0 * s2 - s1 * s1, 1.0)
    return d, y, h, grid, inside, count, cond


def _max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


class TestKernelAgainstDenseFit:
    @pytest.mark.parametrize("dgp", sorted(STANDARD_DGPS))
    def test_standard_dgps(self, dgp):
        d, y = generate_dgp(STANDARD_DGPS[dgp], 5000, seed=11)
        h_cv = cross_validated_bandwidth(d, y)
        grid = np.linspace(d.min(), d.max(), 512)
        for h in (h_cv, 0.7 * h_cv, h_cv / 4.0, 4.0 * h_cv):
            fit = _loclin_curve(d, y, grid, h)
            assert _max_rel(fit, _dense_loclin_curve(d, y, grid, h)) <= 1e-10

    @pytest.mark.parametrize("h", [0.5, 2.0, 6.0])
    def test_offset_distances(self, h):
        # distances far from zero: prefix sums centred on the whole range
        # would lose digits here.  Outcomes stay away from zero so that a
        # relative error is defined at every grid point.
        rng = np.random.default_rng(0)
        d = rng.uniform(1000.0, 1100.0, 5000)
        y = 2.0 + np.sin(d / 7.0) + 0.1 * rng.standard_normal(5000)
        grid = np.linspace(d.min(), d.max(), 512)
        assert _max_rel(_loclin_curve(d, y, grid, h), _dense_loclin_curve(d, y, grid, h)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_gap_sample_branches(self, seed):
        """Empty windows, one-point windows and sparse windows at a gap.

        The branch follows the integer window count.  In the dense oracle a
        one-point window has S0 S2 - S1^2 = 0 up to rounding, and that
        rounding sometimes passes its 1e-300 test and yields a meaningless
        local-linear value; there the oracle's local-constant value (the
        point's own outcome) is the reference.  Elsewhere the values agree
        to the 1e-12 relative error of the sums times the conditioning
        S0 S2 / (S0 S2 - S1^2) of the window.
        """
        d, y, h, grid, inside, count, cond = _gap_sample(seed)
        assert (count == 0).sum() >= 150 and (count == 1).any()

        order = np.argsort(d)
        sums = _loclin_sums(d[order], np.ones(d.size), y[order], grid, h)
        assert np.array_equal(sums[0], count)
        m_raw, _, linear = _loclin_solve(sums)
        assert np.array_equal(linear, count >= 2)
        assert np.array_equal(np.isnan(m_raw), count == 0)

        m = _loclin_curve(d, y, grid, h)
        oracle = _dense_loclin_curve(d, y, grid, h)
        one = np.flatnonzero(count == 1)
        np.testing.assert_allclose(m[one], [y[inside[i]][0] for i in one], rtol=1e-9)
        many = count >= 2
        rel = np.abs(m[many] - oracle[many]) / np.abs(oracle[many])
        assert np.all(rel <= 1e-10 * cond[many])
        # an empty window takes the value of its nearest non-empty neighbour
        good = np.flatnonzero(count > 0)
        for i in np.flatnonzero(count == 0):
            assert m[i] == m[good[np.argmin(np.abs(good - i))]]

    @pytest.mark.parametrize("seed", range(7))
    def test_ill_conditioned_gap_windows_are_summed_directly(self, seed):
        """Windows beside the gap of two to five points agree with the dense
        oracle to 1e-14 times their conditioning, and windows of six or more
        points and conditioning of 20 or more to 3e-14 times it.  Direct
        sums read at most 6e-16 and 1.2e-14 times it here (the latter is the
        oracle's own rounding, at a fitted value near 0); from shifted prefix
        sums the same windows read 1.4e-13 to 3.2e-11 and 3.8e-14 to 1.5e-13
        times it."""
        d, y, h, grid, _, count, cond = _gap_sample(seed)
        few = (count >= 2) & (count <= 5)
        wide = (count >= 6) & (cond >= 20.0)
        assert few.any() and wide.any()
        m = _loclin_curve(d, y, grid, h)
        oracle = _dense_loclin_curve(d, y, grid, h)
        for sel, bound in ((few, 1e-14), (wide, 3e-14)):
            rel = np.abs(m[sel] - oracle[sel]) / np.abs(oracle[sel])
            assert np.all(rel <= bound * cond[sel])

    def test_batch_matches_single_rows(self):
        d, y = generate_dgp(STANDARD_DGPS["hump"], 3000, seed=5)
        centers, counts, ysum, _, _ = _bin_data(d, y)
        rng = np.random.default_rng(1)
        w = rng.poisson(counts, size=(3, counts.size)).astype(float)
        wy = w * (ysum / np.maximum(counts, 1.0))
        grid = np.linspace(d.min(), d.max(), 300)
        batch = _loclin_sums(centers, w, wy, grid, 4.0)
        for r in range(3):
            single = _loclin_sums(centers, w[r], wy[r], grid, 4.0)
            assert np.array_equal(batch[0, r], single[0])
            np.testing.assert_allclose(batch[1:, r], single[1:], rtol=1e-10, atol=1e-10)


class TestBoundariesFromCurves:
    @staticmethod
    def _per_curve(grid, curves, p):
        out = np.full(curves.shape[0], np.nan)
        for b, m in enumerate(curves):
            cand = None if np.isnan(m).any() else _crossing_from_curve(grid, m, p)
            if cand is not None:
                out[b] = cand
        return out

    def test_matches_per_curve_rule(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 100.0, 512)
        decaying = 0.8 * np.exp(-0.05 * grid) + 0.02 * rng.standard_normal((40, 512))
        hump = 0.5 + 0.2 * np.exp(-((grid - 20.0) ** 2) / 200.0)
        hump = hump + 0.005 * rng.standard_normal((40, 512))
        rising = 0.1 + 0.004 * grid + 0.01 * rng.standard_normal((20, 512))
        # peak at or near the edge (not interior) and never decays that far
        no_crossing = np.vstack([
            np.tile(1.0 - 0.001 * grid, (3, 1)),
            np.tile(1.0 - 0.001 * np.abs(grid - grid[5]), (2, 1)),
        ])
        with_nan = decaying[:10].copy()
        with_nan[np.arange(10), rng.integers(0, 512, 10)] = np.nan
        curves = np.vstack([decaying, hump, rising, no_crossing, with_nan])
        for p in (0.1, 0.5):
            got = _boundaries_from_curves(grid, curves, p)
            assert np.array_equal(got, self._per_curve(grid, curves, p), equal_nan=True)
        got = _boundaries_from_curves(grid, curves, 0.1)
        assert not np.isnan(got[:80]).any()
        assert np.all(got[40:80] > 20.0)  # hump rows cross past the peak, by the amplitude rule
        assert np.isnan(got[100:]).all()  # no crossing, or a NaN in the curve


class TestChunkedDraws:
    @staticmethod
    def _per_resample(ids, y, n_bins, n_boot, rng):
        counts = np.empty((n_boot, n_bins))
        ysum = np.empty((n_boot, n_bins))
        for b in range(n_boot):
            take = rng.integers(0, ids.size, size=ids.size)
            counts[b] = np.bincount(ids[take], minlength=n_bins)
            ysum[b] = np.bincount(ids[take], weights=y[take], minlength=n_bins)
        return counts, ysum

    @pytest.mark.parametrize("chunk, n, n_boot", [(None, 5000, 200), (1000, 301, 10), (50, 301, 3)])
    def test_bit_identical_to_one_draw_per_resample(self, monkeypatch, chunk, n, n_boot):
        if chunk is not None:
            monkeypatch.setattr(estimation, "_DRAW_CHUNK", chunk)
        rows = max(1, estimation._DRAW_CHUNK // n)
        assert n_boot % rows or rows == 1  # a short last chunk, or one row per call
        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], n, seed=2)
        _, _, _, _, ids = _bin_data(d, y)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        counts, ysum = _resample_bins(ids, y, n_boot, rng_a)
        ref_counts, ref_ysum = self._per_resample(ids, y, 400, n_boot, rng_b)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(ysum, ref_ysum)
        # the generator continues from the same state (the interval draws next)
        assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


def _samples():
    """The four standard DGPs at n = 5000 and a sample far from distance 0."""
    for dgp in sorted(STANDARD_DGPS):
        yield generate_dgp(STANDARD_DGPS[dgp], 5000, seed=4)
    rng = np.random.default_rng(8)
    d = rng.uniform(1000.0, 1100.0, 3000)
    yield d, 2.0 + np.sin(d / 7.0) + 0.1 * rng.standard_normal(d.size)


def _endpoint_bins(d, h):
    """The bins the gate's two endpoint windows read, and each bin's share
    of the observations."""
    centers, counts, _, _, ids = _bin_data(d, d)
    used = (centers > d.min() - h) & (centers < d.min() + h)
    used |= (centers > d.max() - h) & (centers < d.max() + h)
    return used, counts / d.size, ids


def _multinomial_z(counts, p, n):
    """Largest |z| of the sample means and variances of resampled counts
    (rows) against the multinomial n p and n p (1 - p), p the cell shares;
    the variance's standard error uses the binomial fourth central moment."""
    b = counts.shape[0]
    mean, var = n * p, n * p * (1.0 - p)
    mu4 = var * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p))
    z_mean = (counts.mean(axis=0) - mean) / np.sqrt(var / b)
    se_var = np.sqrt(mu4 / b - var**2 * (b - 3.0) / (b * (b - 1.0)))
    z_var = (counts.var(axis=0, ddof=1) - var) / se_var
    return float(np.max(np.abs(z_mean))), float(np.max(np.abs(z_var)))


class _MeanCountGenerator:
    """A generator whose binomial draws are fixed at their rounded mean: the
    negative control of the gate's per-resample count."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def binomial(self, n, p, size):
        return np.full(size, round(n * p))

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


class TestGateDraws:
    """The gate refits only the two range endpoints, so it draws only the
    observations in the bins their windows read: a Binomial(n, m/n) count
    per resample, then that many uniform draws from those m observations.
    The used bins then have the counts of binning all n draws."""

    def _used_counts(self, rng, n_boot=4000):
        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 5000, seed=4)
        h = estimation.cross_validated_bandwidth(d, y)
        used, p, ids = _endpoint_bins(d, h)
        counts, _ = _resample_bins(ids, y, n_boot, rng, used)
        assert not counts[:, ~used].any()
        # each used bin, each endpoint's bins together, and all of them
        left = used & (np.arange(N_BINS) < N_BINS // 2)
        cells = np.column_stack([counts[:, used], counts[:, left].sum(axis=1),
                                 counts[:, used & ~left].sum(axis=1), counts[:, used].sum(axis=1)])
        shares = np.concatenate([p[used], [p[left].sum(), p[used & ~left].sum(), p[used].sum()]])
        return cells, shares, d.size

    def test_used_bin_counts_are_multinomial(self):
        cells, shares, n = self._used_counts(np.random.default_rng(12))
        z_mean, z_var = _multinomial_z(cells, shares, n)
        assert z_mean <= 5.0 and z_var <= 5.0

    def test_fixed_count_fails_the_variance_check(self):
        cells, shares, n = self._used_counts(_MeanCountGenerator(12))
        z_mean, z_var = _multinomial_z(cells, shares, n)
        assert z_mean <= 5.0
        assert z_var > 5.0

    def test_decline_statistic_matches_full_draws(self):
        for d, y in _samples():
            h = estimation.cross_validated_bandwidth(d, y)
            ends = np.array([d.min(), d.max()])
            gate = _bootstrap_curves(d, y, h, ends, 2000, np.random.default_rng(6))
            centers, _, _, _, ids = _bin_data(d, y)
            counts, ysum = _resample_bins(ids, y, 2000, np.random.default_rng(7))
            full = _loclin_solve(_loclin_sums(centers, counts, ysum, ends, h))[0]
            assert ks_2samp(gate[:, 0] - gate[:, 1], full[:, 0] - full[:, 1]).pvalue > 1e-3

    def test_one_seed_gives_bitwise_equal_curves_and_stream(self):
        for d, y in _samples():
            h = estimation.rule_of_thumb_bandwidth(d)
            ends = np.array([d.min(), d.max()])
            rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
            gate = _bootstrap_curves(d, y, h, ends, 200, rng_a)
            assert np.array_equal(gate, _bootstrap_curves(d, y, h, ends, 200, rng_b), equal_nan=True)
            # the interval continues the same stream after the gate
            assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)

    def test_mask_of_every_bin_is_the_full_draw(self):
        d, y = generate_dgp(STANDARD_DGPS["hump"], 3000, seed=2)
        _, _, _, _, ids = _bin_data(d, y)
        every = np.ones(N_BINS, dtype=bool)
        a = _resample_bins(ids, y, 30, np.random.default_rng(3), every)
        b = _resample_bins(ids, y, 30, np.random.default_rng(3))
        assert np.array_equal(a, b)


def _dense_cv_scores(d, y, grid_h):
    """LOO CV score of the 400-bin sample by direct sums over every pair of
    bin centres, O(bins^2) per bandwidth: the oracle of the lattice scores."""
    centers, counts, ysum, _, ids = _bin_data(d, y)
    yssq = np.bincount(ids, weights=y * y, minlength=N_BINS)
    occupied = counts > 0
    du = centers[None, :] - centers[:, None]  # offset of bin i from centre j
    scores = []
    for h in grid_h:
        k = _epanechnikov(du / h)
        count = (k > 0) @ occupied.astype(float)
        s0, s1, s2 = k @ counts, (k * du) @ counts, (k * du * du) @ counts
        t0, t1 = k @ ysum, (k * du) @ ysum
        denom = s0 * s2 - s1 * s1
        with np.errstate(divide="ignore", invalid="ignore"):
            m = (s2 * t0 - s1 * t1) / denom
            one_minus = 1.0 - 0.75 * s2 / denom
        ok = (count >= 2) & (denom > 1e-10 * s0 * s2) & (one_minus > 1e-8)
        if not ok[occupied].all():
            scores.append(np.inf)
            continue
        rss = yssq - 2.0 * m * ysum + counts * m * m
        scores.append(float(np.sum(rss[occupied] / one_minus[occupied] ** 2)))
    return np.array(scores)


class TestLatticeCV:
    """The CV scores of all bandwidths from one lattice pass against the
    dense direct-sum scores, and the bandwidth each picks."""

    def test_scores_and_choice_match_dense_oracle(self):
        for d, y in _samples():
            h0 = estimation.rule_of_thumb_bandwidth(d)
            grid_h = np.geomspace(h0 / 4.0, h0 * 4.0, 10)
            _, counts, ysum, width, ids = _bin_data(d, y)
            yssq = np.bincount(ids, weights=y * y, minlength=N_BINS)
            # one bandwidth narrower than a bin: every window holds one bin
            hs = np.append(grid_h, 0.6 * width)
            got = estimation._cv_scores(width, counts, ysum, yssq, hs)
            oracle = _dense_cv_scores(d, y, hs)
            assert np.isinf(got[-1]) and np.isinf(oracle[-1])
            np.testing.assert_allclose(got, oracle, rtol=1e-12)
            assert cross_validated_bandwidth(d, y) == grid_h[np.argmin(oracle[:-1])]

    @pytest.mark.parametrize("dgp", sorted(STANDARD_DGPS))
    def test_all_bandwidths_share_one_window_sums_call(self, monkeypatch, dgp):
        # the lattice takes its sums from the one kernel, all ten bandwidths at once
        d, y = generate_dgp(STANDARD_DGPS[dgp], 5000, seed=9)
        calls = []
        real = estimation._window_sums
        monkeypatch.setattr(estimation, "_window_sums", lambda *a: calls.append(a) or real(*a))
        cross_validated_bandwidth(d, y)
        assert len(calls) == 1
