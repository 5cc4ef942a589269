"""Simulation harness: DGP definitions, determinism, summary accounting.

Campaign-scale performance claims live in the acceptance suite; this module
keeps replication counts small and checks the machinery itself.
"""

import itertools
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from plumefront import montecarlo
from plumefront.errors import DomainError, FitError
from plumefront.estimation import fit_loglinear
from plumefront.montecarlo import (
    STANDARD_DGPS,
    DGPSpec,
    generate_dgp,
    mean_function,
    parameter_recovery_campaign,
    run_campaign,
)


class TestDgpDefinitions:
    def test_strong_decay_at_source(self):
        assert mean_function(STANDARD_DGPS["strong_decay"], [0.0])[0] == pytest.approx(0.8)

    def test_flat_level(self):
        assert np.all(mean_function(STANDARD_DGPS["flat"], np.linspace(0, 100, 11)) == 0.5)

    def test_hump_peak(self):
        assert mean_function(STANDARD_DGPS["hump"], [20.0])[0] == pytest.approx(0.7)

    def test_true_boundaries(self):
        assert STANDARD_DGPS["strong_decay"].true_boundary == pytest.approx(46.0517, abs=1e-3)
        assert STANDARD_DGPS["weak_decay"].true_boundary == pytest.approx(460.517, abs=1e-2)
        assert STANDARD_DGPS["flat"].true_boundary is None

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DGPSpec(id="flat", params={"level": 0.5}, noise_sd=0.0, true_boundary=None, d_max=10.0)
        with pytest.raises(DomainError):
            DGPSpec(id="flat", params={"level": 0.5}, noise_sd=0.1, true_boundary=3.0, d_max=10.0)


class TestGenerateDgp:
    def test_deterministic(self):
        spec = STANDARD_DGPS["strong_decay"]
        d1, y1 = generate_dgp(spec, 500, seed=42)
        d2, y2 = generate_dgp(spec, 500, seed=42)
        assert np.array_equal(d1, d2) and np.array_equal(y1, y2)

    def test_different_seeds_differ(self):
        spec = STANDARD_DGPS["flat"]
        _, y1 = generate_dgp(spec, 100, seed=1)
        _, y2 = generate_dgp(spec, 100, seed=2)
        assert not np.array_equal(y1, y2)

    def test_distances_in_range(self):
        spec = STANDARD_DGPS["weak_decay"]
        d, _ = generate_dgp(spec, 2000, seed=0)
        assert d.min() > 0.0 and d.max() <= spec.d_max

    def test_noise_level(self):
        spec = STANDARD_DGPS["flat"]
        _, y = generate_dgp(spec, 50000, seed=3)
        assert y.std() == pytest.approx(spec.noise_sd, rel=0.05)

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_size_rejected(self, n):
        with pytest.raises(DomainError, match="n must be positive"):
            generate_dgp(STANDARD_DGPS["flat"], n, seed=0)


class TestRunCampaign:
    def test_deterministic_summaries(self):
        specs = [STANDARD_DGPS["flat"]]
        a = run_campaign(specs, n_reps=10, n_obs=300, base_seed=5)
        b = run_campaign(specs, n_reps=10, n_obs=300, base_seed=5)
        assert a == b

    def test_rmse_decomposition(self):
        # rmse^2 = bias^2 + variance over the detected replications
        specs = [STANDARD_DGPS["strong_decay"]]
        summaries, records = run_campaign(
            specs, n_reps=12, n_obs=800, methods=("parametric",), base_seed=0,
            keep_replications=True,
        )
        s = summaries[0]
        estimates = np.array([r.estimate for r in records if r.estimate is not None])
        var = float(np.mean((estimates - estimates.mean()) ** 2))
        assert s.rmse**2 == pytest.approx(s.bias**2 + var, rel=1e-10)
        assert s.rmse >= abs(s.bias)

    def test_flat_records_rates_not_errors(self):
        summaries = run_campaign(
            [STANDARD_DGPS["flat"]], n_reps=10, n_obs=300, methods=("parametric",), base_seed=1
        )
        s = summaries[0]
        assert s.bias is None and s.rmse is None
        assert 0.0 <= s.false_positive_rate <= 1.0
        assert s.correct_rejection_rate == pytest.approx(1.0 - s.false_positive_rate)

    def test_flat_kappa_centered_on_zero(self):
        # mean kappa over replications within 3 standard errors of zero
        spec = STANDARD_DGPS["flat"]
        kappas = []
        for rep in range(60):
            d, y = generate_dgp(spec, 2000, seed=100 + rep)
            kappas.append(fit_loglinear(d, np.maximum(y, 1e-6)).kappa_s)
        kappas = np.array(kappas)
        se_mean = kappas.std(ddof=1) / math.sqrt(len(kappas))
        assert abs(kappas.mean()) < 3.0 * se_mean

    def test_cv_failure_is_a_failed_replication(self, monkeypatch):
        # two tight clusters: no CV bandwidth fits, so every replication fails
        def clusters(spec, n, seed):
            rng = np.random.default_rng(seed)
            d = np.concatenate([rng.uniform(0, 0.01, n // 2), rng.uniform(100, 100.01, n // 2)])
            return d, 1.0 + 0.1 * rng.standard_normal(d.size)

        monkeypatch.setattr(montecarlo, "generate_dgp", clusters)
        (summary,) = run_campaign([STANDARD_DGPS["strong_decay"]], n_reps=10, n_obs=200,
                                  methods=("nonparametric",))
        assert summary.n_failed == 10 and summary.n_detected == 0

    def test_interval_follows_the_gate_on_one_generator(self):
        from plumefront.estimation import bootstrap_boundary_interval, detect_boundary
        from plumefront.estimation import nonparametric_fit

        spec = STANDARD_DGPS["strong_decay"]
        _, records = run_campaign([spec], n_reps=10, n_obs=1000, methods=("nonparametric",),
                                  n_boot=40, keep_replications=True)
        with_ci = [r for r in records if r.ci_lo is not None]
        assert with_ci and all(r.estimate is not None for r in with_ci)
        for r in with_ci[:3]:
            d, y = generate_dgp(spec, 1000, r.seed)
            fit = nonparametric_fit(d, y, bandwidth="auto-cv", n_grid=512)
            rng = np.random.default_rng(r.seed)
            assert detect_boundary(fit, 0.1, 40, seed=rng) == (r.estimate, True)
            assert bootstrap_boundary_interval(fit, 0.1, 40, seed=rng) == (r.ci_lo, r.ci_hi)

    def test_method_validation(self):
        with pytest.raises(DomainError):
            run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=100, methods=("magic",))
        with pytest.raises(DomainError):
            run_campaign([STANDARD_DGPS["flat"]], n_reps=5, n_obs=100)


# where a campaign cannot fork workers with one OpenBLAS thread, it runs in process
forks_workers = pytest.mark.skipif(
    montecarlo._blas_thread_calls() is None
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork or no OpenBLAS thread setter: campaigns run in process")


def _logging_pids(monkeypatch, path):
    """Make every replication append the pid of its process to `path`."""
    generate = montecarlo.generate_dgp

    def logged(spec, n, seed):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return generate(spec, n, seed)

    monkeypatch.setattr(montecarlo, "generate_dgp", logged)


def _campaign_in_a_daemon():
    assert multiprocessing.current_process().daemon
    return run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=300, n_boot=20,
                        keep_replications=True, workers=2)


class TestWorkers:
    """Replications in forked worker processes give the in-process results."""

    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch):
        detect = montecarlo._nonparametric_detect

        def fail_at_seed_3(d, y, fraction, n_boot, n_grid, seed):
            if seed == 3:
                raise FitError("replication failed")
            return detect(d, y, fraction, n_boot, n_grid, seed)

        monkeypatch.setattr(montecarlo, "_nonparametric_detect", fail_at_seed_3)
        runs = [run_campaign(list(STANDARD_DGPS.values()), n_reps=10, n_obs=400, n_boot=40,
                             keep_replications=True, workers=workers) for workers in (1, 2, 3)]
        summaries, records = runs[0]
        assert [s.n_failed for s in summaries] == [0, 1] * 4
        assert [(r.dgp_id, r.method, r.rep) for r in records] == [
            (dgp, method, rep) for dgp in STANDARD_DGPS
            for method in ("parametric", "nonparametric") for rep in range(10)]
        for run in runs[1:]:
            assert run == runs[0]
            assert repr(run) == repr(runs[0])  # float reprs round-trip: bitwise equal

    def test_blas_sums_do_not_depend_on_the_worker_count(self):
        # above 10,000 values, a multi-threaded OpenBLAS splits the rss dot product
        # of fit_loglinear across threads; the campaign holds it at one on every path
        runs = [run_campaign(list(STANDARD_DGPS.values()), n_reps=10, n_obs=12_000,
                             methods=("parametric",), keep_replications=True, workers=workers)
                for workers in (1, 2)]
        assert repr(runs[1]) == repr(runs[0])

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True])
    def test_bad_worker_count_raises_before_any_replication(self, monkeypatch, workers):
        def unreachable(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "generate_dgp", unreachable)
        with pytest.raises(DomainError, match="workers must be an integer >= 1"):
            run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=300, workers=workers)

    @forks_workers
    def test_workers_run_in_other_processes_and_exit(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids"
        _logging_pids(monkeypatch, pids)
        run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=300, n_boot=20, workers=2)
        assert multiprocessing.active_children() == []
        seen = {int(pid) for pid in pids.read_text().split()}
        assert 1 <= len(seen) <= 2 and os.getpid() not in seen  # a fast worker may run all

    def test_without_a_blas_thread_setter_the_campaign_runs_in_process(self, monkeypatch,
                                                                      tmp_path):
        pids = tmp_path / "pids"
        _logging_pids(monkeypatch, pids)
        kwargs = dict(n_reps=10, n_obs=300, n_boot=20, keep_replications=True)
        serial = run_campaign([STANDARD_DGPS["flat"]], workers=1, **kwargs)
        monkeypatch.setattr(montecarlo, "_blas_thread_calls", lambda: None)
        assert run_campaign([STANDARD_DGPS["flat"]], workers=2, **kwargs) == serial
        assert {int(pid) for pid in pids.read_text().split()} == {os.getpid()}

    def test_daemonic_caller_runs_the_campaign_in_process(self):
        # a daemonic process may not have children: a Pool worker's campaign runs in it
        with multiprocessing.get_context("fork").Pool(1) as pool:
            run = pool.apply(_campaign_in_a_daemon)
            pool.close()
            pool.join()
        assert multiprocessing.active_children() == []
        assert repr(run) == repr(run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=300,
                                              n_boot=20, keep_replications=True, workers=1))

    @forks_workers
    def test_child_interpreter_leaves_no_process_behind(self):
        # one write(2) per pid line, so the workers' lines do not interleave
        script = ("import os\n"
                  "def log_pid():\n"
                  "    os.write(1, f'{os.getpid()}\\n'.encode())\n"
                  "log_pid()\n"
                  "from plumefront import montecarlo\n"
                  "generate = montecarlo.generate_dgp\n"
                  "def logged(spec, n, seed):\n"
                  "    log_pid()\n"
                  "    return generate(spec, n, seed)\n"
                  "montecarlo.generate_dgp = logged\n"
                  "montecarlo.run_campaign([montecarlo.STANDARD_DGPS['flat']], n_reps=10, "
                  "n_obs=300, n_boot=20, workers=2)\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        # a new session: every process the child starts shares its process group
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, start_new_session=True)
        assert proc.returncode == 0, proc.stderr
        child, *workers = map(int, proc.stdout.split())
        assert 1 <= len(set(workers)) <= 2 and child not in workers
        with pytest.raises(ProcessLookupError):
            os.killpg(child, 0)


class TestParametricCoverageConvergence:
    def test_coverage_approaches_nominal_with_n(self):
        """Delta-method intervals on a correctly specified log-linear DGP.

        The strong-decay mean with multiplicative log-normal noise makes the
        log-linear model exact, so coverage should close in on 95% as n
        grows (or stay within Monte Carlo noise of it).
        """
        rng_master = np.random.default_rng(0)
        truth = math.log(10.0) / 0.05

        def coverage(n_obs, reps=120):
            hits = 0
            for rep in range(reps):
                rng = np.random.default_rng(1000 + rep)
                d = 100.0 * (1.0 - rng.random(n_obs))
                y = np.exp(math.log(0.8) - 0.05 * d + 0.25 * rng.standard_normal(n_obs))
                fit = fit_loglinear(d, y)
                lo, hi = fit.d_star_ci
                hits += lo <= truth <= hi
            return hits / reps

        cov_small, cov_large = coverage(1000), coverage(5000)
        mc_noise = 3.0 * math.sqrt(0.95 * 0.05 / 120)
        assert abs(cov_large - 0.95) <= max(abs(cov_small - 0.95), mc_noise) + 1e-9


class TestParameterRecovery:
    def test_noiseless_is_exact(self):
        rs = parameter_recovery_campaign(n_reps=10, n_obs=300, noise_sd=0.0, seed=0)
        assert rs.rmse_nu < 1e-8 and rs.rmse_q < 1e-8
        assert abs(rs.bias_nu) < 1e-8 and abs(rs.bias_q) < 1e-8

    def test_noisy_summary_fields(self):
        rs = parameter_recovery_campaign(n_reps=30, seed=1)
        assert rs.rmse_nu > 0 and rs.rmse_q > 0
        assert rs.n_failed == 0
        assert len(rs.qq_table) == 30
        assert -1.0 <= rs.qq_normality_corr_nu <= 1.0
        levels = (np.arange(30) + 0.5) / 30
        normal = [row[0] for row in rs.qq_table]
        np.testing.assert_allclose(normal, ndtri(levels), rtol=1e-12, atol=0)

    def test_too_few_replications_rejected(self):
        with pytest.raises(DomainError, match="n_reps must be >= 10, got 9"):
            parameter_recovery_campaign(n_reps=9)

    def test_estimates_approximately_normal(self):
        rs = parameter_recovery_campaign(n_reps=60, seed=2)
        assert rs.qq_normality_corr_nu > 0.97
        assert rs.qq_normality_corr_q > 0.97


class TestFailedReplications:
    def test_bad_arguments_raise_before_any_replication(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "generate_dgp", unreachable)
        for kwargs in ({"n_boot": 0}, {"fraction": 1.5}, {"n_grid": 100}, {"methods": ()},
                       {"methods": ("parametric", "parametric")}):
            with pytest.raises(DomainError):
                run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=300, **kwargs)

    def test_flat_rates_skip_failed_replications(self, monkeypatch):
        def fail(*args):
            raise DomainError("replication failed")

        monkeypatch.setattr(montecarlo, "_parametric_detect", fail)
        monkeypatch.setattr(montecarlo, "_nonparametric_detect", fail)
        for summary in run_campaign([STANDARD_DGPS["flat"]], n_reps=10, n_obs=300):
            assert summary.n_failed == 10
            assert summary.false_positive_rate is None
            assert summary.correct_rejection_rate is None

    @staticmethod
    def _failing_fits(monkeypatch, failing):
        """Make the recovery campaign's fit raise FitError in the replications
        numbered in `failing` (0 is the one at the first seed) and fit the
        others."""
        fit = montecarlo.fit_field_nls
        calls = itertools.count()

        def flaky(*args, **kwargs):
            if next(calls) in failing:
                raise FitError("gaussian field fit failed")
            return fit(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "fit_field_nls", flaky)

    def test_recovery_summary_skips_failed_fits(self, monkeypatch):
        full = parameter_recovery_campaign(n_reps=12, n_obs=100, seed=5)
        self._failing_fits(monkeypatch, {0, 4, 11})
        rs = parameter_recovery_campaign(n_reps=12, n_obs=100, seed=5)
        assert (rs.n_reps, rs.n_failed, len(rs.qq_table)) == (12, 3, 9)
        kept = [rep for rep in range(12) if rep not in {0, 4, 11}]
        np.testing.assert_array_equal(rs.estimates_nu, full.estimates_nu[kept])
        np.testing.assert_array_equal(rs.estimates_q, full.estimates_q[kept])
        assert rs.bias_nu == float(full.estimates_nu[kept].mean() - 1.0)

    @pytest.mark.parametrize("n_fitted", [0, 1])
    def test_recovery_with_fewer_than_two_fits_is_domain_error(self, monkeypatch, n_fitted):
        self._failing_fits(monkeypatch, set(range(10 - n_fitted)))
        with pytest.raises(DomainError, match="too few successful replications"):
            parameter_recovery_campaign(n_reps=10, n_obs=100, seed=5)
