"""Special-function accuracy against independent high-precision oracles.

scipy.special serves as the oracle, and mpmath at 40 digits where the error
bounds are checked; the specfun kernels under test call neither.  The
Bessel fit's row is scipy's K0, so it is checked against mpmath only.
"""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_oracle

from plumefront import estimation
from plumefront.errors import DomainError, NumericalError
from plumefront.specfun import (
    SpecFunResult,
    _k01,
    bessel_i,
    bessel_k0,
    bessel_k1,
    gamma_fn,
    kummer_m,
    unit_sphere_area,
)


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_oracle_sweep(self):
        for z in np.linspace(0.5, 50.0, 250):
            assert gamma_fn(float(z)) == pytest.approx(float(sp_oracle.gamma(z)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.5)

    def test_within_2e_15_of_mpmath(self):
        with mp.workdps(40):
            for z in np.linspace(0.5, 50.0, 500):
                z = float(z)
                assert abs(gamma_fn(z) / mp.gamma(z) - 1) <= 2e-15, z
        assert gamma_fn(1.0) == 1.0 and gamma_fn(5.0) == 24.0

    @pytest.mark.parametrize("z", [5e-324, 1e-310, 171.7, 1e300, math.inf])
    def test_inf_where_gamma_overflows(self, z):
        assert gamma_fn(z) == math.inf


class TestKummer:
    def test_exponential_case(self):
        # (1)_n/(1)_n = 1 turns the series into exp
        assert kummer_m(1.0, 1.0, 2.0).value == pytest.approx(math.e**2, rel=1e-12)

    def test_value_at_zero(self):
        for a, b in [(0.3, 0.7), (2.0, 5.0), (1.5, 1.0)]:
            assert kummer_m(a, b, 0.0).value == 1.0

    def test_bessel_composition_oracle(self):
        # frozen from the series oracle: M(1/2, 1, 2) = e * I0(1)
        assert kummer_m(0.5, 1.0, 2.0).value == pytest.approx(3.441523869125335, rel=1e-12)

    def test_series_against_oracle(self):
        for a, b in [(0.5, 1.0), (1.5, 3.0), (2.5, 2.0)]:
            for z in np.linspace(0.0, 30.0, 40):
                expected = float(sp_oracle.hyp1f1(a, b, z))
                assert kummer_m(a, b, float(z)).value == pytest.approx(expected, rel=1e-10)

    def test_exp_identity_m_a_a(self):
        for a in (0.5, 1.0, 3.0):
            for z in np.linspace(0.0, 10.0, 21):
                assert kummer_m(a, a, float(z)).value == pytest.approx(math.exp(z), rel=1e-10)

    def test_large_z_asymptotic_error_is_honest(self):
        res = kummer_m(0.5, 1.0, 50.0)
        truth = float(sp_oracle.hyp1f1(0.5, 1.0, 50.0))
        assert abs(res.value - truth) <= res.est_abs_error

    def test_large_z_asymptotic_error_is_honest_off_the_profile_family(self):
        res = kummer_m(0.7, 1.3, 50.0)
        truth = float(sp_oracle.hyp1f1(0.7, 1.3, 50.0))
        assert abs(res.value - truth) <= res.est_abs_error

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m(1.0, -2.0, 1.0)

    @pytest.mark.parametrize("a,b,z", [(0.5, 1.0, math.nan), (0.5, 1.0, math.inf),
                                       (math.nan, 1.0, 1.0), (0.5, math.inf, 1.0),
                                       (0.7, 1.3, math.nan), (0.7, -math.inf, 1.0)])
    def test_non_finite_rejected(self, a, b, z):
        with pytest.raises(DomainError):
            kummer_m(a, b, z)


def _profile(n, z):
    return kummer_m(n + 0.5, 2.0 * n + 1.0, float(z))


class TestKummerProfile:
    """M(n+1/2, 2n+1, z) through Bessel I, against scipy.special.hyp1f1,
    which is within 1e-14 of mpmath on this family."""

    @settings(max_examples=300)
    @given(st.integers(0, 3), st.floats(0.0, 700.0, exclude_min=True))
    def test_against_scipy(self, n, z):
        expected = float(sp_oracle.hyp1f1(n + 0.5, 2.0 * n + 1.0, z))
        assert _profile(n, z).value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_seam_at_30_and_neighbours(self, n):
        below, at, above = (_profile(n, z).value
                            for z in (np.nextafter(30.0, 0.0), 30.0, np.nextafter(30.0, np.inf)))
        assert below == pytest.approx(at, rel=1e-13, abs=0.0)
        assert above == pytest.approx(at, rel=1e-13, abs=0.0)
        assert at == pytest.approx(float(sp_oracle.hyp1f1(n + 0.5, 2.0 * n + 1.0, 30.0)),
                                   rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,z", [(0, 713.7), (3, 727.5), (0, 1420.0), (1, 1e300),
                                     (30, 820.0)])
    def test_inf_past_overflow(self, n, z):
        assert _profile(n, z) == SpecFunResult(math.inf, math.inf)
        if z < 1e3:  # scipy's series takes very long at huge z
            with np.errstate(over="ignore"):
                assert math.isinf(sp_oracle.hyp1f1(n + 0.5, 2.0 * n + 1.0, z))

    @pytest.mark.parametrize("n,z", [(0, 713.6), (3, 727.4), (30, 700.0)])
    def test_finite_up_to_overflow(self, n, z):
        expected = float(sp_oracle.hyp1f1(n + 0.5, 2.0 * n + 1.0, z))
        assert _profile(n, z).value == pytest.approx(expected, rel=1e-12, abs=0.0)


def _ulps_around(z, n):
    """z and the n floats on either side of it."""
    below, above = [z], [z]
    for _ in range(n):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


class TestKummerFitRow:
    """The Kummer fit's row, M(1/2, 1, z) = e^(z/2) I0(z/2) (DLMF 13.6.9) from
    numpy's I0, against mpmath and the scalar kummer_m.  t = 2^600 and nu =
    2^-602 make 4 nu t = 1, so z = r^2, and keep M(1/2, 1, 700) / t from
    squaring to inf, which would make the row-top test skip the row; the
    values are compared at the z the model forms."""

    T, NU = 2.0 ** 600, 2.0 ** -602

    def _row(self, r):
        r = np.asarray(r, dtype=float)
        t = np.full_like(r, self.T)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            m = estimation._kummer_model(r, t, self.NU) * t  # * 2^600 is exact
        return r * r / (4.0 * self.NU * t), m

    def _seeded_and_seams(self):
        rng = np.random.default_rng(27)
        z = np.concatenate([[0.0, 5e-324, 1e-300], rng.uniform(0.0, 700.0, 300),
                            rng.uniform(10.0, 40.0, 100)])
        # np.i0 switches series at z = 16; the scalar switches regime at z = 30
        seams = _ulps_around(4.0, 6) + _ulps_around(math.sqrt(30.0), 6)
        z, m = self._row(np.concatenate([np.sqrt(z), seams]))
        assert {16.0, 30.0} <= set(z.tolist()) and z.max() < 700.0
        return z, m

    def test_within_2e_15_of_mpmath(self):
        z, m = self._seeded_and_seams()
        with mp.workdps(40):
            for x, got in zip(z.tolist(), m.tolist()):
                assert abs(got / mp.hyp1f1(0.5, 1, x) - 1) <= 2e-15, x

    def test_within_3e_14_of_kummer_m(self):
        z, m = self._seeded_and_seams()
        scalar = np.array([kummer_m(0.5, 1.0, x).value for x in z.tolist()])
        np.testing.assert_allclose(m, scalar, rtol=3e-14, atol=0.0)
        assert m[0] == 1.0

    def test_no_floating_point_warning(self):
        # _row raises on any overflow, invalid operation or division by zero
        z, m = self._row(np.sqrt(np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 700.0, 3000)])))
        assert np.isfinite(m).all() and m[0] == 1.0


class TestBesselFitRow:
    """The Bessel fit's row, K0(r / 2 sqrt(nu t)) / t from scipy.special.k0,
    against mpmath.  nu = 1/4 and t = 1 make the argument r exactly."""

    NU = 0.25

    def _row(self, z):
        z = np.asarray(z, dtype=float)
        return estimation._bessel_model(z, np.ones_like(z), self.NU)

    def test_within_2e_15_of_mpmath(self):
        rng = np.random.default_rng(29)
        z = np.concatenate([np.exp(rng.uniform(math.log(1e-8), math.log(745.0), 400)),
                            _ulps_around(2.0, 6), _ulps_around(12.0, 6),
                            _ulps_around(12.25, 6)])
        values = self._row(z)
        with mp.workdps(40):
            for x, got in zip(z.tolist(), values.tolist()):
                exact = mp.besselk(0, x)
                if exact >= sys.float_info.min:
                    assert abs(got / exact - 1) <= 2e-15, x

    def test_zero_and_no_floating_point_warning_up_to_1200(self):
        # the log-nu scan of the Bessel profile fit reaches z ~ 1200
        z = np.concatenate([np.geomspace(1e-8, 1200.0, 3000), [745.0, 1200.0]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            values = self._row(z)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert np.all(values[z >= 745.0] == 0.0)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0).value == 1.0
        assert bessel_i(1.0, 0.0).value == 0.0

    def test_i0_of_one(self):
        assert bessel_i(0.0, 1.0).value == pytest.approx(1.2660658777520084, rel=1e-12)

    def test_series_against_oracle(self):
        for nu in (0.0, 1.0, 2.5):
            for z in np.linspace(0.0, 30.0, 40):
                expected = float(sp_oracle.iv(nu, z))
                assert bessel_i(nu, float(z)).value == pytest.approx(expected, rel=1e-10)

    def test_recurrence_consistency(self):
        # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
        for nu in (1.0, 2.0, 3.0):
            for z in np.linspace(0.1, 20.0, 30):
                z = float(z)
                lhs = bessel_i(nu - 1, z).value - bessel_i(nu + 1, z).value
                rhs = 2.0 * nu / z * bessel_i(nu, z).value
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_monotone_increasing(self):
        zs = np.linspace(0.0, 20.0, 100)
        vals = [bessel_i(0.0, float(z)).value for z in zs]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("nu,z", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                      (math.inf, 1.0)])
    def test_non_finite_rejected(self, nu, z):
        with pytest.raises(DomainError):
            bessel_i(nu, z)

    def test_inf_past_the_floats(self):
        # I_1(1500) ~ e^1500 / sqrt(3000 pi)
        assert bessel_i(1.0, 1500.0) == SpecFunResult(math.inf, math.inf)

    def test_overflowing_series_with_a_small_prefactor(self):
        # the series of I_10000(7000) overflows, but its prefactor (z/2)^nu /
        # Gamma(nu + 1) is e^-504, and the value is a float (9.2e284)
        res = bessel_i(1e4, 7000.0)
        with mp.workdps(40):
            assert abs(res.value - mp.besseli(10000, 7000)) <= res.est_abs_error
        assert res.est_abs_error <= 1e-9 * res.value
        # I_1000(3000) ~ 1e1229: the series overflows, and its prefactor is above 1
        assert bessel_i(1000.0, 3000.0) == SpecFunResult(math.inf, math.inf)

    def test_series_past_2_to_the_2048_with_a_small_prefactor(self):
        # rescaled by 2^-512 more than once: I_18508(12092) ~ e^-322 is a
        # float, I_20000(14000) ~ e^1318 is not
        res = bessel_i(18508.0, 12092.0)
        with mp.workdps(40):
            assert abs(res.value - mp.besseli(18508, 12092)) <= res.est_abs_error
        assert 0.0 < res.est_abs_error <= 1e-9 * res.value
        assert bessel_i(2e4, 1.4e4) == SpecFunResult(math.inf, math.inf)

    def test_term_ratio_past_2_to_the_511_raises(self):
        # the rescaled sum overflows in one term
        with pytest.raises(NumericalError, match=r"bessel_i\(1e\+200, 1e\+199\): the series overflows"):
            bessel_i(1e200, 1e199)


class TestBesselK:
    def test_k0_of_one(self):
        # frozen from the integral-representation oracle
        assert bessel_k0(1.0).value == pytest.approx(0.42102443824070834, rel=1e-10)

    def test_k0_far_field_law(self):
        # K0(z) ~ sqrt(pi/2z) e^-z; agreement within 1.5% at z = 10
        asym = math.sqrt(math.pi / 20.0) * math.exp(-10.0)
        assert bessel_k0(10.0).value == pytest.approx(asym, rel=0.015)

    def test_k0_small_z_log_law(self):
        euler = 0.5772156649015329
        for z in (1e-6, 1e-4, 1e-3):
            assert bessel_k0(z).value == pytest.approx(-math.log(z / 2.0) - euler, rel=1e-5)

    def test_k0_diverges_at_origin(self):
        vals = [bessel_k0(z).value for z in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("fn,order", [(bessel_k0, 0), (bessel_k1, 1)])
    def test_oracle_sweep(self, fn, order):
        zs = np.concatenate([
            np.geomspace(1e-6, 1.99, 50),
            np.linspace(2.0, 11.99, 50),
            np.linspace(12.0, 50.0, 40),
        ])
        for z in zs:
            expected = float(sp_oracle.kv(order, z))
            assert fn(float(z)).value == pytest.approx(expected, rel=1e-9)

    def test_k0_strictly_decreasing(self):
        zs = np.geomspace(1e-6, 50.0, 200)
        vals = [bessel_k0(float(z)).value for z in zs]
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("fn", [bessel_k0, bessel_k1])
    @pytest.mark.parametrize("seam", [2.0, 12.0])
    def test_crossover_continuity(self, fn, seam):
        below = fn(seam * (1.0 - 1e-9)).value
        above = fn(seam * (1.0 + 1e-9)).value
        assert below == pytest.approx(above, rel=1e-7)

    def test_domain(self):
        for fn in (bessel_k0, bessel_k1):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError):
                    fn(bad)


SEAMS = [z for seam in (2.0, 12.0, 12.25)
         for z in (np.nextafter(seam, 0.0), seam, np.nextafter(seam, np.inf))]


class TestBesselK01:
    """Both scalar orders against scipy."""

    @staticmethod
    def _check(zs):
        for z in map(float, zs):
            k0, k1 = bessel_k0(z), bessel_k1(z)
            for got, oracle in ((k0.value, sp_oracle.k0(z)), (k1.value, sp_oracle.k1(z))):
                if oracle > 1e-300:  # subnormal values carry few digits
                    assert got == pytest.approx(oracle, rel=5e-12, abs=0.0)

    @settings(max_examples=200)
    @given(st.lists(st.floats(1e-8, 700.0, exclude_min=True), min_size=1, max_size=40))
    def test_against_scipy(self, zs):
        self._check(zs)

    def test_branch_points_and_neighbours(self):
        self._check(SEAMS)
        for fn in (bessel_k0, bessel_k1):
            for below, at, above in np.reshape([fn(float(z)).value for z in SEAMS], (-1, 3)):
                assert below == pytest.approx(at, rel=5e-12, abs=0.0)
                assert above == pytest.approx(at, rel=5e-12, abs=0.0)

    def test_dense_sweep(self):
        self._check(np.concatenate([np.geomspace(1e-8, 2.5, 300), np.linspace(1.5, 12.5, 300)]))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.floats(2.0, 745.0), min_size=1, max_size=8),
           st.lists(st.floats(11.0, 12.25, exclude_max=True), min_size=1, max_size=2),
           st.lists(st.floats(12.25, 14.0), min_size=1, max_size=2))
    def test_trapezoid_regime_against_mpmath(self, zs, below, above):
        # within 1e-15 of 40-digit mpmath where K is normal, on both sides of
        # the step change at z = 12.25; the error bounds hold everywhere,
        # subnormal values included
        with mp.workdps(40):
            for x in zs + below + above:
                k0, err0, k1, err1 = _k01(x)
                for value, err, order in ((k0, err0, 0), (k1, err1, 1)):
                    exact = mp.besselk(order, x)
                    assert abs(value - exact) <= err
                    if exact >= sys.float_info.min:
                        assert abs(value - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bessel_k0(bad)
        with pytest.raises(DomainError):
            bessel_k1(bad)


class TestBesselKKernel:
    """The float kernel behind bessel_k0 and bessel_k1: bitwise
    their values and error bounds, against scipy within 1e-13 and within its
    own error bound everywhere."""

    @staticmethod
    def _check(z):
        for x in map(float, z):
            k0, err0, k1, err1 = _k01(x)
            assert (bessel_k0(x), bessel_k1(x)) == (SpecFunResult(k0, err0),
                                                    SpecFunResult(k1, err1))
            for got, err, oracle in ((k0, err0, sp_oracle.k0(x)), (k1, err1, sp_oracle.k1(x))):
                if oracle > 1e-300:  # subnormal values carry few digits
                    assert abs(got - oracle) <= err
                    assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)
                    assert err <= 7e-12 * got

    @settings(max_examples=200)
    @given(st.lists(st.floats(1e-8, 700.0, exclude_min=True), min_size=1, max_size=40))
    def test_against_scipy_and_public_functions(self, zs):
        self._check(zs)

    def test_both_sides_of_the_branch_points(self):
        self._check(SEAMS)
        self._check(np.concatenate([np.linspace(1.9, 2.1, 201), np.linspace(11.9, 12.4, 501)]))


class TestKummerBesselConnection:
    """The profile hierarchy links M(nu+1/2, 2nu+1, 2z) to I_nu(z).

    The identity that holds numerically carries a factor e^z:
        M(nu+1/2, 2nu+1, 2z) = Gamma(nu+1) (2/z)^nu e^z I_nu(z).
    The e^z-free variant that is sometimes quoted fails by exactly that
    factor; both facts are pinned here.
    """

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
    def test_identity_with_exponential_factor(self, nu):
        for z in np.linspace(0.1, 5.0, 25):
            z = float(z)
            lhs = kummer_m(nu + 0.5, 2.0 * nu + 1.0, 2.0 * z).value
            rhs = gamma_fn(nu + 1.0) * (2.0 / z) ** nu * math.exp(z) * bessel_i(nu, z).value
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_variant_without_exponential_fails_by_exp_factor(self):
        z = 2.0
        lhs = kummer_m(0.5, 1.0, 2.0 * z).value
        rhs_no_exp = bessel_i(0.0, z).value  # Gamma(1) (2/z)^0 I_0(z)
        assert lhs / rhs_no_exp == pytest.approx(math.exp(z), rel=1e-8)
        assert abs(lhs - rhs_no_exp) / lhs > 0.8  # nowhere near equal


def test_positive_on_domains():
    for z in np.geomspace(1e-4, 40.0, 60):
        z = float(z)
        assert bessel_k0(z).value > 0
        assert bessel_k1(z).value > 0
        assert bessel_i(0.0, z).value > 0
        assert kummer_m(0.7, 1.3, z).value > 0
        assert gamma_fn(z) > 0


def test_error_estimates_bound_true_error():
    # est_abs_error is an upper-bound claim, checked against the oracle
    cases = [
        (bessel_k0(0.7), float(sp_oracle.kv(0, 0.7))),
        (bessel_k0(5.0), float(sp_oracle.kv(0, 5.0))),
        (bessel_k0(20.0), float(sp_oracle.kv(0, 20.0))),
        (bessel_k1(0.7), float(sp_oracle.kv(1, 0.7))),
        (bessel_k1(5.0), float(sp_oracle.kv(1, 5.0))),
        (bessel_k1(20.0), float(sp_oracle.kv(1, 20.0))),
        *[(fn(float(z)), float(sp_oracle.kv(order, z)))
          for fn, order in ((bessel_k0, 0), (bessel_k1, 1)) for z in SEAMS],
        (bessel_i(1.0, 3.0), float(sp_oracle.iv(1, 3.0))),
        (kummer_m(0.5, 1.0, 10.0), float(sp_oracle.hyp1f1(0.5, 1.0, 10.0))),
        *[(kummer_m(a, b, z), float(sp_oracle.hyp1f1(a, b, z)))
          for a, b, z in ((0.5, 1.0, 50.0), (1.5, 3.0, 29.9), (2.5, 5.0, 31.0), (0.5, 1.0, 600.0))],
    ]
    for res, truth in cases:
        assert isinstance(res, SpecFunResult)
        assert res.est_abs_error >= 0
        assert abs(res.value - truth) <= max(res.est_abs_error, 5e-15 * abs(truth))


class TestErrorBoundsAgainstMpmath:
    """est_abs_error >= |error| against mpmath at 40 digits, on grids up to
    where the functions overflow (z ~ 713), and for K0 and K1 up to where
    they underflow (z ~ 745), subnormal values included."""

    GRID = np.concatenate([np.linspace(0.0, 713.0, 93), [29.99, 30.0, 30.01]])
    # off the profile family: terms of one sign, except for a < 0
    PAIRS = [(3.0, 0.5), (0.7, 1.3), (1.0, 2.0), (2.5, 1.0), (0.3, 4.0), (1.5, 0.5),
             (0.5, 2.0), (-2.5, 1.5)]

    @staticmethod
    def _check(res, exact):
        """|error| <= est_abs_error; the relative error, 0 where both are inf."""
        assert res.est_abs_error >= 0
        if math.isinf(res.value):
            assert abs(exact) > sys.float_info.max and res.value * exact > 0
            return 0.0
        error = abs(res.value - exact)
        assert error <= res.est_abs_error
        return float(error / abs(exact)) if exact else float(error)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_general_kummer(self, a, b):
        with mp.workdps(40):
            worst = max(self._check(kummer_m(a, b, z), mp.hyp1f1(a, b, z))
                        for z in map(float, self.GRID))
        if a > 0:  # within 1e-13, with no jump at the old leading-term switch at z = 30
            assert worst <= 1e-13

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_profile_family(self, n):
        zs = np.concatenate([self.GRID, [2.0 * n * n, np.nextafter(2.0 * n * n, 0.0)]])
        with mp.workdps(40):
            for z in map(float, zs):
                self._check(kummer_m(n + 0.5, 2.0 * n + 1.0, z), mp.hyp1f1(n + 0.5, 2 * n + 1, z))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 2.5, 3.0])
    def test_bessel_i(self, nu):
        with mp.workdps(40):
            worst = max(self._check(bessel_i(nu, z), mp.besseli(nu, z))
                        for z in map(float, self.GRID))
        assert worst <= 1e-13

    def test_bessel_k0_k1(self):
        with mp.workdps(40):
            for z in map(float, np.concatenate([np.geomspace(1e-6, 745.0, 120),
                                                np.linspace(700.0, 745.0, 91)])):
                for res, order in ((bessel_k0(z), 0), (bessel_k1(z), 1)):
                    self._check(res, mp.besselk(order, z))

    def test_bessel_i_of_large_order(self):
        # Gamma(201) overflows: I_200(1) ~ 1e-435 underflows, I_200(60) does not
        assert bessel_i(200.0, 1.0).value == 0.0
        with mp.workdps(40):
            self._check(bessel_i(200.0, 60.0), mp.besseli(200, 60))
            self._check(bessel_i(180.5, 900.0), mp.besseli(180.5, 900))
        assert bessel_i(0.0, 800.0) == SpecFunResult(math.inf, math.inf)

    def test_unconverged_series_raise(self):
        # b + k < 0 up to k = 600, and the terms grow again past it: the tail
        # bound needs more than the cap of 500 + 2z terms
        with pytest.raises(NumericalError, match="did not converge"):
            kummer_m(1.0, -600.5, 100.0)


@settings(max_examples=50)
@given(st.floats(0.1, 20.0))
def test_k1_exceeds_k0(z):
    assert bessel_k1(z).value > bessel_k0(z).value


def test_unit_sphere_area():
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize("dim", [0, -1])
def test_unit_sphere_area_domain(dim):
    with pytest.raises(DomainError, match="dimension must be positive"):
        unit_sphere_area(dim)
