"""Special-function accuracy against independent high-precision oracles.

scipy.special serves as the oracle throughout; the implementation under
test never calls it.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_oracle

from plumefront.errors import DomainError
from plumefront.specfun import (
    SpecFunResult,
    bessel_i,
    bessel_k0,
    bessel_k0_array,
    bessel_k1,
    gamma_fn,
    kummer_m,
    pochhammer,
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


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_simple(self):
        assert pochhammer(2.0, 3) == 24.0  # 2*3*4

    def test_half(self):
        assert pochhammer(0.5, 2) == pytest.approx(0.75, rel=1e-15)  # 0.5*1.5

    @given(st.floats(-5, 5), st.integers(0, 20))
    def test_recurrence(self, a, n):
        # (a)_{n+1} = (a)_n (a + n)
        assert pochhammer(a, n + 1) == pytest.approx(pochhammer(a, n) * (a + n), rel=1e-12, abs=1e-12)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


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
        assert abs(res.value - truth) <= 2.0 * res.est_abs_error

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m(1.0, -2.0, 1.0)


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
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(-1.0)


class TestBesselK0Array:
    """The array K0 against scipy and against the scalar bessel_k0."""

    SEAMS = [z for seam in (2.0, 12.0)
             for z in (np.nextafter(seam, 0.0), seam, np.nextafter(seam, np.inf))]

    @staticmethod
    def _check(z):
        z = np.asarray(z, dtype=float)
        got = bessel_k0_array(z)
        scalar = np.array([bessel_k0(float(x)).value for x in z])
        oracle = sp_oracle.k0(z)
        normal = oracle > 1e-300  # subnormal values carry few digits
        np.testing.assert_allclose(got[normal], oracle[normal], rtol=5e-12, atol=0.0)
        np.testing.assert_allclose(got[normal], scalar[normal], rtol=1e-13, atol=0.0)

    @settings(max_examples=200)
    @given(st.lists(st.floats(1e-8, 700.0, exclude_min=True), min_size=1, max_size=40))
    def test_against_scipy_and_scalar(self, zs):
        self._check(zs)

    def test_branch_points_and_neighbours(self):
        self._check(self.SEAMS)
        below, at, above = bessel_k0_array(np.reshape(self.SEAMS, (2, 3))).T
        np.testing.assert_allclose(below, at, rtol=5e-12, atol=0.0)
        np.testing.assert_allclose(above, at, rtol=5e-12, atol=0.0)

    def test_dense_sweep(self):
        # from z = 12 the scalar loop keeps up to 36 terms, the most near z = 17
        self._check(np.concatenate([np.geomspace(1e-8, 2.5, 400), np.linspace(11.5, 40.0, 800)]))

    def test_shape_follows_input(self):
        zero_d = bessel_k0_array(np.float64(3.0))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert float(zero_d) == pytest.approx(bessel_k0(3.0).value, rel=1e-13)
        grid = np.array([[0.5, 2.0, 5.0], [12.0, 30.0, 100.0]])
        got = bessel_k0_array(grid)
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got.ravel(), bessel_k0_array(grid.ravel()))

    def test_no_floating_point_warning_up_to_1200(self):
        # the log-nu scan of the Bessel profile fit reaches z ~ 1200
        z = np.concatenate([np.geomspace(1e-8, 1200.0, 3000), [745.0, 1200.0]])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            values = bessel_k0_array(z)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0) and values[-1] == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bessel_k0_array(np.array([1.0, bad, 3.0]))


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
        (bessel_i(1.0, 3.0), float(sp_oracle.iv(1, 3.0))),
        (kummer_m(0.5, 1.0, 10.0), float(sp_oracle.hyp1f1(0.5, 1.0, 10.0))),
    ]
    for res, truth in cases:
        assert isinstance(res, SpecFunResult)
        assert res.est_abs_error >= 0
        assert abs(res.value - truth) <= max(res.est_abs_error, 5e-15 * abs(truth))


@settings(max_examples=50)
@given(st.floats(0.1, 20.0))
def test_k1_exceeds_k0(z):
    assert bessel_k1(z).value > bessel_k0(z).value


def test_unit_sphere_area():
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-12)
