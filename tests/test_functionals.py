"""Boundary, exposure, moment, energy, and sensitivity functionals.

Expected values are frozen from independent oracles: closed-form Gaussian
integrals for exposure/energy/moments, the analytic boundary formula for
threshold crossings, and brute-force quadrature where no closed form is
used by the implementation path.  The Gaussian offers its moments, energy
and exposure in closed form; `VIEW`, the same field seen through `value`
alone, keeps the quadrature path under test.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plumefront import functionals
from plumefront.errors import DomainError, NonMonotoneFieldWarning, NumericalError
from plumefront.fields import (
    BesselField,
    DecayingSourceField,
    FieldParams,
    GaussianField,
    KummerField,
)
from plumefront.functionals import (
    BoundarySpec,
    boundary_radius,
    boundary_sensitivity,
    boundary_velocity,
    cumulative_exposure,
    energy,
    spatial_moment,
)

UNIT = FieldParams(nu=1.0, q=1.0)
GAUSS = GaussianField(UNIT)
EPS01 = BoundarySpec(mode="decay_by_epsilon", epsilon=0.1)

XI_STAR = 2.0 * math.sqrt(math.log(10.0 / 9.0))  # 0.6491856919...


class _ValueOnly:
    """A field seen through value and diffusion_scale alone: without its closed
    forms, every moment, energy and exposure of it goes through quadrature."""

    def __init__(self, field):
        self.value = field.value
        self.diffusion_scale = field.diffusion_scale


VIEW = _ValueOnly(GAUSS)


class _ExponentialProfile:
    """Steady exponential decay, kappa per unit distance (no time motion)."""

    r_min = 0.0
    dim = 3

    def __init__(self, kappa, level=1.0):
        self.kappa = kappa
        self.level = level

    def value(self, r, t):
        return self.level * math.exp(-self.kappa * r)

    def diffusion_scale(self, t):
        return 10.0 / self.kappa

    def d_dt(self, r, t):
        return 0.0

    def d_dr(self, r, t):
        return -self.kappa * self.value(r, t)

    def eval(self, r, t):
        return self.value(r, t), self.d_dr(r, t), self.d_dt(r, t)


class _ConstantField:
    r_min = 0.0
    dim = 3

    def value(self, r, t):
        return 0.7


class TestBoundarySpec:
    def test_exactly_one_parameter(self):
        with pytest.raises(DomainError):
            BoundarySpec(mode="absolute")
        with pytest.raises(DomainError):
            BoundarySpec(mode="absolute", tau_min=1.0, epsilon=0.5)
        with pytest.raises(DomainError):
            BoundarySpec(mode="decay_by_epsilon", epsilon=1.5)
        with pytest.raises(DomainError):
            BoundarySpec(mode="decay_to_fraction", fraction=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError, match="unknown boundary mode 'relative'"):
            BoundarySpec(mode="relative", epsilon=0.1)

    @pytest.mark.parametrize("tau_min", [0.0, -1.0])
    def test_non_positive_tau_min_rejected(self, tau_min):
        with pytest.raises(DomainError, match="absolute mode requires tau_min > 0"):
            BoundarySpec(mode="absolute", tau_min=tau_min)

    def test_threshold_levels(self):
        assert BoundarySpec(mode="absolute", tau_min=0.25).threshold(GAUSS, 1.0) == 0.25
        peak = GAUSS.value(0.0, 1.0)
        assert EPS01.threshold(GAUSS, 1.0) == pytest.approx(0.9 * peak)
        frac = BoundarySpec(mode="decay_to_fraction", fraction=0.1)
        assert frac.threshold(GAUSS, 1.0) == pytest.approx(0.1 * peak)


class TestBoundaryRadius:
    def test_gaussian_example(self):
        # 2 sqrt(nu t ln(1/(1-eps))) at t = 4 is about 1.2984
        assert boundary_radius(GAUSS, EPS01, 4.0) == pytest.approx(1.29837138389800, rel=1e-9)

    def test_ten_percent_threshold_of_exponential(self):
        # decay-to-10% of an exponential with kappa = 0.05 sits at ln(10)/0.05
        field = _ExponentialProfile(kappa=0.05)
        spec = BoundarySpec(mode="decay_to_fraction", fraction=0.1)
        assert boundary_radius(field, spec, 1.0) == pytest.approx(math.log(10.0) / 0.05, rel=1e-9)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_non_positive_time_rejected(self, t):
        with pytest.raises(DomainError, match="time must be > 0"):
            boundary_radius(GAUSS, EPS01, t)

    def test_constant_field_has_no_boundary(self):
        assert boundary_radius(_ConstantField(), EPS01, 1.0) is None

    def test_absolute_threshold_above_peak(self):
        spec = BoundarySpec(mode="absolute", tau_min=1.0)
        assert boundary_radius(GAUSS, spec, 1.0) is None

    def test_diverging_field_below_threshold_after_all_halvings(self):
        # K0(r / 2) at r = 2^-200 is about 139, so 200 halvings inward from
        # r = 1 never lift the unit Bessel field above 1e3; 100 is reached.
        field = BesselField(FieldParams(nu=1.0, dim=2, source_pos=(0.0, 0.0)), amplitude=1.0)
        assert boundary_radius(field, BoundarySpec("absolute", tau_min=1e3), 1.0) is None
        radius = boundary_radius(field, BoundarySpec("absolute", tau_min=100.0), 1.0)
        assert 0.0 < radius < 1.0
        assert field.value(radius, 1.0) == pytest.approx(100.0, rel=1e-12)

    def test_scaling_with_sqrt_t(self):
        vals = {t: boundary_radius(GAUSS, EPS01, t) for t in (0.25, 1.0, 4.0, 16.0)}
        ratios = [vals[t] / math.sqrt(t) for t in vals]
        assert max(ratios) - min(ratios) <= 1e-9 * ratios[0]

    def test_matches_closed_form_across_nu(self):
        for nu in (0.5, 2.0):
            g = GaussianField(FieldParams(nu=nu, q=1.0))
            expected = 2.0 * math.sqrt(nu * 3.0 * math.log(10.0 / 9.0))
            assert boundary_radius(g, EPS01, 3.0) == pytest.approx(expected, rel=1e-9)

    def test_non_monotone_warns_and_returns_first_crossing(self):
        class Bump:
            r_min = 0.0
            dim = 3

            def value(self, r, t):
                return math.exp(-r) + 0.5 * math.exp(-((r - 5.0) ** 2))

            def diffusion_scale(self, t):
                return 1.0

        spec = BoundarySpec(mode="absolute", tau_min=0.3)
        with pytest.warns(NonMonotoneFieldWarning):
            first = boundary_radius(Bump(), spec, 1.0)
        # brute-force first crossing of the same profile
        rs = np.linspace(0, 20, 400001)
        vals = np.exp(-rs) + 0.5 * np.exp(-((rs - 5.0) ** 2))
        brute = rs[np.argmax(vals <= 0.3)]
        assert first == pytest.approx(brute, abs=1e-4)

    @pytest.mark.parametrize("bump", [0.0, 0.5], ids=["monotone", "non_monotone"])
    def test_crossing_below_the_first_scan_sample(self, bump):
        # The scan starts at 1e-9 r_hi = 1e-8; the spike crosses near 1.2e-12,
        # so the bracket is (r_min, first sample).
        class Spike:
            r_min = 0.0
            dim = 3

            def value(self, r, t):
                return math.exp(-1e12 * r) + bump * math.exp(-((r - 5.0) ** 2))

            def diffusion_scale(self, t):
                return 1.0

        spec = BoundarySpec(mode="absolute", tau_min=0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = boundary_radius(Spike(), spec, 1.0)
        assert [w.category for w in caught] == ([NonMonotoneFieldWarning] if bump else [])
        expected = math.log(1.0 / (0.3 - bump * math.exp(-25.0))) / 1e12
        assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(1.0, 8.0), st.floats(0.05, 0.3))
def test_gaussian_boundary_functionals_match_closed_forms(nu, t, eps):
    # The velocity is the implicit rate at the root, so it inherits the
    # root's rounding-level error; the sensitivity's tau_nu is a central
    # difference in nu, step 1e-5 nu, and keeps the looser bound.
    spec = BoundarySpec(mode="decay_by_epsilon", epsilon=eps)
    d_star = 2.0 * math.sqrt(nu * t * math.log(1.0 / (1.0 - eps)))
    field = GaussianField(FieldParams(nu=nu, q=1.0))
    assert boundary_radius(field, spec, t) == pytest.approx(d_star, rel=1e-13, abs=0.0)
    assert boundary_velocity(field, spec, t) == pytest.approx(d_star / (2.0 * t), rel=1e-12)
    factory = lambda v: GaussianField(FieldParams(nu=v, q=1.0))  # noqa: E731
    assert boundary_sensitivity(factory, nu, spec, t) == pytest.approx(d_star / (2.0 * nu),
                                                                       rel=1e-7)


class TestZeroin:
    # roots of the zeroin without an absolute tolerance, which every boundary uses
    CASES = [
        (lambda x: 2.0 - x * x, 0.0, 2.0, "0x1.6a09e667f3bccp+0"),
        (lambda x: math.cos(x) - x, 0.0, 1.0, "0x1.7a695dd83ce2ep-1"),
        (lambda x: math.exp(-x) - 1e-3, 0.0, 50.0, "0x1.ba18a998fffa1p+2"),
        (lambda x: 1e-300 - x**3, 0.0, 1e-90, "0x1.bff2ee48e0530p-333"),
        (lambda x: 1.0 / (x + 1e-3) - 7.0, 0.0, 1e3, "0x1.2285ff6a3413ep-3"),
    ]

    @pytest.mark.parametrize("g, a, b, root", CASES)
    def test_default_tolerance_keeps_the_relative_rule_bitwise(self, g, a, b, root):
        assert functionals._zeroin(g, a, b).hex() == root
        assert functionals._zeroin(g, a, b, 0.0).hex() == root

    def test_absolute_tolerance_stops_near_zero(self):
        # a triple root at 0: the relative rule alone chases it for its 200 steps
        calls = []

        def g(x):
            calls.append(x)
            return -x**3

        loose = functionals._zeroin(g, -1.0, 0.5, 1e-10)
        n_loose, calls[:] = len(calls), []
        tight = functionals._zeroin(g, -1.0, 0.5)
        assert abs(loose) <= 1e-10 and abs(tight) <= 1e-19
        assert n_loose <= 110 and len(calls) == 202


def _absolute_gaussian_root(tau_min, t):
    """(d*, L) of the unit Gaussian at an absolute threshold: d*^2 = 4 t L."""
    log_term = math.log(1.0 / tau_min) - 1.5 * math.log(4.0 * math.pi * t)
    return math.sqrt(4.0 * t * log_term), log_term


class _CountingGaussian(GaussianField):
    """The unit Gaussian, counting `eval` calls at the source and elsewhere."""

    def __init__(self):
        super().__init__(UNIT)
        self.at_source = self.elsewhere = 0

    def eval(self, r, t):
        if r == 0.0:
            self.at_source += 1
        else:
            self.elsewhere += 1
        return super().eval(r, t)


class TestBoundaryVelocity:
    def test_gaussian_closed_form(self):
        # v(t) = xi*/(2 sqrt(t)); at t = 1 that is xi*/2
        assert boundary_velocity(GAUSS, EPS01, 1.0) == pytest.approx(XI_STAR / 2.0, rel=1e-12)

    def test_velocity_halves_when_t_quadruples(self):
        v1 = boundary_velocity(GAUSS, EPS01, 1.0)
        v4 = boundary_velocity(GAUSS, EPS01, 4.0)
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_steady_profile_has_zero_velocity(self):
        field = _ExponentialProfile(kappa=0.1)
        spec = BoundarySpec(mode="absolute", tau_min=0.5)
        assert boundary_velocity(field, spec, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_error_when_boundary_absent(self):
        with pytest.raises(NumericalError):
            boundary_velocity(_ConstantField(), EPS01, 1.0)

    @pytest.mark.parametrize("tau_min", [1e-3, 1e-6])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_absolute_threshold_closed_form(self, tau_min, t):
        # d*^2 = 4 nu t L, L = ln(Q / tau_min) - 1.5 ln(4 pi nu t), so
        # v = (2 nu L - 3 nu) / d*: negative (shrinking) at tau_min = 1e-3, t = 5
        spec = BoundarySpec(mode="absolute", tau_min=tau_min)
        d_star, log_term = _absolute_gaussian_root(tau_min, t)
        v = (2.0 * log_term - 3.0) / d_star
        assert boundary_velocity(GAUSS, spec, t) == pytest.approx(v, rel=1e-12)
        if (tau_min, t) == (1e-3, 5.0):
            assert v == pytest.approx(-0.430, abs=1e-3)

    @pytest.mark.parametrize("spec,at_source", [(EPS01, 1),
                                                (BoundarySpec("absolute", tau_min=1e-3), 0)],
                             ids=["relative", "absolute"])
    def test_one_eval_at_the_root_and_one_at_the_source(self, spec, at_source):
        field = _CountingGaussian()
        boundary_velocity(field, spec, 1.0)
        assert (field.elsewhere, field.at_source) == (1, at_source)

    def test_singular_gradient_raises(self):
        # tau = (1 - r)^3 + (t - 1) at t = 1 crosses 1e-30 at r = 1 - 1e-10, where
        # tau_r = -3e-20 is within 1e-14 of tau_t = 1
        class FlatCrossing:
            def value(self, r, t):
                return (1.0 - r) ** 3 + (t - 1.0)

            def eval(self, r, t):
                return self.value(r, t), -3.0 * (1.0 - r) ** 2, 1.0

            def diffusion_scale(self, t):
                return 1.0

        spec = BoundarySpec(mode="absolute", tau_min=1e-30)
        with pytest.raises(NumericalError, match="singular gradient .* flat region"):
            boundary_velocity(FlatCrossing(), spec, 1.0)



class TestCumulativeExposure:
    def test_infinite_horizon_closed_form(self):
        # int_0^inf tau dt = Q/(4 pi nu r); brute-force quadrature with the
        # analytic t^(-3/2) tail bound appended agrees as well
        assert cumulative_exposure(GAUSS, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-6)
        t_cut = 1e6
        brute = quad(lambda t: GAUSS.value(1.0, t) if t > 0 else 0.0, 0, 100.0, limit=400)[0]
        brute += quad(lambda t: GAUSS.value(1.0, t), 100.0, t_cut, limit=400)[0]
        tail = (4.0 * math.pi) ** -1.5 * 2.0 / math.sqrt(t_cut)
        assert cumulative_exposure(GAUSS, 1.0) == pytest.approx(brute + tail, rel=1e-5)

    def test_inverse_distance_law(self):
        # Phi(2r)/Phi(r) = 1/2: total exposure decays like 1/r, not 1/r^2.
        # (The inverse-square statement sometimes quoted for this integral
        # contradicts its own exponent algebra: (1 - 3/2)/(1/2) = -1.)
        for r in (0.1, 1.0, 10.0):
            ratio = cumulative_exposure(GAUSS, 2.0 * r) / cumulative_exposure(GAUSS, r)
            assert ratio == pytest.approx(0.5, rel=1e-6)

    def test_empty_interval(self):
        assert cumulative_exposure(GAUSS, 1.0, t_min=2.0, horizon=2.0) == 0.0

    def test_finite_horizon_matches_erfc_form(self):
        # int_0^T tau dt = Q/(4 pi nu r) erfc(r / (2 sqrt(nu T)))
        from scipy.special import erfc

        r, horizon = 1.5, 3.0
        expected = erfc(r / (2.0 * math.sqrt(horizon))) / (4.0 * math.pi * r)
        assert cumulative_exposure(GAUSS, r, horizon=horizon) == pytest.approx(expected, rel=1e-7)

    def test_source_point_rejected(self):
        with pytest.raises(DomainError):
            cumulative_exposure(GAUSS, 0.0)


class TestSpatialMoments:
    def test_mass_is_conserved(self):
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            assert spatial_moment(GAUSS, 0, t).value == pytest.approx(1.0, rel=1e-6)

    def test_second_moment(self):
        # 6 nu Q t for the 3D Gaussian
        assert spatial_moment(GAUSS, 2, 2.0).value == pytest.approx(12.0, rel=1e-7)

    def test_fourth_moment(self):
        # 60 (nu t)^2 Q
        assert spatial_moment(GAUSS, 4, 1.0).value == pytest.approx(60.0, rel=1e-7)

    def test_linear_growth_of_m2(self):
        ts = np.arange(1.0, 9.0)
        m2 = np.array([spatial_moment(GAUSS, 2, float(t)).value for t in ts])
        slope = np.polyfit(ts, m2, 1)[0]
        assert slope == pytest.approx(6.0, rel=0.005)
        rms = np.sqrt(m2 / 1.0)
        assert np.allclose(rms, np.sqrt(6.0 * ts), rtol=0.005)

    def test_moment_scaling(self):
        for k in (2, 4):
            scaled = [spatial_moment(GAUSS, k, float(t)).value / t ** (k / 2.0) for t in (1.0, 2.0, 4.0, 8.0)]
            assert max(scaled) - min(scaled) <= 0.005 * scaled[0]

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            spatial_moment(GAUSS, -2, 1.0)

    @pytest.mark.parametrize("integral", [lambda t: spatial_moment(GAUSS, 0, t),
                                          lambda t: energy(GAUSS, t)],
                             ids=["moment", "energy"])
    def test_non_positive_time_rejected(self, integral):
        with pytest.raises(DomainError, match="time must be > 0"):
            integral(0.0)


class TestEnergy:
    def test_closed_form(self):
        # E(t) = Q^2 (8 pi nu t)^{-3/2}
        assert energy(GAUSS, 1.0) == pytest.approx((8.0 * math.pi) ** -1.5, rel=1e-9)

    def test_scaling_with_time(self):
        assert energy(GAUSS, 2.0) / energy(GAUSS, 1.0) == pytest.approx(2.0**-1.5, rel=1e-9)

    def test_monotone_dissipation(self):
        ts = np.linspace(0.5, 8.0, 16)
        vals = [energy(GAUSS, float(t)) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_dissipation_rate_identity(self):
        # dE/dt = -2 nu int |grad tau|^2 dx
        t = 1.5
        h = 1e-5
        de_dt = (energy(GAUSS, t + h) - energy(GAUSS, t - h)) / (2 * h)
        grad_sq, _ = quad(
            lambda r: 4.0 * math.pi * r * r * GAUSS.d_dr(r, t) ** 2, 0.0, 40.0, limit=200
        )
        assert de_dt == pytest.approx(-2.0 * grad_sq, rel=0.01)


class TestBoundarySensitivity:
    FACTORY = staticmethod(lambda nu: GaussianField(FieldParams(nu=nu, q=1.0)))

    def test_closed_form(self):
        # S_nu = d*/(2 nu) for the Gaussian; at nu=1, t=4 that's 1.2984/2
        s = boundary_sensitivity(self.FACTORY, 1.0, EPS01, 4.0)
        assert s == pytest.approx(1.29837138389800 / 2.0, rel=1e-5)

    def test_constant_elasticity_one_half(self):
        for nu in (0.5, 1.0, 2.0):
            s = boundary_sensitivity(self.FACTORY, nu, EPS01, 4.0)
            d_star = boundary_radius(self.FACTORY(nu), EPS01, 4.0)
            assert nu / d_star * s == pytest.approx(0.5, rel=1e-5)

    @pytest.mark.parametrize("tau_min", [1e-3, 1e-6])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_absolute_threshold_closed_form(self, tau_min, t):
        # d*^2 = 4 nu t L with L_nu = -1.5 / nu gives S_nu = (2 t L - 3 t) / d* at nu = 1
        spec = BoundarySpec(mode="absolute", tau_min=tau_min)
        d_star, log_term = _absolute_gaussian_root(tau_min, t)
        s = boundary_sensitivity(self.FACTORY, 1.0, spec, t)
        assert s == pytest.approx((2.0 * t * log_term - 3.0 * t) / d_star, rel=1e-8)

    def test_quadrupled_nu_doubles_boundary(self):
        d1 = boundary_radius(self.FACTORY(1.0), EPS01, 4.0)
        d4 = boundary_radius(self.FACTORY(4.0), EPS01, 4.0)
        assert d4 == pytest.approx(2.0 * d1, rel=1e-10)


class TestQuadratureToInfinity:
    """Moments and exposure over the whole unbounded range, and divergent
    integrals raised rather than truncated."""

    def test_bessel_moments_match_closed_form(self):
        # M_k = 2 pi (A/t) (2 sqrt(nu t))^(k+2) 2^k Gamma(k/2+1)^2; the K0 tail
        # decays only like exp(-r / 2 sqrt(nu t)), far past any Gaussian cutoff.
        nu, amp, t = 0.8, 0.7, 1.5
        field = BesselField(FieldParams(nu=nu, q=1.0, dim=2, source_pos=(0.0, 0.0)), amp)
        for k in (0, 2, 4):
            exact = (2.0 * math.pi * amp / t * (2.0 * math.sqrt(nu * t)) ** (k + 2)
                     * 2.0**k * math.gamma(k / 2.0 + 1.0) ** 2)
            res = spatial_moment(field, k, t)
            assert res.value == pytest.approx(exact, rel=1e-9)
            assert res.quadrature_error >= abs(res.value - exact)

    def test_finite_horizon_exposure_at_benchmark_suite_parameters(self):
        # the field_functionals suite at seed 102 draws these parameters
        nu, q, horizon = 0.6301477106935433, 0.9185564793365038, 1.3499532485520396
        r = 0.5030138121170418 * math.sqrt(nu * horizon)
        field = GaussianField(FieldParams(nu=nu, q=q))
        expected = q / (4.0 * math.pi * nu * r) * math.erfc(r / math.sqrt(4.0 * nu * horizon))
        assert cumulative_exposure(field, r, horizon=horizon) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("integral", [
        lambda f: cumulative_exposure(f, 1.0),
        lambda f: cumulative_exposure(f, 1.0, horizon=1.0),
        lambda f: spatial_moment(f, 2, 1.0),
        lambda f: energy(f, 1.0),
    ], ids=["exposure", "exposure_to_t", "moment", "energy"])
    def test_divergent_kummer_integrals_raise(self, integral):
        # M(1/2, 1, z) grows like e^z / sqrt(pi z): no moment, energy or
        # exposure of this profile is finite
        with pytest.raises(NumericalError):
            integral(KummerField([(1, 0)], UNIT))

    @pytest.mark.parametrize("bounds", [
        {"horizon": math.nan},
        {"t_min": math.inf},
        {"t_min": math.nan},
        {"t_min": math.inf, "horizon": math.inf},
    ])
    def test_exposure_bounds_are_checked(self, bounds):
        with pytest.raises(DomainError):
            cumulative_exposure(GAUSS, 1.0, **bounds)

    @pytest.mark.parametrize("k", [400, 1000])
    def test_moment_whose_power_overflows_raises(self, k):
        # float r ** k raises OverflowError where r^k passes the floats
        with pytest.raises(NumericalError, match=f"moment k={k} at t=1.0 overflows"):
            spatial_moment(VIEW, k, 1.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_moment_order_must_be_an_integer(self, k):
        with pytest.raises(DomainError):
            spatial_moment(GAUSS, k, 1.0)


@pytest.mark.parametrize("field", [
    BesselField(FieldParams(nu=1.0, q=1.0, dim=2, source_pos=(0.0, 0.0)), amplitude=1.0),
    DecayingSourceField(FieldParams(nu=1.0, q=1.0, lam=1.0)),
], ids=["bessel", "decaying"])
@pytest.mark.parametrize("spec", [EPS01, BoundarySpec(mode="decay_to_fraction", fraction=0.3)],
                         ids=["epsilon", "fraction"])
def test_relative_threshold_needs_finite_source_value(field, spec):
    # tau(r_min = 0, t) is infinite for a field that diverges at its source
    for call in (lambda: spec.threshold(field, 2.0), lambda: boundary_radius(field, spec, 2.0)):
        with pytest.raises(DomainError, match="relative modes need a finite source value"):
            call()


class TestExposureAtSmallRadii:
    """The s = r / (L sqrt(t)) substitution keeps the Gaussian integrand a
    multiple of exp(-s^2 / 4) at every radius."""

    @pytest.mark.parametrize("r", [1e-8, 1e-50, 1e-100])
    def test_inverse_distance_law_far_inside_a_diffusion_length(self, r):
        assert cumulative_exposure(GAUSS, r) == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-12)

    def test_time_underflow_raises(self):
        with pytest.raises(DomainError):
            cumulative_exposure(VIEW, 1e-300)

    def test_inverse_distance_law_far_outside_a_diffusion_length(self):
        assert cumulative_exposure(GAUSS, 1e100) == pytest.approx(1.0 / (4.0 * math.pi * 1e100),
                                                                  rel=1e-12)

    def test_inverse_distance_law_at_the_last_normal_field(self):
        # tau(r, (r / L)^2) = 1.7e-305 is still a normal float
        assert cumulative_exposure(GAUSS, 1e101) == pytest.approx(1.0 / (4.0 * math.pi * 1e101),
                                                                  rel=1e-12)

    @pytest.mark.parametrize("r", [1e102, 1e103, 1e104, 1e107, 1e110, 1e134])
    def test_integrand_underflow_raises(self, r):
        # from r = 1e102 the field at s = 1 is subnormal: QUADPACK alone would
        # give 1 + 2.7e-11 and 1 - 1.6e-9 of Q / (4 pi nu r) at 1e102 and 1e103,
        # fail to converge from 1e104 to 1e107, and give 0.0 for 7.2e-112 at
        # 1e110, where t tau(r, t) underflows everywhere
        with pytest.raises(NumericalError, match="underflows"):
            cumulative_exposure(VIEW, r)

    @pytest.mark.parametrize("horizon", [math.inf, 3.0])
    def test_field_that_is_zero_has_zero_exposure(self, horizon):
        assert cumulative_exposure(KummerField([], UNIT), 1.0, horizon=horizon) == 0.0

    def test_decaying_source_exposure_to_infinity_diverges(self):
        # tau tends to the nonzero Yukawa limit, so its time integral diverges;
        # QUADPACK's extrapolation alone gives -0.0301 with a small error estimate
        field = DecayingSourceField(FieldParams(nu=1.0, q=0.9, lam=0.4))
        with pytest.raises(NumericalError):
            cumulative_exposure(field, 1.0)


class TestDivergentExposureToInfinity:
    """An infinite-horizon exposure converges only where t tau(r, t) -> 0."""

    @pytest.mark.parametrize("coeffs,nu,r", [([(1, 0), (0.5, 2)], 0.5, 7.0),
                                             ([(1, 0), (0.5, 2)], 2.0, 30.0),
                                             ([(1, 0)], 1.0, 7.0)])
    def test_kummer_sum_with_nonzero_total_raises(self, coeffs, nu, r):
        # tau tends to (sum C_n) / t: the integral grows like log T
        with pytest.raises(NumericalError, match="did not converge"):
            cumulative_exposure(KummerField(coeffs, FieldParams(nu=nu)), r, t_min=0.2)

    def test_bessel_exposure_raises(self):
        # tau = (A/t) K0(r / sqrt(4 nu t)) ~ (A / 2t) ln t
        field = BesselField(FieldParams(nu=1.0, dim=2, source_pos=(0.0, 0.0)), 1.0)
        with pytest.raises(NumericalError, match="did not converge"):
            cumulative_exposure(field, 1.0)

    def test_kummer_sum_with_zero_total_converges(self):
        # M(1/2, 1, z) - M(3/2, 3, z) = z^2 / 32 + O(z^3): tau ~ 1 / t^3
        coeffs = [(1.0, 0), (-1.0, 1)]
        with mp.workdps(30):
            exact = mp.quad(lambda t: sum(c * mp.hyp1f1(n + 0.5, 2 * n + 1, 1 / t)
                                          for c, n in coeffs) / t, [0.2, 1, 10, mp.inf])
        got = cumulative_exposure(KummerField(coeffs, FieldParams(nu=1.0)), 2.0, t_min=0.2)
        assert got == pytest.approx(float(exact), rel=1e-8)


class TestQuadratureOracle:
    """The criteria read the Gaussian's closed forms; here the same tolerances
    (criteria 3, 4 and 5) and the closed forms check quadrature on VIEW."""

    def test_criterion_3_tolerances(self):
        assert abs(spatial_moment(VIEW, 0, 3.0).value - 1.0) <= 1e-6
        ts = np.arange(1.0, 9.0)
        slope = np.polyfit(ts, [spatial_moment(VIEW, 2, float(t)).value for t in ts], 1)[0]
        assert abs(slope - 6.0) / 6.0 <= 0.005
        for t in (1.0, 2.0, 4.0):
            assert abs(spatial_moment(VIEW, 4, t).value / t**2 - 60.0) / 60.0 <= 0.01

    def test_criterion_4_tolerances(self):
        ts = np.linspace(0.5, 8.0, 16)
        vals = np.array([energy(VIEW, float(t)) for t in ts])
        assert np.all(np.diff(vals) < 0)
        assert np.max(np.abs(vals / (8.0 * math.pi * ts) ** -1.5 - 1.0)) <= 1e-6

    def test_criterion_5_tolerances(self):
        for r in (0.1, 1.0, 10.0):
            assert abs(cumulative_exposure(VIEW, r) * 4.0 * math.pi * r - 1.0) <= 0.005

    @pytest.mark.parametrize("nu,q,t", [(1.0, 1.0, 1.0), (0.63, 0.92, 3.7), (2.0, 1.5, 0.2)])
    def test_quadrature_agrees_with_the_closed_forms(self, nu, q, t):
        field = GaussianField(FieldParams(nu=nu, q=q))
        view = _ValueOnly(field)
        for k in range(9):
            quad_res, exact = spatial_moment(view, k, t), spatial_moment(field, k, t)
            assert abs(quad_res.value - exact.value) <= max(quad_res.quadrature_error,
                                                            1e-9 * exact.value)
        assert energy(view, t) == pytest.approx(energy(field, t), rel=1e-7)
        r = 1.3 * math.sqrt(nu * t)
        for horizon in (0.5 * t, t, 4.0 * t, math.inf):
            assert cumulative_exposure(view, r, horizon=horizon) == pytest.approx(
                cumulative_exposure(field, r, horizon=horizon), rel=1e-8)

    @pytest.mark.parametrize("r", [1e-100, 1e-50, 1e-8, 1e100, 1e101])
    def test_quadrature_keeps_the_inverse_distance_law(self, r):
        assert cumulative_exposure(VIEW, r) == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-12)

    def test_gaussian_functionals_call_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(functionals, "quadrature", refuse)
        spatial_moment(GAUSS, 2, 1.0)
        energy(GAUSS, 1.0)
        cumulative_exposure(GAUSS, 1.0)
        cumulative_exposure(GAUSS, 1.0, horizon=2.0)
        # from t_min > 0 the erfc difference would cancel: quadrature it is
        with pytest.raises(AssertionError, match="quadrature called"):
            cumulative_exposure(GAUSS, 1.0, t_min=0.5)


def _mp_gaussian(nu, q, r, t):
    return mp.mpf(q) * (4 * mp.pi * mp.mpf(nu) * t) ** -1.5 * mp.exp(-mp.mpf(r) ** 2 / (4 * nu * t))


class TestGaussianClosedForms:
    """Gaussian moments, energy and exposure against 40-digit mpmath."""

    PARAMS = [(1.0, 1.0, 1.0), (0.63, 0.92, 3.7), (2.0, 1.5, 0.2), (1e-3, 5.0, 40.0)]

    @pytest.mark.parametrize("nu,q,t", PARAMS)
    def test_moments_against_mpmath(self, nu, q, t):
        field = GaussianField(FieldParams(nu=nu, q=q))
        with mp.workdps(40):
            scale = mp.sqrt(4 * mp.mpf(nu) * t)
            for k in range(9):
                exact = mp.quad(lambda r: 4 * mp.pi * r ** (k + 2) * _mp_gaussian(nu, q, r, t),
                                [0, scale, 4 * scale, mp.inf])
                res = spatial_moment(field, k, t)
                err = abs(res.value - exact)
                assert err <= 1e-14 * exact, k
                assert res.quadrature_error >= err, k

    @pytest.mark.parametrize("nu,q,t", PARAMS)
    def test_energy_against_mpmath(self, nu, q, t):
        field = GaussianField(FieldParams(nu=nu, q=q))
        with mp.workdps(40):
            scale = mp.sqrt(4 * mp.mpf(nu) * t)
            exact = mp.quad(lambda r: 4 * mp.pi * r * r * _mp_gaussian(nu, q, r, t) ** 2,
                            [0, scale, 4 * scale, mp.inf])
            assert abs(energy(field, t) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("r", [10.0 ** e for e in range(-100, 301, 25)] + [0.37, 2.9])
    def test_unit_exposure_is_the_inverse_distance_law(self, r):
        with mp.workdps(40):
            exact = 1 / (4 * mp.pi * mp.mpf(r))
            assert abs(cumulative_exposure(GAUSS, r) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("nu,q,r,horizon", [
        (1.0, 1.0, 1.5, 3.0), (0.63, 0.92, 0.5, 1.35), (2.0, 1.5, 4.0, 0.7),
        (1e-3, 5.0, 0.02, 1e4), (1.0, 1.0, 1e-100, 1e-150), (1.0, 1.0, 1e150, 1e299)])
    def test_finite_horizon_exposure_against_mpmath(self, nu, q, r, horizon):
        field = GaussianField(FieldParams(nu=nu, q=q))
        with mp.workdps(40):
            x = mp.mpf(r) / mp.sqrt(4 * mp.mpf(nu) * mp.mpf(horizon))
            exact = mp.mpf(q) / (4 * mp.pi * mp.mpf(nu) * r) * mp.erfc(x)
            if 1e-3 < r < 10:  # the erfc form itself, against the time integral
                integral = mp.quad(lambda t: _mp_gaussian(nu, q, r, t),
                                   [0, r * r / (4 * nu), horizon])
                assert abs(integral - exact) <= mp.mpf(10) ** -30 * exact
            assert abs(cumulative_exposure(field, r, horizon=horizon) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("call", [
        lambda: spatial_moment(GAUSS, 400, 1.0),  # Gamma(201.5) overflows
        lambda: spatial_moment(GAUSS, 8, 1e100),  # (4 nu t)^4 overflows
        lambda: spatial_moment(GAUSS, 8, 1e-100),  # (4 nu t)^4 underflows
        lambda: energy(GAUSS, 1e-300),
        lambda: cumulative_exposure(GaussianField(FieldParams(nu=1e10)), 1e300),
        lambda: cumulative_exposure(GAUSS, 1e300, horizon=1e-300),  # erfc underflows
    ], ids=["moment-gamma", "moment-power-over", "moment-power-under", "energy-over",
            "exposure-denominator", "exposure-erfc"])
    def test_closed_form_leaving_the_floats_raises(self, call):
        with pytest.raises(NumericalError, match="leaves the normal floats"):
            call()

    def test_energy_underflow_raises(self):
        # Q^2 (8 pi nu t)^(-3/2) is 1e-452 at t = 1e300, but positive
        with pytest.raises(NumericalError, match="leaves the normal floats"):
            energy(GAUSS, 1e300)
