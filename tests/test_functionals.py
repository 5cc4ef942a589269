"""Boundary, exposure, moment, energy, and sensitivity functionals.

Expected values are frozen from independent oracles: closed-form Gaussian
integrals for exposure/energy/moments, the analytic boundary formula for
threshold crossings, and brute-force quadrature where no closed form is
used by the implementation path.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
    functional_derivative,
    optimal_centroid,
    spatial_moment,
)

UNIT = FieldParams(nu=1.0, q=1.0)
GAUSS = GaussianField(UNIT)
EPS01 = BoundarySpec(mode="decay_by_epsilon", epsilon=0.1)

XI_STAR = 2.0 * math.sqrt(math.log(10.0 / 9.0))  # 0.6491856919...


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

    def test_constant_field_has_no_boundary(self):
        assert boundary_radius(_ConstantField(), EPS01, 1.0) is None

    def test_absolute_threshold_above_peak(self):
        spec = BoundarySpec(mode="absolute", tau_min=1.0)
        assert boundary_radius(GAUSS, spec, 1.0) is None

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
    # The central differences divide the root error by their step 2e-5, so
    # the velocity and sensitivity bounds hold only if the radius is found
    # to near rounding.
    spec = BoundarySpec(mode="decay_by_epsilon", epsilon=eps)
    d_star = 2.0 * math.sqrt(nu * t * math.log(1.0 / (1.0 - eps)))
    field = GaussianField(FieldParams(nu=nu, q=1.0))
    assert boundary_radius(field, spec, t) == pytest.approx(d_star, rel=1e-13, abs=0.0)
    assert boundary_velocity(field, spec, t) == pytest.approx(d_star / (2.0 * t), rel=1e-7)
    factory = lambda v: GaussianField(FieldParams(nu=v, q=1.0))  # noqa: E731
    assert boundary_sensitivity(factory, nu, spec, t) == pytest.approx(d_star / (2.0 * nu),
                                                                       rel=1e-7)


class TestBoundaryVelocity:
    def test_gaussian_closed_form(self):
        # v(t) = xi*/(2 sqrt(t)); at t = 1 that is xi*/2
        assert boundary_velocity(GAUSS, EPS01, 1.0) == pytest.approx(XI_STAR / 2.0, rel=1e-5)

    def test_velocity_halves_when_t_quadruples(self):
        v1 = boundary_velocity(GAUSS, EPS01, 1.0)
        v4 = boundary_velocity(GAUSS, EPS01, 4.0)
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-5)

    def test_steady_profile_has_zero_velocity(self):
        field = _ExponentialProfile(kappa=0.1)
        spec = BoundarySpec(mode="absolute", tau_min=0.5)
        assert boundary_velocity(field, spec, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_error_when_boundary_absent(self):
        with pytest.raises(NumericalError):
            boundary_velocity(_ConstantField(), EPS01, 1.0)


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

    def test_quadrupled_nu_doubles_boundary(self):
        d1 = boundary_radius(self.FACTORY(1.0), EPS01, 4.0)
        d4 = boundary_radius(self.FACTORY(4.0), EPS01, 4.0)
        assert d4 == pytest.approx(2.0 * d1, rel=1e-10)


class TestOptimalCentroid:
    def test_symmetric_pair(self):
        assert optimal_centroid([((0.0,), 1.0), ((2.0,), 1.0)]) == (1.0,)

    def test_weighted_mean(self):
        c = optimal_centroid([((0.0, 0.0), 3.0), ((4.0, 0.0), 1.0)])
        assert c == pytest.approx((1.0, 0.0))

    def test_single_point(self):
        assert optimal_centroid([((2.5, -1.0), 7.0)]) == pytest.approx((2.5, -1.0))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            optimal_centroid([])


class TestFunctionalDerivative:
    R = np.linspace(0.01, 5.0, 400)

    def tau(self, t=1.0):
        return np.array([GAUSS.value(float(r), t) for r in self.R])

    def test_total_intensity(self):
        assert functional_derivative("total_intensity", self.R, self.tau(), 100) == 1.0

    def test_energy_kind(self):
        tau = self.tau()
        idx = 0
        got = functional_derivative("energy", self.R, tau, idx)
        assert got == pytest.approx(2.0 * tau[idx], rel=1e-12)

    def test_energy_at_source_value(self):
        # 2 tau(0, 1) = 2 (4 pi)^{-3/2}; use the first grid node near zero
        r = np.linspace(0.0, 5.0, 500)
        tau = np.array([GAUSS.value(float(x), 1.0) for x in r])
        got = functional_derivative("energy", r, tau, 0)
        assert got == pytest.approx(2.0 * (4.0 * math.pi) ** -1.5, rel=1e-9)

    def test_weighted_exposure(self):
        got = functional_derivative(
            "weighted_exposure", self.R, self.tau(), 42, weight=lambda r: 3.25
        )
        assert got == 3.25

    def test_gradient_energy_matches_analytic_laplacian(self):
        # -2 lap tau with lap tau = tau (r^2/(4 nu^2 t^2) - 3/(2 nu t)) at nu=q=t=1
        r_fine = np.linspace(0.01, 5.0, 4000)
        tau_fine = np.array([GAUSS.value(float(x), 1.0) for x in r_fine])
        idx = 2000
        r = float(r_fine[idx])
        lap = GAUSS.value(r, 1.0) * (r * r / 4.0 - 1.5)
        got = functional_derivative("gradient_energy", r_fine, tau_fine, idx)
        assert got == pytest.approx(-2.0 * lap, rel=1e-4)

    def test_gradient_energy_boundary_rejected(self):
        with pytest.raises(DomainError):
            functional_derivative("gradient_energy", self.R, self.tau(), 0)
        with pytest.raises(DomainError):
            functional_derivative("gradient_energy", self.R, self.tau(), len(self.R) - 1)

    def test_coarse_grid_rejected(self):
        r = np.linspace(0.01, 5.0, 100)
        tau = np.ones(100)
        with pytest.raises(DomainError):
            functional_derivative("energy", r, tau, 10)

    def test_energy_first_variation_converges(self):
        # (E[tau + eta*bump] - E[tau]) / eta -> int (2 tau) bump dx, first order in eta
        r = self.R
        tau = self.tau()
        bump = np.exp(-((r - 1.0) ** 2) / 0.01)
        w = 4.0 * math.pi * r * r

        def integral(values):  # plain trapezoid; works on any numpy version
            return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(r)))

        target = integral(2.0 * tau * bump * w)

        def e_of(f):
            return integral(f * f * w)

        errors = []
        for eta in (1e-2, 1e-3, 1e-4):
            fd = (e_of(tau + eta * bump) - e_of(tau)) / eta
            errors.append(abs(fd - target))
        assert errors[1] == pytest.approx(errors[0] / 10.0, rel=0.2)
        assert errors[2] == pytest.approx(errors[1] / 10.0, rel=0.2)


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
            cumulative_exposure(GAUSS, 1e-300)

    def test_decaying_source_exposure_to_infinity_diverges(self):
        # tau tends to the nonzero Yukawa limit, so its time integral diverges;
        # QUADPACK's extrapolation alone gives -0.0301 with a small error estimate
        field = DecayingSourceField(FieldParams(nu=1.0, q=0.9, lam=0.4))
        with pytest.raises(NumericalError):
            cumulative_exposure(field, 1.0)
