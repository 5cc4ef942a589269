"""Boundary evolution: the threshold ODE, steady states, slow diffusion growth."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import k0 as scipy_k0

from plumefront.dynamics import (
    BoundaryTrajectory,
    adiabatic_boundary,
    boundary_ode_integrate,
    steady_state_boundary,
)
from plumefront.errors import DomainError, NumericalError
from plumefront.fields import (
    BesselField,
    DecayingSourceField,
    FieldEval,
    FieldParams,
    GaussianField,
)
from plumefront.functionals import BoundarySpec, boundary_radius

UNIT = FieldParams(nu=1.0, q=1.0)
GAUSS = GaussianField(UNIT)
EPS01 = BoundarySpec(mode="decay_by_epsilon", epsilon=0.1)
ABS4 = BoundarySpec(mode="absolute", tau_min=1e-4)
XI_STAR = 2.0 * math.sqrt(math.log(10.0 / 9.0))


class _DampedGaussian:
    """Impulse kernel with exponentially damped amplitude (test-local field)."""

    r_min = 0.0
    dim = 3

    def __init__(self, lam):
        self.lam = lam
        self._g = GAUSS

    def value(self, r, t):
        return math.exp(-self.lam * t) * self._g.value(r, t)

    def d_dr(self, r, t):
        return math.exp(-self.lam * t) * self._g.d_dr(r, t)

    def d_dt(self, r, t):
        return math.exp(-self.lam * t) * (self._g.d_dt(r, t) - self.lam * self._g.value(r, t))

    def diffusion_scale(self, t):
        return math.sqrt(t)


class _SteadyYukawa:
    r_min = 0.0
    dim = 3

    def value(self, r, t):
        return math.exp(-r) / max(r, 1e-12)

    def d_dr(self, r, t):
        return -(1.0 + 1.0 / r) * self.value(r, t)

    def d_dt(self, r, t):
        return 0.0

    def eval(self, r, t):
        return FieldEval(self.value(r, t), self.d_dr(r, t), self.d_dt(r, t))

    def diffusion_scale(self, t):
        return 1.0


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


class TestBoundaryOde:
    def test_gaussian_relative_threshold_tracks_closed_form(self):
        traj = boundary_ode_integrate(GAUSS, XI_STAR, 1.0, 10.0, steps=1000, spec=EPS01)
        exact = XI_STAR * np.sqrt(traj.times)
        max_rel = np.max(np.abs(traj.radii - exact) / exact)
        assert max_rel < 1e-4
        assert traj.terminated_reason == "horizon_reached"

    def test_fourth_order_convergence(self):
        def max_err(steps):
            traj = boundary_ode_integrate(GAUSS, XI_STAR, 1.0, 10.0, steps=steps, spec=EPS01)
            exact = XI_STAR * np.sqrt(traj.times)
            return np.max(np.abs(traj.radii - exact) / exact)

        e1, e2 = max_err(250), max_err(500)
        assert 8.0 < e1 / e2 < 32.0  # ~16x per halving

    def test_endpoint_matches_example(self):
        traj = boundary_ode_integrate(GAUSS, XI_STAR, 1.0, 4.0, steps=1000, spec=EPS01)
        assert traj.radii[-1] == pytest.approx(2.0 * XI_STAR, rel=1e-6)
        assert traj.radii[-1] == pytest.approx(1.29837138389800, rel=1e-6)

    def test_steady_field_keeps_boundary_fixed(self):
        field = _SteadyYukawa()
        spec = BoundarySpec(mode="absolute", tau_min=0.05)
        d0 = boundary_radius(field, spec, 1.0)
        traj = boundary_ode_integrate(field, d0, 1.0, 5.0, steps=100, spec=spec)
        assert np.allclose(traj.radii, d0, rtol=1e-12)
        assert traj.terminated_reason == "steady_state_detected"

    def test_damped_amplitude_expands_early(self):
        # Deriving dd*/dt = -tau_t/tau_r for the damped kernel gives
        # (2 nu t / d*)(d*^2/(4 nu t^2) - 3/(2t) - lam): the squared-radius
        # term enters with the opposite sign to the damping terms.  Early
        # on, the absolute-threshold boundary sits far enough out that the
        # squared-radius term dominates and the boundary expands.
        lam = 0.5
        field = _DampedGaussian(lam)
        t = 0.5
        spec = BoundarySpec(mode="absolute", tau_min=1e-6)
        d_star = boundary_radius(field, spec, t)
        rate = -field.d_dt(d_star, t) / field.d_dr(d_star, t)
        derived = 2.0 * t / d_star * (d_star**2 / (4.0 * t * t) - 1.5 / t - lam)
        assert rate == pytest.approx(derived, rel=1e-10)
        assert rate > 0

    @pytest.mark.parametrize("w0", [0.6, 2.6, 5.0, 12.6])
    def test_bessel_absolute_threshold_tracks_k0_level_set(self, w0):
        # (A/t) K0(r / (2 sqrt(nu t))) = tau_min: w = r/(2 sqrt(nu t)) solves
        # K0(w) = tau_min t / A, found on scipy's K0.  The argument falls from
        # w0 as t triples (2.6 -> 1.7 and 12.6 -> 11.5 cross the K seams at
        # 2 and 12).  RK4 with 200 steps stays within about 2e-11.
        nu, amp, t0 = 1.3, 1.7, 2.0
        field = BesselField(FieldParams(nu=nu, dim=2, source_pos=(0.0, 0.0)), amp)
        tau_min = amp / t0 * float(scipy_k0(w0))
        spec = BoundarySpec(mode="absolute", tau_min=tau_min)

        def exact(t):
            w = brentq(lambda x: scipy_k0(x) - tau_min * t / amp, 1e-12, 700.0,
                       xtol=1e-15, rtol=1e-15)
            return 2.0 * math.sqrt(nu * t) * w

        traj = boundary_ode_integrate(field, exact(t0), t0, 3.0 * t0, steps=200, spec=spec)
        assert traj.terminated_reason == "horizon_reached"
        radii = np.array([exact(t) for t in traj.times[::10]])
        np.testing.assert_allclose(traj.radii[::10], radii, rtol=1e-9, atol=0.0)

    def test_singular_gradient_detected(self):
        class Flat:
            r_min = 0.0

            def d_dr(self, r, t):
                return 0.0

            def d_dt(self, r, t):
                return 1.0

            def eval(self, r, t):
                return FieldEval(t, self.d_dr(r, t), self.d_dt(r, t))

        with pytest.raises(NumericalError):
            boundary_ode_integrate(Flat(), 1.0, 1.0, 2.0, steps=10)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            boundary_ode_integrate(GAUSS, -1.0, 1.0, 2.0, steps=10)
        with pytest.raises(DomainError):
            boundary_ode_integrate(GAUSS, 1.0, 2.0, 1.0, steps=10)
        with pytest.raises(DomainError):
            boundary_ode_integrate(GAUSS, 1.0, 1.0, 2.0, steps=0)

    @pytest.mark.parametrize("steps", [2.5, 10.0, "10", None])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(DomainError):
            boundary_ode_integrate(GAUSS, 1.0, 1.0, 2.0, steps=steps)

    @pytest.mark.parametrize("spec", [EPS01, ABS4, None], ids=["relative", "absolute", "none"])
    @pytest.mark.parametrize("steps", [1, 7, 100])
    def test_one_eval_per_stage_and_per_source_time(self, spec, steps):
        field = _CountingGaussian()
        d0 = boundary_radius(GAUSS, spec or ABS4, 1.0)
        traj = boundary_ode_integrate(field, d0, 1.0, 2.0, steps=steps, spec=spec)
        assert traj.terminated_reason == "horizon_reached"
        assert field.elsewhere == 4 * steps
        assert field.at_source == (2 * steps + 1 if spec is EPS01 else 0)


class TestBoundaryTrajectory:
    @pytest.mark.parametrize("times,radii,message", [
        ([0.0, 1.0], [1.0], "equal length"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
        ([1.0, 0.5], [1.0, 2.0], "strictly increasing"),
    ], ids=["length", "repeated_time", "decreasing_time"])
    def test_malformed_trajectory_rejected(self, times, radii, message):
        with pytest.raises(DomainError, match=message):
            BoundaryTrajectory(np.array(times), np.array(radii), "horizon_reached")


class TestSteadyStateBoundary:
    @pytest.mark.parametrize("position", [0, 1, 2, 3], ids=["nu", "lam", "q0", "tau_min"])
    def test_non_positive_argument_rejected(self, position):
        args = [1.0, 1.0, math.e, 1.0]
        args[position] = 0.0
        with pytest.raises(DomainError, match="nu, lam, q0, tau_min > 0"):
            steady_state_boundary(*args)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("position, name", enumerate(["nu", "lam", "q0", "tau_min"]))
    def test_non_finite_argument_rejected(self, position, name, value):
        args = [1.0, 1.0, 1.0, 1e-3]
        args[position] = value
        with pytest.raises(DomainError, match=f"> 0 and finite, got {name}={value}"):
            steady_state_boundary(*args)

    def test_constructed_identity(self):
        # nu = lam = tau_min = 1, q0 = e makes the log argument e
        assert steady_state_boundary(1.0, 1.0, math.e, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_source_scaling_adds_screening_length(self):
        base = steady_state_boundary(1.0, 1.0, math.e, 1.0)
        scaled = steady_state_boundary(1.0, 1.0, math.e * math.e, 1.0)
        assert scaled - base == pytest.approx(1.0, rel=1e-12)  # + l * ln(e)

    def test_nu_rescaling(self):
        # quadrupling nu doubles l and rescales per the closed form
        q0, lam, tau = 50.0, 1.0, 1e-3
        d1 = steady_state_boundary(1.0, lam, q0, tau)
        d4 = steady_state_boundary(4.0, lam, q0, tau)
        l1, l4 = 1.0, 2.0
        assert d4 == pytest.approx(l4 * math.log(q0 / (lam * l4 * tau)), rel=1e-12)
        assert d1 == pytest.approx(l1 * math.log(q0 / (lam * l1 * tau)), rel=1e-12)

    @pytest.mark.parametrize("nu, lam", [(1e200, 1e-200), (1e-200, 1e200), (1e-300, 1e100)])
    def test_length_whose_square_leaves_the_floats(self, nu, lam):
        # nu / lam overflows or underflows, but l = sqrt(nu / lam) is a normal float
        length = 10.0 ** ((math.log10(nu) - math.log10(lam)) / 2.0)
        expected = length * math.log(1.0 / (lam * length * 1e-3))
        assert steady_state_boundary(nu, lam, 1.0, 1e-3) == pytest.approx(expected, rel=1e-12)

    def test_threshold_above_profile_returns_none(self):
        assert steady_state_boundary(1.0, 1.0, 0.5, 1.0) is None

    def test_trajectory_stalls_at_true_steady_crossing(self):
        # The ODE on the decaying-emission field must stall where the steady
        # screened profile crosses the threshold (computed independently by
        # root-finding on the closed-form Yukawa limit).
        field = DecayingSourceField(FieldParams(nu=1.0, q=1.0, lam=1.0))
        tau_min = 1e-6
        spec = BoundarySpec(mode="absolute", tau_min=tau_min)
        true_cross = brentq(lambda r: field.steady_state_value(r) - tau_min, 1e-3, 100.0)
        d0 = boundary_radius(field, spec, 0.5)
        traj = boundary_ode_integrate(field, d0, 0.5, 25.0, steps=400)
        assert traj.radii[-1] == pytest.approx(true_cross, rel=0.02)

    def test_closed_form_tracks_true_crossing_to_leading_log_order(self):
        # The quoted closed form drops the 1/(4 pi nu r) prefactor of the
        # steady profile, so it overshoots the true crossing by
        # ~l*ln(4 pi x): leading-order agreement only, checked as such.
        nu = lam = 1.0
        for tau_min in (1e-6, 1e-12, 1e-24):
            formula = steady_state_boundary(nu, lam, 1.0, tau_min)
            true_cross = brentq(
                lambda r: math.exp(-r) / (4.0 * math.pi * nu * r) - tau_min, 1e-3, 200.0
            )
            gap = formula - true_cross
            x = true_cross
            assert gap == pytest.approx(math.log(4.0 * math.pi * x), rel=0.25)
            # relative agreement improves as the boundary moves out
            assert abs(gap) / true_cross < abs(
                steady_state_boundary(nu, lam, 1.0, 1e-3)
                - brentq(lambda r: math.exp(-r) / (4 * math.pi * r) - 1e-3, 1e-3, 200.0)
            ) / brentq(lambda r: math.exp(-r) / (4 * math.pi * r) - 1e-3, 1e-3, 200.0)


class TestAdiabaticBoundary:
    @pytest.mark.parametrize("nu0,alpha,eps,t,message", [
        (0.0, 0.05, 0.1, 2.0, "nu0 must be > 0"),
        (1.0, -0.01, 0.1, 2.0, "alpha must be >= 0"),
        (1.0, 0.05, 0.0, 2.0, r"eps_threshold must be in \(0,1\)"),
        (1.0, 0.05, 1.0, 2.0, r"eps_threshold must be in \(0,1\)"),
        (1.0, 0.05, 0.1, -1.0, "t must be >= 0"),
    ], ids=["nu0", "alpha", "eps_zero", "eps_one", "t"])
    def test_bad_argument_rejected(self, nu0, alpha, eps, t, message):
        with pytest.raises(DomainError, match=message):
            adiabatic_boundary(nu0, alpha, eps, t)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("position, name", enumerate(["nu0", "alpha", "eps_threshold", "t"]))
    def test_non_finite_argument_rejected(self, position, name, value):
        args = [1.0, 0.1, 0.1, 1.0]
        args[position] = value
        with pytest.raises(DomainError, match=f"^{name} must be .*, got {value}$"):
            adiabatic_boundary(*args)

    def test_reduces_to_static_case(self):
        res = adiabatic_boundary(1.0, 0.0, 0.1, 4.0)
        assert res.exact == pytest.approx(1.29837138389800, rel=1e-12)
        assert res.first_order == pytest.approx(res.exact, rel=1e-12)

    def test_worked_example(self):
        res = adiabatic_boundary(1.0, 0.05, 0.1, 4.0)
        assert res.exact == pytest.approx(1.42229458996027, rel=1e-10)
        assert res.first_order == pytest.approx(1.42820852228781, rel=1e-10)
        gap = (res.first_order - res.exact) / res.exact
        assert gap == pytest.approx(0.0041580, rel=1e-3)
        assert gap <= 0.15 * (0.05 * 4.0) ** 2

    def test_vanishes_at_zero_time(self):
        assert adiabatic_boundary(1.0, 0.05, 0.1, 0.0).exact == 0.0

    def test_taylor_gap_bound(self):
        # |exact - first-order|/exact <= 0.15 (alpha t)^2 on alpha t in [0.01, 0.3]
        for at in np.linspace(0.01, 0.3, 30):
            res = adiabatic_boundary(1.0, at / 2.0, 0.1, 2.0)
            gap = abs(res.first_order - res.exact) / res.exact
            assert gap <= 0.15 * at * at

    def test_strictly_increasing_in_alpha(self):
        alphas = np.linspace(0.0, 0.5, 20)
        vals = [adiabatic_boundary(1.0, float(a), 0.1, 3.0).exact for a in alphas]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("nu0,alpha,eps,t", [(1.0, 0.05, 0.1, 2.0), (0.7, 0.1, 0.3, 3.0),
                                                 (2.0, 0.02, 0.05, 10.0)])
    def test_integrated_is_the_boundary_of_the_true_solution(self, nu0, alpha, eps, t):
        # 40-digit mpmath: the Gaussian with variance growing as int_0^t nu solves
        # tau_t = nu(t) lap tau in 3D, and its eps-crossing is `integrated`
        def tau(r, s):
            phi = nu0 * (s + alpha * s * s / 2)
            return (4 * mp.pi * phi) ** -1.5 * mp.exp(-r * r / (4 * phi))

        res = adiabatic_boundary(nu0, alpha, eps, t)
        with mp.workdps(40):
            t_mp = mp.mpf(t)
            for r in (0.3, 1.0, 2.5, 6.0):
                r_mp = mp.mpf(r)
                tau_t = mp.diff(lambda s: tau(r_mp, s), t_mp)
                laplacian = (mp.diff(lambda x: tau(x, t_mp), r_mp, 2)
                             + 2 / r_mp * mp.diff(lambda x: tau(x, t_mp), r_mp))
                residual = tau_t - nu0 * (1 + alpha * t_mp) * laplacian
                assert abs(residual / tau_t) <= 1e-30
            crossing = mp.findroot(lambda x: tau(x, t_mp) - (1 - mp.mpf(eps)) * tau(0, t_mp),
                                   res.exact)
        assert res.integrated == pytest.approx(float(crossing), rel=1e-14, abs=0.0)

    def test_first_order_expands_exact_not_integrated(self):
        res = adiabatic_boundary(1.0, 0.05, 0.1, 2.0)  # alpha t = 0.1
        assert res.first_order / res.integrated - 1.0 == pytest.approx(0.025, abs=1e-3)
        assert abs(res.first_order / res.exact - 1.0) <= 0.15 * 0.1 ** 2


@pytest.mark.parametrize("field", [
    BesselField(FieldParams(nu=1.0, q=1.0, dim=2, source_pos=(0.0, 0.0)), amplitude=1.0),
    DecayingSourceField(FieldParams(nu=1.0, q=1.0, lam=1.0)),
], ids=["bessel", "decaying"])
def test_relative_spec_needs_finite_source_value(field):
    # the source rate reads tau_t at r_min = 0, where these fields diverge
    spec = BoundarySpec(mode="decay_to_fraction", fraction=0.3)
    with pytest.raises(DomainError, match="relative modes need a finite source value"):
        boundary_ode_integrate(field, 1.0, 1.0, 2.0, steps=10, spec=spec)


@pytest.mark.parametrize("steps", [50, 1000])
def test_shrinking_boundary_vanishes_at_the_source(steps):
    # tau(0, t) = (4 pi t)^-1.5 falls to tau_min = 1e-3 at t_ext = 10^2 / 4 pi = 7.96,
    # where the boundary closes onto the source; at 50 steps an RK4 stage radius
    # of the step that crosses it is negative
    spec = BoundarySpec(mode="absolute", tau_min=1e-3)
    t_ext = 1e3 ** (2.0 / 3.0) / (4.0 * math.pi)
    d0 = boundary_radius(GAUSS, spec, 1.0)
    traj = boundary_ode_integrate(GAUSS, d0, 1.0, 15.9, steps=steps, spec=spec)
    assert traj.terminated_reason == "boundary_vanished"
    assert traj.times[-1] < t_ext < traj.times[-1] + 2 * (15.9 - 1.0) / steps
    assert np.all(traj.radii > 0) and np.all(np.diff(traj.radii[len(traj.radii) // 2:]) < 0)
    # the points kept are those of the run that stops short of t_ext
    n = len(traj.times) - 1
    short = boundary_ode_integrate(GAUSS, d0, 1.0, traj.times[-1], steps=n, spec=spec)
    assert short.terminated_reason == "horizon_reached"
    np.testing.assert_allclose(short.radii, traj.radii, rtol=1e-12)
