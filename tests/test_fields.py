"""Field solutions: closed forms, governing-equation residuals, conservation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, hyp1f1

from plumefront.errors import DomainError, NumericalError, PlumefrontError
from plumefront.fields import (
    BesselField,
    DecayingSourceField,
    FieldParams,
    GaussianField,
    KummerField,
    SourceEvent,
    bessel_field,
    decaying_source_field,
    gaussian_field,
    greens_eval,
    kummer_field,
    superpose,
)
from plumefront.specfun import bessel_k0, kummer_m

UNIT = FieldParams(nu=1.0, q=1.0)


def test_field_params_validation():
    with pytest.raises(DomainError):
        FieldParams(nu=0.0)
    with pytest.raises(DomainError):
        FieldParams(nu=1.0, q=-1.0)
    with pytest.raises(DomainError):
        FieldParams(nu=1.0, lam=-0.1)
    with pytest.raises(DomainError):
        FieldParams(nu=1.0, dim=4)


class TestGaussianField:
    def test_peak_value(self):
        ev = gaussian_field(UNIT, r=0.0, t=1.0)
        assert ev.value == pytest.approx((4.0 * math.pi) ** -1.5, rel=1e-14)

    def test_off_center_value(self):
        ev = gaussian_field(UNIT, r=2.0, t=1.0)
        assert ev.value == pytest.approx((4.0 * math.pi) ** -1.5 * math.exp(-1.0), rel=1e-14)

    def test_gradient_zero_at_source(self):
        assert gaussian_field(UNIT, r=0.0, t=3.7).d_dr == 0.0

    def test_gradient_points_inward(self):
        assert gaussian_field(UNIT, r=1.0, t=1.0).d_dr < 0

    def test_derivatives_match_finite_differences(self):
        g = GaussianField(UNIT)
        for r, t in [(0.5, 1.0), (2.0, 0.7), (4.0, 3.0)]:
            hr, ht = 1e-6 * max(r, 1.0), 1e-6 * t
            fd_r = (g.value(r + hr, t) - g.value(r - hr, t)) / (2 * hr)
            fd_t = (g.value(r, t + ht) - g.value(r, t - ht)) / (2 * ht)
            assert g.d_dr(r, t) == pytest.approx(fd_r, rel=1e-6)
            assert g.d_dt(r, t) == pytest.approx(fd_t, rel=1e-6)

    def test_eval_is_bitwise_the_three_methods(self):
        g = GaussianField(FieldParams(nu=0.7, q=1.3))
        for r, t in [(0.0, 1.0), (0.5, 1.0), (2.0, 0.7), (4.0, 3.0), (30.0, 0.2)]:
            ev = g.eval(r, t)
            assert (ev.value, ev.d_dr, ev.d_dt) == (g.value(r, t), g.d_dr(r, t), g.d_dt(r, t))

    def test_diffusion_residual_vanishes(self):
        # d tau/dt = nu (tau'' + (2/r) tau') checked with central differences.
        # The step follows the eps^(1/4) rule for second differences; a step
        # proportional to 1e-5 r drowns in roundoff (eps*tau/h^2) at small r.
        g = GaussianField(UNIT)
        for r in (0.1, 0.5, 1.0, 3.0, 5.0):
            for t in (0.5, 1.0, 4.0, 10.0):
                h = 1e-4 * max(r, 1.0)
                lap = (g.value(r + h, t) - 2 * g.value(r, t) + g.value(r - h, t)) / h**2
                lap += 2.0 / r * (g.value(r + h, t) - g.value(r - h, t)) / (2 * h)
                assert g.d_dt(r, t) == pytest.approx(lap, rel=1e-5)

    def test_mass_conserved(self):
        g = GaussianField(UNIT)
        for t in (0.5, 1.0, 4.0):
            total, _ = quad(lambda r: 4.0 * math.pi * r * r * g.value(r, t), 0, 60.0 * math.sqrt(t))
            assert total == pytest.approx(1.0, rel=1e-6)

    def test_self_similar_scaling(self):
        # t^{3/2} tau(xi sqrt(t), t) is independent of t
        g = GaussianField(UNIT)
        xi = 1.3
        ref = g.value(xi, 1.0)
        for t in (0.25, 2.0, 9.0, 100.0):
            assert t**1.5 * g.value(xi * math.sqrt(t), t) == pytest.approx(ref, rel=1e-10)

    def test_time_domain(self):
        with pytest.raises(DomainError):
            gaussian_field(UNIT, r=1.0, t=0.0)


class TestBesselField:
    PARAMS = FieldParams(nu=1.0, q=1.0, dim=2, source_pos=(0.0, 0.0))

    def test_value_is_scaled_k0(self):
        ev = bessel_field(self.PARAMS, amplitude=1.0, r=2.0, t=1.0)
        assert ev.value == pytest.approx(bessel_k0(1.0).value, rel=1e-12)

    def test_one_over_t_amplitude_scaling(self):
        ev = bessel_field(self.PARAMS, amplitude=1.0, r=2.0, t=4.0)
        assert ev.value == pytest.approx(bessel_k0(0.5).value / 4.0, rel=1e-12)

    def test_positive(self):
        for r in (0.1, 1.0, 5.0):
            for t in (0.2, 1.0, 8.0):
                assert bessel_field(self.PARAMS, 2.0, r, t).value > 0

    def test_derivatives_match_finite_differences(self):
        f = BesselField(self.PARAMS, amplitude=1.5)
        for r, t in [(0.5, 1.0), (2.0, 0.5), (6.0, 2.0)]:
            hr, ht = 1e-6 * r, 1e-6 * t
            fd_r = (f.value(r + hr, t) - f.value(r - hr, t)) / (2 * hr)
            fd_t = (f.value(r, t + ht) - f.value(r, t - ht)) / (2 * ht)
            assert f.d_dr(r, t) == pytest.approx(fd_r, rel=1e-6)
            assert f.d_dt(r, t) == pytest.approx(fd_t, rel=1e-6)

    def test_eval_agrees_with_the_three_methods(self):
        # arguments w = r / (2 sqrt(nu t)) in all three K regimes
        f = BesselField(self.PARAMS, amplitude=1.5)
        for r, t in [(0.5, 1.0), (3.9, 1.0), (4.0, 1.0), (10.0, 1.0), (24.0, 1.0), (60.0, 2.0)]:
            ev = f.eval(r, t)
            assert (ev.value, ev.d_dr) == (f.value(r, t), f.d_dr(r, t))
            assert ev.d_dt == pytest.approx(f.d_dt(r, t), rel=1e-15, abs=0.0)

    def test_singular_at_origin(self):
        with pytest.raises(DomainError):
            bessel_field(self.PARAMS, 1.0, r=0.0, t=1.0)


class TestKummerField:
    def test_empty_sum(self):
        assert kummer_field([], UNIT, r=3.0, t=2.0) == 0.0

    def test_leading_term_at_source(self):
        assert kummer_field([(1.0, 0)], UNIT, r=0.0, t=1.0) == pytest.approx(1.0, rel=1e-14)

    def test_matches_kummer_series(self):
        val = kummer_field([(1.0, 0)], UNIT, r=2.0, t=1.0)
        assert val == pytest.approx(kummer_m(0.5, 1.0, 1.0).value, rel=1e-12)

    def test_single_term_is_rescaled_bessel_i_composition(self):
        # via the verified connection M(1/2,1,2w) = e^w I0(w), w = r^2/(8 nu t)
        from plumefront.specfun import bessel_i

        r, t = 2.5, 1.7
        w = r * r / (8.0 * t)
        expected = math.exp(w) * bessel_i(0.0, w).value / t
        assert kummer_field([(1.0, 0)], UNIT, r=r, t=t) == pytest.approx(expected, rel=1e-8)

    def test_linear_in_coefficients(self):
        a = kummer_field([(1.0, 0), (0.5, 1)], UNIT, r=1.0, t=2.0)
        b = kummer_field([(2.0, 0), (1.0, 1)], UNIT, r=1.0, t=2.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_matches_scipy_on_both_sides_of_z_30(self):
        coeffs = ((1.0, 0), (0.0, 1), (1.0, 2))
        params = FieldParams(nu=0.7, q=1.0)
        t = 1.3
        for z in np.linspace(24.0, 36.0, 49):
            r = math.sqrt(4.0 * params.nu * t * z)
            z_field = r * r / (4.0 * params.nu * t)
            expected = sum(c * hyp1f1(n + 0.5, 2.0 * n + 1.0, z_field) for c, n in coeffs) / t
            assert kummer_field(coeffs, params, r=r, t=t) == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=60)
@given(
    st.floats(0.0, 20.0),
    st.floats(0.01, 50.0),
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
)
def test_fields_positive_with_inward_gradient(r, t, nu, q):
    g = GaussianField(FieldParams(nu=nu, q=q))
    assert g.value(r, t) >= 0.0
    assert g.d_dr(r, t) <= 0.0
    b = BesselField(FieldParams(nu=nu, q=q, dim=2, source_pos=(0.0, 0.0)), amplitude=q)
    assert b.value(r + 0.01, t) > 0.0
    assert b.d_dr(r + 0.01, t) < 0.0


def _decaying_closed_form(nu, q, lam, r, t):
    """erfc closed form of the decaying-emission convolution (test oracle)."""
    a = r * r / (4.0 * nu)
    root = math.sqrt(a * lam)
    core = 0.5 * math.sqrt(math.pi / a) * (
        math.exp(-2.0 * root) * erfc(math.sqrt(a / t) - math.sqrt(lam * t))
        + math.exp(2.0 * root) * erfc(math.sqrt(a / t) + math.sqrt(lam * t))
    )
    return q / (4.0 * math.pi * nu) ** 1.5 * core


class TestDecayingSourceField:
    PARAMS = FieldParams(nu=1.0, q=1.0, lam=0.5)

    def test_quadrature_matches_closed_form(self):
        f = DecayingSourceField(self.PARAMS)
        for r, t in [(0.3, 0.5), (1.0, 1.0), (2.0, 5.0), (4.0, 40.0)]:
            expected = _decaying_closed_form(1.0, 1.0, 0.5, r, t)
            assert f.value(r, t) == pytest.approx(expected, rel=1e-7)

    def test_small_lambda_matches_sustained_source(self):
        p = FieldParams(nu=1.0, q=1.0, lam=1e-8)
        g = GaussianField(UNIT)
        sustained, _ = quad(lambda s: g.value(1.0, s) if s > 0 else 0.0, 0.0, 1.0, epsrel=1e-10)
        assert decaying_source_field(p, r=1.0, t=1.0) == pytest.approx(sustained, rel=1e-4)

    def test_settles_to_steady_state(self):
        # less than 1% relative motion between lam*t = 20 and lam*t = 40
        f = DecayingSourceField(self.PARAMS)
        t1, t2 = 40.0, 80.0
        v1, v2 = f.value(2.0, t1), f.value(2.0, t2)
        assert abs(v2 - v1) / v1 < 0.01

    def test_far_field_screening_slope(self):
        # ln(r1 tau(r1) / (r2 tau(r2))) = (r2 - r1) sqrt(lam/nu) at steady state
        f = DecayingSourceField(self.PARAMS)
        t = 400.0
        r1, r2 = 4.0, 8.0
        slope = math.log(r1 * f.value(r1, t) / (r2 * f.value(r2, t))) / (r2 - r1)
        assert slope == pytest.approx(math.sqrt(0.5), rel=0.02)

    def test_steady_state_value_matches_long_time_limit(self):
        f = DecayingSourceField(self.PARAMS)
        assert f.value(1.5, 500.0) == pytest.approx(f.steady_state_value(1.5), rel=1e-6)

    def test_derivatives_match_finite_differences(self):
        f = DecayingSourceField(self.PARAMS)
        r, t = 1.3, 2.7
        h = 1e-6
        fd_r = (f.value(r + h, t) - f.value(r - h, t)) / (2 * h)
        fd_t = (f.value(r, t + h) - f.value(r, t - h)) / (2 * h)
        assert f.d_dr(r, t) == pytest.approx(fd_r, rel=1e-6)
        assert f.d_dt(r, t) == pytest.approx(fd_t, rel=1e-5)

    def test_domain(self):
        f = DecayingSourceField(self.PARAMS)
        with pytest.raises(DomainError):
            f.value(0.0, 1.0)
        with pytest.raises(DomainError):
            f.value(1.0, 0.0)
        with pytest.raises(DomainError):
            DecayingSourceField(FieldParams(nu=1.0, q=1.0, lam=0.0))


@pytest.mark.parametrize("r,t", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                 (1.0, math.inf), (-math.inf, 1.0)])
@pytest.mark.parametrize("field", [
    GaussianField(UNIT),
    BesselField(FieldParams(nu=1.0, q=1.0, dim=2, source_pos=(0.0, 0.0)), amplitude=1.0),
    KummerField([(1.0, 0)], UNIT),
    DecayingSourceField(FieldParams(nu=1.0, q=1.0, lam=1.0)),
], ids=["gaussian", "bessel", "kummer", "decaying"])
def test_non_finite_arguments_rejected(field, r, t):
    with pytest.raises(DomainError):
        field.value(r, t)
    if hasattr(field, "eval"):
        with pytest.raises(DomainError):
            field.eval(r, t)


class TestGreensFunction:
    def test_causality(self):
        assert greens_eval((1.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0), 2.0, nu=1.0) == 0.0
        assert greens_eval((1.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0), 1.0, nu=1.0) == 0.0

    def test_coincident_points(self):
        val = greens_eval((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0), 0.0, nu=1.0)
        assert val == pytest.approx((4.0 * math.pi) ** -1.5, rel=1e-14)

    def test_unit_mass(self):
        total, _ = quad(
            lambda r: 4.0 * math.pi * r * r
            * greens_eval((r, 0.0, 0.0), 1.5, (0.0, 0.0, 0.0), 0.5, nu=0.7),
            0.0, 50.0,
        )
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_reduces_to_gaussian_field(self):
        g = GaussianField(UNIT)
        val = greens_eval((2.0, 0.0, 0.0), 3.0, (0.0, 0.0, 0.0), 0.0, nu=1.0)
        assert val == pytest.approx(g.value(2.0, 3.0), rel=1e-14)

    @pytest.mark.parametrize("x,y", [((1.0, 0.0), (0.0, 0.0, 0.0)),
                                     ((1.0, 0.0, 0.0), (0.0, 0.0)),
                                     (np.zeros(4), (0.0, 0.0, 0.0))])
    def test_dimension_mismatch_rejected(self, x, y):
        with pytest.raises(DomainError):
            greens_eval(x, 2.0, y, 0.0, nu=1.0)
        with pytest.raises(DomainError):
            superpose([SourceEvent(pos=y, time=0.0, strength=1.0)], 1.0, x, 2.0)

    @pytest.mark.parametrize("x,t,s", [((math.nan, 0.0, 0.0), 2.0, 0.0),
                                       ((0.0, math.inf, 0.0), 2.0, 0.0),
                                       ((1.0, 0.0, 0.0), math.nan, 0.0),
                                       ((1.0, 0.0, 0.0), 2.0, math.nan),
                                       ((1.0, 0.0, 0.0), math.inf, 0.0),
                                       ((math.nan, 0.0, 0.0), 0.0, 1.0)])  # before s, too
    def test_non_finite_arguments_rejected(self, x, t, s):
        with pytest.raises(DomainError):
            greens_eval(x, t, (0.0, 0.0, 0.0), s, nu=1.0)
        with pytest.raises(DomainError):
            greens_eval((0.0, 0.0, 0.0), t, x, s, nu=1.0)


class TestSuperposition:
    def test_empty(self):
        assert superpose([], 1.0, (0.0, 0.0, 0.0), 1.0) == 0.0

    def test_single_event_is_gaussian(self):
        events = [SourceEvent(pos=(0.0, 0.0, 0.0), time=0.0, strength=2.5)]
        g = GaussianField(FieldParams(nu=1.0, q=2.5))
        assert superpose(events, 1.0, (1.0, 0.0, 0.0), 2.0) == pytest.approx(
            g.value(1.0, 2.0), rel=1e-14
        )

    def test_step_change_in_source_strength(self):
        # emission at t=0 of Q0 plus a second emission of Q0*dq at t0;
        # evaluated at t = 2 t0 it is the sum of the two component kernels
        q0, dq, t0 = 1.0, 0.4, 1.0
        events = [
            SourceEvent(pos=(0.0, 0.0, 0.0), time=0.0, strength=q0),
            SourceEvent(pos=(0.0, 0.0, 0.0), time=t0, strength=q0 * dq),
        ]
        x, t = (1.5, 0.0, 0.0), 2.0 * t0
        old = greens_eval(x, t, (0.0, 0.0, 0.0), 0.0, 1.0) * q0
        new = greens_eval(x, t, (0.0, 0.0, 0.0), t0, 1.0) * q0 * dq
        assert superpose(events, 1.0, x, t) == pytest.approx(old + new, rel=1e-14)

    def test_linear_in_strengths(self):
        rng = np.random.default_rng(0)
        events = [
            SourceEvent(pos=tuple(rng.normal(size=3)), time=float(s), strength=float(w))
            for s, w in zip(rng.uniform(0, 1, 5), rng.uniform(0.5, 2.0, 5))
        ]
        scaled = [SourceEvent(ev.pos, ev.time, 3.0 * ev.strength) for ev in events]
        x, t = (0.3, -0.2, 0.5), 2.0
        assert superpose(scaled, 1.0, x, t) == pytest.approx(
            3.0 * superpose(events, 1.0, x, t), rel=1e-14
        )

    def test_strength_must_be_positive(self):
        with pytest.raises(DomainError):
            SourceEvent(pos=(0.0, 0.0, 0.0), time=0.0, strength=0.0)


class TestDomainEdges:
    """Extreme (nu, r, t): every call returns floats without NaN or raises a
    PlumefrontError, never NaN, ZeroDivisionError or OverflowError."""

    RADII = [0.0, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]
    TIMES = [1e-320, 1e-300, 1e-220, 1e-163, 1e-8, 1.0, 1e8, 1e300]
    NUS = [1e-300, 1.0, 1e300]

    @staticmethod
    def _calls(nu):
        gauss = GaussianField(FieldParams(nu=nu, q=1.0))
        bessel = BesselField(FieldParams(nu=nu, dim=2, source_pos=(0.0, 0.0)), 1.0)
        kummer = KummerField([(1, 0), (0.5, 2)], FieldParams(nu=nu))
        decaying = DecayingSourceField(FieldParams(nu=nu, lam=0.5))
        return [gauss.value, gauss.eval, bessel.value, bessel.eval, kummer.value,
                decaying.value, decaying.eval,
                lambda r, t: greens_eval((r, 0.0, 0.0), t, (0.0, 0.0, 0.0), 0.0, nu)]

    def test_no_nan_and_no_raw_exception(self):
        bad = []
        for nu in self.NUS:
            for call in self._calls(nu):
                for r in self.RADII:
                    for t in self.TIMES:
                        try:
                            out = call(r, t)
                        except PlumefrontError:
                            continue
                        except Exception as exc:  # the failure under test
                            bad.append((nu, r, t, type(exc).__name__))
                            continue
                        values = tuple(out) if isinstance(out, tuple) else (out,)
                        if not all(isinstance(v, float) and not math.isnan(v) for v in values):
                            bad.append((nu, r, t, values))
        assert bad == []

    @pytest.mark.parametrize("t", [1e-220, 1e300])
    def test_gaussian_and_greens_underflow_to_zero(self, t):
        assert GaussianField(UNIT).value(1.0, t) == 0.0
        assert gaussian_field(UNIT, 1.0, t) == (0.0, -0.0, 0.0)
        assert greens_eval((1.0, 0.0, 0.0), t, (0.0, 0.0, 0.0), 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("make", [
        lambda: FieldParams(nu=1.0, lam=math.nan),
        lambda: FieldParams(nu=math.inf),
        lambda: FieldParams(nu=1.0, q=math.inf),
        lambda: KummerField([(1.0, 1.5)], UNIT),
        lambda: KummerField([(math.nan, 0)], UNIT),
        lambda: SourceEvent(pos=(0.0, 0.0, 0.0), time=0.0, strength=math.inf),
        lambda: BesselField(FieldParams(nu=1.0, dim=2, source_pos=(0.0, 0.0)), math.inf),
    ], ids=["lam-nan", "nu-inf", "q-inf", "kummer-order", "kummer-coeff", "strength-inf",
            "amplitude-inf"])
    def test_non_finite_or_non_integer_parameters_raise(self, make):
        with pytest.raises(DomainError):
            make()

    def test_kummer_zero_coefficient_at_overflowed_term_raises(self):
        # M(3/2, 3, z) overflows at z = 1000, and 0 * inf would be NaN
        with pytest.raises(NumericalError):
            KummerField([(1.0, 0), (0.0, 1)], UNIT).value(math.sqrt(4000.0), 1.0)
