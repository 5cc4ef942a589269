"""The decaying-source field's closed form against independent references.

The reference is the field's erfc form evaluated by mpmath at 50 digits,
with d_dr taken by mpmath's numerical differentiation and d_dt the age
integrand at its upper limit u = t (a numerical d_dt would not resolve
e^{-lam t} against the value), so no float branch and no derivative formula
of the package enters it.  The erfc form itself is checked against scipy
quadrature of the age integral, its exponent shifted by its maximum.
Wherever the reference is a normal float the field must be within 1e-11 of
it, relatively; where it is subnormal, within the smallest normal float.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from plumefront.dynamics import boundary_ode_integrate
from plumefront.fields import DecayingSourceField, FieldParams
from plumefront.functionals import BoundarySpec, boundary_radius
from plumefront.specfun import ERFC_ASYMPTOTIC_MIN, _exp_erfc

RTOL = 1e-11
UNIT = FieldParams(nu=1.0, q=1.0, lam=1.0)
OTHER = FieldParams(nu=0.3, q=2.5, lam=4.0)


def _reference(p: FieldParams, r: float, t: float):
    """(tau, tau_r, tau_t) at 50 digits, as mpf."""
    with mp.workdps(50):
        nu, q, lam = mp.mpf(p.nu), mp.mpf(p.q), mp.mpf(p.lam)

        def tau(rr, tt):
            x, y, s = rr / mp.sqrt(4 * nu * tt), mp.sqrt(lam * tt), rr * mp.sqrt(lam / nu)
            return q / (8 * mp.pi * nu * rr) * (mp.exp(-s) * mp.erfc(x - y)
                                                + mp.exp(s) * mp.erfc(x + y))

        r, t = mp.mpf(r), mp.mpf(t)
        return (+tau(r, t), mp.diff(lambda u: tau(u, t), r),
                q * (4 * mp.pi * nu * t) ** mp.mpf(-1.5) * mp.exp(-lam * t - r * r / (4 * nu * t)))


def _mismatch(got: float, ref) -> float:
    """|got - ref| over RTOL |ref| where ref is normal, over the smallest
    normal float where it is not: at most 1 when the field is right."""
    assert math.isfinite(got), got
    ref = float(ref)
    scale = RTOL * abs(ref) if abs(ref) >= sys.float_info.min else sys.float_info.min
    return abs(got - ref) / scale


def _worst(p: FieldParams, points) -> float:
    field = DecayingSourceField(p)
    worst = 0.0
    for r, t in points:
        ev = field.eval(r, t)
        assert ev.value == field.value(r, t) and ev.d_dr == field.d_dr(r, t)
        assert ev.d_dt == field.d_dt(r, t)
        for got, ref in zip(ev, _reference(p, r, t)):
            worst = max(worst, _mismatch(got, ref))
    return worst


def _age_integral_field(p: FieldParams, r: float, t: float):
    """(tau, tau_r) by QUADPACK in v = ln(u / u*), u* the peak of each integrand."""
    a = r * r / (4.0 * p.nu)
    out = []
    for power in (1.5, 2.5):
        peak = (math.sqrt(power * power + 4.0 * p.lam * a) - power) / (2.0 * p.lam)

        def log_integrand(v):  # ln of e^{-lam u - a/u} u^{1 - power} at u = peak e^v
            return -p.lam * peak * math.exp(v) - a / peak * math.exp(-v) + (1.0 - power) * v

        width = 1.0 / math.sqrt(p.lam * peak + a / peak)
        top = math.log(t / peak)
        lo = min(-60.0 * width, top - 60.0 * width)
        g0 = log_integrand(0.0)
        cuts = [c * width for c in (-8.0, -2.0, 0.0, 2.0, 8.0) if lo < c * width < top]
        val, _ = quad(lambda v: math.exp(log_integrand(v) - g0), lo, top, points=cuts or None,
                      epsabs=0.0, epsrel=1e-13, limit=400)
        out.append(val * math.exp(g0 + (1.0 - power) * math.log(peak)))
    pre = p.q / (4.0 * math.pi * p.nu) ** 1.5
    return pre * out[0], -pre * r / (2.0 * p.nu) * out[1]


# r = 500, t = 5000: 1.134e-221; r = 400, t = 200: on the front x = y = 14.1,
# where e^s erfc(x + y) is 2% of the value and erfc(x + y) underflows;
# r = 80, t = 800: x^2 + y^2 = 802, value 1.8e-38.
REPORTED = [(500.0, 5000.0), (400.0, 200.0), (80.0, 800.0), (1.3, 2.7)]


@pytest.mark.parametrize("r,t", REPORTED)
def test_reported_points_match_age_integral_and_reference(r, t):
    field = DecayingSourceField(UNIT)
    value, d_dr = _age_integral_field(UNIT, r, t)
    ev = field.eval(r, t)
    assert ev.value == pytest.approx(value, rel=1e-12)
    assert ev.d_dr == pytest.approx(d_dr, rel=1e-12)
    ref = _reference(UNIT, r, t)
    assert float(ref[0]) == pytest.approx(value, rel=1e-12)
    assert _worst(UNIT, [(r, t)]) <= 1.0


def test_front_up_to_lam_t_1e5():
    # r chosen so that x / y is near 1: the front, where e^-s erfc(x - y) and
    # e^s erfc(x + y) are of one order and x + y crosses 26 at lam t = 169
    for p in (UNIT, OTHER):
        points = []
        for lam_t in np.geomspace(1e-2, 1e5, 40):
            t = float(lam_t) / p.lam
            for ratio in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0):
                points.append((ratio * math.sqrt(p.lam * t) * math.sqrt(4.0 * p.nu * t), t))
        assert _worst(p, points) <= 1.0


def test_grid():
    r = np.geomspace(1e-3, 1e3, 20)
    t = np.geomspace(1e-3, 1e4, 20)
    for p in (UNIT, OTHER):
        assert _worst(p, [(float(a), float(b)) for a in r for b in t]) <= 1.0


@pytest.mark.parametrize("a", [-300.0, 0.0, 300.0, 600.0])
def test_erfc_kernel_seam(a):
    # z = 26 and its float neighbours, each against mpmath; the neighbours
    # differ from each other by 2z ulp(z) ~ 2e-13 of the value
    z = ERFC_ASYMPTOTIC_MIN
    for zz in (np.nextafter(z, 0.0), z, np.nextafter(z, 2 * z), 25.0, 27.0):
        zz = float(zz)
        with mp.workdps(50):
            ref = mp.exp(a) * mp.erfc(zz)
        assert _exp_erfc(a, zz) == pytest.approx(float(ref), rel=1e-13)


def test_field_at_seam():
    # r where x + y or x - y is 26, and the three floats either side of it
    for p in (UNIT, OTHER):
        points = []
        for t in (1.0, 50.0, 150.0):
            y = math.sqrt(p.lam * t)
            for x in (26.0 - y, 26.0 + y):
                if x > 0:
                    r = x * math.sqrt(4.0 * p.nu * t)
                    points += [(r + k * math.ulp(r), t) for k in range(-3, 4)]
        assert _worst(p, points) <= 1.0


def test_large_screening_argument():
    # s = r sqrt(lam/nu) up to 1e4: no OverflowError, no NaN, tau >= 0 > tau_r;
    # for OTHER, tau at s = 700-745 is still normal (3e-307 at s = 700)
    for p in (UNIT, OTHER):
        ell = math.sqrt(p.nu / p.lam)
        screening = np.concatenate([np.geomspace(1.0, 1e4, 20), np.linspace(690.0, 760.0, 8)])
        points = [(float(s) * ell, float(t)) for s in screening
                  for t in np.geomspace(1e-2, 1e5, 8)]
        assert _worst(p, points) <= 1.0
        field = DecayingSourceField(p)
        for r, t in points:
            ev = field.eval(r, t)
            assert ev.value >= 0.0 and ev.d_dr <= 0.0 and ev.d_dt >= 0.0


def test_overflowing_screening_argument_gives_zero():
    field = DecayingSourceField(FieldParams(nu=1e-10, q=1.0, lam=1e10))
    assert field.eval(1e300, 1.0) == (0.0, 0.0, 0.0)


class TestBoundaryOde:
    """Absolute-threshold boundary ODE of the decaying field against the
    boundary radius, which solves tau(d, t) = tau_min directly."""

    SPEC = BoundarySpec(mode="absolute", tau_min=1e-4)
    T0, T1 = 0.5, 10.0

    def _errors(self, steps):
        field = DecayingSourceField(UNIT)
        d0 = boundary_radius(field, self.SPEC, self.T0)
        traj = boundary_ode_integrate(field, d0, self.T0, self.T1, steps, spec=self.SPEC)
        assert traj.terminated_reason == "horizon_reached"
        sampled = range(0, steps + 1, steps // 10)  # the same ten times at every step count
        return max(abs(traj.radii[i] / boundary_radius(field, self.SPEC, traj.times[i]) - 1.0)
                   for i in sampled)

    def test_tracks_boundary_radius(self):
        assert self._errors(200) <= 1e-6

    def test_rk4_order(self):
        errors = [self._errors(n) for n in (100, 200, 400)]
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 3.8, (errors, orders)
