"""The fields that claim to solve the 3-D diffusion equation against it:
tau_t = nu lap tau - lam tau, lap tau = tau_rr + (2 / r) tau_r.

Each class's formula is transcribed into 40-digit mpmath and differentiated
with mp.diff.  The residual must be within 1e-30 of tau_t: it is 4e-31 at
lam = 5, (r, t) = (0.5, 4), where tau_t carries the factor e^-(lam t) =
e^-20, and at most 1.4e-33 elsewhere.  The library's eval (value, d_dr,
d_dt) must match the mpmath values to 1e-14.  The Bessel and Kummer fields
solve no diffusion equation and are not listed here."""

import mpmath as mp
import pytest

from plumefront.fields import DecayingSourceField, FieldParams, GaussianField

NU = 0.8


def _gaussian(r, t, lam):
    """q (4 pi nu t)^(-3/2) exp(-r^2 / 4 nu t), q = 1; lam = 0."""
    return (4 * mp.pi * NU * t) ** mp.mpf(-1.5) * mp.exp(-r * r / (4 * NU * t))


def _decaying(r, t, lam):
    """Q / (8 pi nu r) (e^-s erfc(x - y) + e^s erfc(x + y)), Q = 1, with
    x = r / sqrt(4 nu t), y = sqrt(lam t), s = r sqrt(lam / nu)."""
    x, y, s = r / mp.sqrt(4 * NU * t), mp.sqrt(lam * t), r * mp.sqrt(lam / NU)
    return (mp.exp(-s) * mp.erfc(x - y) + mp.exp(s) * mp.erfc(x + y)) / (8 * mp.pi * NU * r)


FIELDS = {
    "gaussian": (_gaussian, lambda lam: GaussianField(FieldParams(nu=NU))),
    "decaying": (_decaying, lambda lam: DecayingSourceField(FieldParams(nu=NU, lam=lam))),
}

# (r, t) about the diffusion length sqrt(nu t), and lam t from 0.02 to 20
CASES = [("gaussian", 0.0, r, t)
         for r, t in [(0.7, 1.3), (2.0, 3.0), (0.05, 0.1), (1.5, 0.25), (4.0, 2.0), (0.3, 20.0)]]
CASES += [("decaying", lam, r, t)
          for lam, r, t in [(1.0, 0.7, 1.3), (1.0, 2.0, 3.0), (5.0, 0.5, 4.0), (2.0, 3.0, 10.0),
                            (0.1, 1.0, 0.2), (0.5, 0.05, 2.0)]]


@pytest.mark.parametrize("name, lam, r, t", CASES)
def test_field_solves_the_diffusion_equation(name, lam, r, t):
    formula, make = FIELDS[name]
    with mp.workdps(40):
        r_mp, t_mp = mp.mpf(r), mp.mpf(t)

        def f(rr, tt):
            return formula(rr, tt, mp.mpf(lam))

        value = f(r_mp, t_mp)
        tau_r, tau_rr, tau_t = (mp.diff(f, (r_mp, t_mp), n) for n in ((1, 0), (2, 0), (0, 1)))
        residual = tau_t - (NU * (tau_rr + 2 * tau_r / r_mp) - lam * value)
        assert abs(residual / tau_t) <= 1e-30
        exact = [float(v) for v in (value, tau_r, tau_t)]
    for got, want in zip(make(lam).eval(r, t), exact):
        assert abs(got - want) <= 1e-14 * abs(want)
