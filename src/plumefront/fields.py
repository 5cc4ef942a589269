"""Closed-form intensity fields for point-source diffusion.

GaussianField and DecayingSourceField solve tau_t = nu lap tau - lam tau in
3-D.  BesselField and KummerField are closed-form profiles that solve no
diffusion equation (their class docstrings give the residual); ROADMAP item 1
replaces them with the self-similar solutions that do.

Every field here is radially symmetric about its source, so the working
signature is (r, t).  Field objects expose

    value(r, t), d_dr(r, t), d_dt(r, t)   exact closed forms
    eval(r, t) -> FieldEval               all three at once (the boundary ODE reads only eval)
    diffusion_scale(t)                    sqrt(nu t), for search and quadrature splits

GaussianField also offers moment(k, t), energy(t) and exposure(r, horizon) in
closed form, which `functionals` uses in place of quadrature.

The domain, checked once in _RadialField, is t finite and > 0, r finite and
>= 0 (> 0 where the field diverges at its source), and 4 nu t neither 0 nor inf
as a float; outside it a field raises DomainError.  Inside it no field returns
NaN: a value that underflows is 0.0, and so are its derivatives; one that
overflows is inf, except that GaussianField.eval raises NumericalError.  A
Gaussian closed form raises NumericalError where it leaves the normal floats.

Every value is a float expression in math and the specfun kernels: nothing
here imports numpy or scipy.  Drift velocity is zero throughout, as in every
closed-form solution in scope, and FieldParams deliberately reserves no slot
for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, NumericalError
from .specfun import _EPS, _SQRT_PI, _exp_erfc, _k01, bessel_k0, gamma_fn, kummer_m

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class FieldParams:
    """Parameters of an analytic intensity field.

    nu   diffusion coefficient (length^2/time), finite and > 0
    q    source strength (intensity * length^dim), finite and > 0
    source_pos   source location in R^dim
    lam  source decay rate (1/time), finite and >= 0; 0 means a sustained source
    dim  spatial dimension, 2 or 3
    """

    nu: float
    q: float = 1.0
    source_pos: tuple[float, ...] = (0.0, 0.0, 0.0)
    lam: float = 0.0
    dim: int = 3

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise DomainError(f"nu must be finite and > 0, got {self.nu}")
        if not 0 < self.q < math.inf:
            raise DomainError(f"q must be finite and > 0, got {self.q}")
        if not 0 <= self.lam < math.inf:
            raise DomainError(f"lam must be finite and >= 0, got {self.lam}")
        if self.dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.source_pos) != self.dim:
            raise DomainError(f"source_pos has {len(self.source_pos)} coordinates, dim={self.dim}")


class FieldEval(NamedTuple):
    """Intensity together with its radial and temporal derivatives."""

    value: float
    d_dr: float
    d_dt: float


def _field_eval(value: float, d_dr: float, d_dt: float) -> FieldEval:
    """FieldEval(value, d_dr, d_dt) without NamedTuple's Python-level __new__."""
    return tuple.__new__(FieldEval, (value, d_dr, d_dt))


@dataclass(frozen=True)
class SourceEvent:
    """An instantaneous release: position, emission time, intensity mass."""

    pos: tuple[float, ...]
    time: float
    strength: float

    def __post_init__(self):
        if not 0 < self.strength < math.inf:
            raise DomainError(f"strength must be finite and > 0, got {self.strength}")


def _in_floats(what: str, value: float, *factors: float) -> float:
    """value, where it and every factor are normal floats; every closed form here
    is > 0, so anything else has overflowed or underflowed: NumericalError."""
    if all(sys.float_info.min <= v < math.inf for v in (value, *factors)):
        return value
    raise NumericalError(f"{what} leaves the normal floats: the closed form gives {value:.3g}")


def _heat_kernel(q: float, rr: float, nu: float, t: float) -> float:
    """q (4 pi nu t)^(-3/2) exp(-rr / 4 nu t), the 3-D heat kernel at squared
    distance rr (Carslaw and Jaeger 1959).  Far from w^1.5 = 1, w = 4 pi nu t,
    it divides by w and sqrt(w) in turn: 0.0 on underflow, inf on overflow."""
    w = _FOUR_PI * nu * t
    g = math.exp(-rr / (4.0 * nu * t))
    value = q / w ** 1.5 * g if 1e-200 < w < 1e200 else math.inf
    return value if value < math.inf else q * g / w / math.sqrt(w)  # NaN is not < inf


class _RadialField:
    """The (r, t) domain check, the diffusion length, and d_dr and d_dt as
    fields of eval.  The source sits at r = 0."""

    diverges_at_origin = False

    def _check(self, r: float, t: float) -> float:
        """4 nu t, once (r, t) lies in the domain (module docstring)."""
        if not 0.0 < t < math.inf:
            raise DomainError(f"time must be finite and > 0, got {t}")
        if not 0.0 <= r < math.inf or (r == 0.0 and self.diverges_at_origin):
            bound = ">" if self.diverges_at_origin else ">="
            raise DomainError(f"radius must be finite and {bound} 0, got {r}")
        four_nu_t = 4.0 * self.params.nu * t
        if not 0.0 < four_nu_t < math.inf:
            raise DomainError(f"4 nu t must be a finite float > 0, got nu={self.params.nu}, t={t}")
        return four_nu_t

    def diffusion_scale(self, t: float) -> float:
        return math.sqrt(self.params.nu * t)

    def d_dr(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dr

    def d_dt(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dt


class GaussianField(_RadialField):
    """Instantaneous point source in 3D: tau = Q (4 pi nu t)^(-3/2) exp(-r^2/4 nu t)."""

    def __init__(self, params: FieldParams):
        if params.dim != 3:
            raise DomainError("GaussianField requires dim = 3")
        self.params = params
        self.dim = 3

    def value(self, r: float, t: float) -> float:
        self._check(r, t)
        return _heat_kernel(self.params.q, r * r, self.params.nu, t)

    def eval(self, r: float, t: float) -> FieldEval:
        """tau_r = -(2r / 4 nu t) tau and tau_t = (r^2 / 4 nu t^2 - 3 / 2t) tau.

        One pass where 1e-200 < 4 pi nu t < 1e200, 0 <= r < inf, t and 4 nu t^2
        exceed 1e-300 and tau is a float > 0: (r, t) then lies in the domain,
        and tau is _heat_kernel's first branch, to the bit.  Elsewhere
        _eval_edges checks the domain and calls _heat_kernel."""
        nu = self.params.nu
        w = _FOUR_PI * nu * t
        if 1e-200 < w < 1e200 and 0.0 <= r < math.inf and t > 1e-300:
            four_nu_t = 4.0 * nu * t
            value = self.params.q / w ** 1.5 * math.exp(-r * r / four_nu_t)
            if 0.0 < value < math.inf and four_nu_t * t > 1e-300:
                return _field_eval(value, -2.0 * r / four_nu_t * value,
                                   value * (-1.5 / t + r * r / (four_nu_t * t)))
        return self._eval_edges(r, t)

    def _eval_edges(self, r: float, t: float) -> FieldEval:
        four_nu_t = self._check(r, t)
        value = _heat_kernel(self.params.q, r * r, self.params.nu, t)
        if not 0.0 < value < math.inf:
            if value == 0.0:  # underflowed, where the factors may be inf; d_dr <= 0
                return _field_eval(0.0, -0.0, 0.0)
            raise NumericalError(f"the Gaussian field overflows at r={r}, t={t}")
        d_dr = -2.0 * r / four_nu_t * value
        if four_nu_t * t > 1e-300 and t > 1e-300:
            return _field_eval(value, d_dr, value * (-1.5 / t + r * r / (four_nu_t * t)))
        # 4 nu t^2 or 1.5 / t may leave the float range: divide by t last
        return _field_eval(value, d_dr, value * (r * r / four_nu_t - 1.5) / t)

    def moment(self, k: int, t: float) -> tuple[float, float]:
        """The radial moment 4 pi int r^(k+2) tau dr = Q 2 Gamma((k + 3)/2) / sqrt(pi)
        (4 nu t)^(k/2) (the Mellin transform of e^(-eta) is Gamma), and (k + 16) eps
        of it, a bound on its rounding: math.gamma is within 3 eps, the power adds
        k/4 eps from the rounding of 4 nu t, and five operations round."""
        four_nu_t = self._check(0.0, t)
        gamma = gamma_fn(0.5 * (k + 3))
        try:
            scale = four_nu_t ** (0.5 * k)
        except OverflowError:
            scale = math.inf
        value = _in_floats(f"the Gaussian moment k={k} at t={t}",
                           self.params.q * 2.0 * gamma / _SQRT_PI * scale, gamma, scale)
        return value, (k + 16) * _EPS * value

    def energy(self, t: float) -> float:
        """int tau^2 dx = Q^2 (8 pi nu t)^(-3/2), as (Q / (8 pi nu t)^(3/4))^2."""
        self._check(0.0, t)
        w = 2.0 * _FOUR_PI * self.params.nu * t
        root = self.params.q / w ** 0.75
        return _in_floats(f"the Gaussian energy at t={t}", root * root, w, root)

    def exposure(self, r: float, horizon: float) -> float:
        """int_0^T tau(r, t) dt = Q / (4 pi nu r) erfc(r / sqrt(4 nu T)), T = inf
        allowed (Carslaw and Jaeger 1959)."""
        if not 0.0 < r < math.inf:
            raise DomainError(f"radius must be finite and > 0, got {r}")
        x = r / math.sqrt(self._check(r, horizon)) if horizon != math.inf else 0.0
        den = _FOUR_PI * self.params.nu * r
        tail = math.erfc(x)
        return _in_floats(f"the Gaussian exposure at r={r} to T={horizon}",
                          self.params.q / den * tail, den, tail)


class BesselField(_RadialField):
    """Cylindrical profile tau = (A/t) K0(r / (2 sqrt(nu t))).

    It solves no diffusion equation: with nu = 0.8 the 2-D residual
    tau_t - nu lap tau is 1.39 and 1.53 times tau_t at (r, t) = (0.7, 1.3)
    and (2, 3) (ROADMAP item 1).  The amplitude A is a free parameter, not
    tied to q.  eval takes K0 and K1 (K0' = -K1) as floats from one call of
    the specfun kernel.
    """

    diverges_at_origin = True  # open: any r > 0 is valid

    def __init__(self, params: FieldParams, amplitude: float):
        if params.dim != 2:
            raise DomainError("BesselField requires dim = 2")
        if not 0 < amplitude < math.inf:
            raise DomainError(f"amplitude must be finite and > 0, got {amplitude}")
        self.params = params
        self.amplitude = amplitude
        self.dim = 2

    def _arg(self, r: float, t: float) -> tuple[float, float]:
        root = math.sqrt(self._check(r, t))
        w = r / root  # normal, so that w K1(w) -> 1 holds in floats
        if not sys.float_info.min <= w < math.inf:
            raise DomainError(f"the Bessel field needs r / sqrt(4 nu t) normal, got {w} at r={r}")
        return w, root

    def value(self, r: float, t: float) -> float:
        k0 = bessel_k0(self._arg(r, t)[0]).value
        a_t = self.amplitude / t
        return a_t * k0 if a_t < math.inf else self.amplitude * k0 / t

    def eval(self, r: float, t: float) -> FieldEval:
        w, root = self._arg(r, t)
        k0, _, k1, _ = _k01(w)
        a_t = self.amplitude / t
        if a_t / t < math.inf:
            return _field_eval(a_t * k0, -a_t * k1 / root, -a_t / t * (k0 - 0.5 * w * k1))
        # A/t^2 overflows: divide A K by t last, so that no inf meets an underflowed K
        a = self.amplitude
        return _field_eval(a * k0 / t, -a * k1 / root / t, -a * (k0 - 0.5 * w * k1) / t / t)


class KummerField(_RadialField):
    """Truncated confluent-hypergeometric profile for cylindrical symmetry,
    tau(r, t) = t^-1 sum_n C_n M(n + 1/2, 2n + 1, r^2 / (4 nu t)), C_n finite, n >= 0.

    It grows with r and solves no diffusion equation: the one-term
    profile's 2-D residual tau_t - nu lap tau is 1.53 and 1.59 times tau_t
    at nu = 0.8, (r, t) = (0.7, 1.3) and (2, 3) (ROADMAP item 1).

    eval differentiates within the profile family: with M_n = M(n + 1/2, 2n + 1, z),
    dM_n/dz = (M_n + z M_(n+1) / (4 (n + 1))) / 2, from Kummer's second formula
    (DLMF 13.6.9) and I_n' = I_(n+1) + (n/x) I_n.
    """

    def __init__(self, coeffs, params: FieldParams):
        coeffs = [(float(c), n) for c, n in coeffs]
        if not all(math.isfinite(c) and n >= 0 and float(n).is_integer() for c, n in coeffs):
            raise DomainError(f"coefficients must be finite and indices integers >= 0: {coeffs}")
        self.coeffs = [(c, int(n)) for c, n in coeffs]
        self._orders = {n for _, n in self.coeffs}  # the M_n that value sums
        self._eval_orders = self._orders | {n + 1 for n in self._orders}  # and M_(n+1) for S'
        self.params = params
        self.dim = params.dim

    def value(self, r: float, t: float) -> float:
        """S / t from the M_n alone: eval also needs M_(n+1)."""
        return self._series(r, t, derivatives=False)[0]

    def eval(self, r: float, t: float) -> FieldEval:
        """With S = sum_n C_n M_n(z) and S' = dS/dz: tau = S / t,
        tau_r = (2 r / 4 nu t) S' / t and tau_t = -(S + z S') / t^2."""
        return self._series(r, t, derivatives=True)

    def _series(self, r: float, t: float, derivatives: bool) -> tuple:
        """(tau,) or, with derivatives, the FieldEval; each M_k is evaluated once."""
        four_nu_t = self._check(r, t)
        z = r * r / four_nu_t
        orders = self._eval_orders if derivatives else self._orders
        m = {k: kummer_m(k + 0.5, 2.0 * k + 1.0, z).value for k in orders}
        total = slope = 0.0
        for c, n in self.coeffs:
            total += c * m[n]
            if derivatives:
                # halve each part before adding: (z/4) M_1 ~ M_0, so the sum overflows first
                slope += c * (0.5 * m[n] + z / (8.0 * (n + 1)) * m[n + 1])
        out = (_field_eval(total / t, 2.0 * r / four_nu_t * slope / t,
                           -(total + z * slope) / t / t)
               if derivatives else (total / t,))
        if any(map(math.isnan, out)):
            raise NumericalError(f"the Kummer series overflows at r={r}, t={t}")
        return out


class DecayingSourceField(_RadialField):
    """Sustained point source whose emitted intensity decays at rate lam.

    tau(r, t) = Q/(4 pi nu)^{3/2} * int_0^t e^{-lam u} u^{-3/2}
                exp(-r^2/(4 nu u)) du,   u = age of the emission,

    in closed form (Carslaw and Jaeger 1959, continuous point source): with
    x = r/sqrt(4 nu t), y = sqrt(lam t) and s = 2xy = r sqrt(lam/nu),

        tau = Q/(8 pi nu r) B,   B = e^{-s} erfc(x - y) + e^{s} erfc(x + y).

    The terms of tau, tau_r and tau_t each share one sign (e^{-s} erfc(x - y)
    > e^{s} erfc(x + y) everywhere), so none cancels; specfun._exp_erfc keeps
    e^{s} erfc(x + y) from underflowing at large x + y.
    """

    diverges_at_origin = True  # open: any r > 0 is valid

    def __init__(self, params: FieldParams):
        if params.dim != 3:
            raise DomainError("DecayingSourceField requires dim = 3")
        if not params.lam > 0:
            raise DomainError("DecayingSourceField requires lam > 0")
        self.params = params
        self.dim = 3

    def value(self, r: float, t: float) -> float:
        return self.eval(r, t).value

    def eval(self, r: float, t: float) -> FieldEval:
        """tau = C B / r, tau_r = C (B'/r - B/r^2) with C = Q/(8 pi nu) and
        B' = sqrt(lam/nu) (e^s erfc(x+y) - e^-s erfc(x-y)) - 4 e^{-x^2-y^2} / sqrt(4 pi nu t),
        tau_t = Q (4 pi nu t)^{-3/2} e^{-x^2-y^2} (only the upper age limit depends
        on t).  Only an s that overflows needs a cutoff."""
        four_nu_t = self._check(r, t)
        p = self.params
        screening = math.sqrt(p.lam / p.nu)
        s = r * screening
        if s == math.inf:  # then (x + y)^2 >= 2s overflows too, and tau = 0
            return _field_eval(0.0, 0.0, 0.0)
        w = 4.0 * math.pi * p.nu * t
        x, y = r / math.sqrt(four_nu_t), math.sqrt(p.lam * t)
        inner, outer = _exp_erfc(-s, x - y), _exp_erfc(s, x + y)
        gauss = math.exp(-p.lam * t - r * r / four_nu_t)
        bracket = inner + outer
        slope = screening * (outer - inner) - 4.0 * gauss / math.sqrt(w)
        c = p.q / (8.0 * math.pi * p.nu)
        return _field_eval(c * bracket / r, c * (slope - bracket / r) / r,
                           p.q * gauss / w / math.sqrt(w))

    def steady_state_value(self, r: float) -> float:
        """Long-time (Yukawa) limit Q e^{-r sqrt(lam/nu)} / (4 pi nu r)."""
        if not r > 0:
            raise DomainError(f"radius must be > 0, got {r}")
        p = self.params
        return p.q * math.exp(-r * math.sqrt(p.lam / p.nu)) / (4.0 * math.pi * p.nu * r)


def superpose(events, nu: float, x, t: float) -> float:
    """Sum over the events of strength times the free-space Green's function,
    the 3-D heat kernel at |x - pos| and age t - time, which is 0 for t <= time
    by causality; 0.0 for no events.  x and every pos have 3 coordinates, all
    finite."""
    if not nu > 0:
        raise DomainError(f"nu must be > 0, got {nu}")
    xs = [float(v) for v in x]
    if len(xs) != 3:
        raise DomainError(f"x has {len(xs)} coordinates, the heat kernel needs 3")
    terms = []
    for ev in events:
        ys, s = [float(v) for v in ev.pos], ev.time
        if len(ys) != 3:
            raise DomainError(f"x has 3 coordinates, the event position {len(ys)}")
        if not all(map(math.isfinite, xs + ys + [t, s])):
            raise DomainError(f"coordinates and times must be finite, got x={x}, t={t}, "
                              f"y={ev.pos}, s={s}")
        dt = t - s
        if dt <= 0.0:
            continue
        if not 0.0 < 4.0 * nu * dt < math.inf:
            raise DomainError(f"4 nu (t - s) must be a finite float > 0, got nu={nu}, t - s={dt}")
        rr = sum((a - b) * (a - b) for a, b in zip(xs, ys))  # ** 2 would raise OverflowError
        terms.append(ev.strength * _heat_kernel(1.0, rr, nu, dt))
    return sum(terms, 0.0)
