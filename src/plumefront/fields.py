"""Closed-form intensity fields for point-source diffusion.

Every field here is radially symmetric about its source, so the working
signature is (r, t).  Field objects expose

    value(r, t), d_dr(r, t), d_dt(r, t)   exact closed forms
    eval(r, t) -> FieldEval               all three at once, as a NamedTuple;
                                          the boundary ODE reads only eval
    diffusion_scale(t)                    sqrt(nu t), used by search and
                                          quadrature splits downstream

Every value is a float expression in math and the specfun kernels: nothing
here imports scipy.  Drift velocity is fixed to zero throughout: every
closed-form solution in scope sets it to zero, and FieldParams deliberately
reserves no slot for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .specfun import _exp_erfc, _k01, bessel_k0, kummer_m


@dataclass(frozen=True)
class FieldParams:
    """Parameters of an analytic intensity field.

    nu   diffusion coefficient (length^2/time), > 0
    q    source strength (intensity * length^dim), > 0
    source_pos   source location in R^dim
    lam  source decay rate (1/time), >= 0; 0 means a sustained source
    dim  spatial dimension, 2 or 3
    """

    nu: float
    q: float = 1.0
    source_pos: tuple[float, ...] = (0.0, 0.0, 0.0)
    lam: float = 0.0
    dim: int = 3

    def __post_init__(self):
        if not self.nu > 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")
        if not self.q > 0:
            raise DomainError(f"q must be > 0, got {self.q}")
        if self.lam < 0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")
        if self.dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.source_pos) != self.dim:
            raise DomainError(
                f"source_pos has {len(self.source_pos)} coordinates for dim={self.dim}"
            )


class FieldEval(NamedTuple):
    """Intensity together with its radial and temporal derivatives."""

    value: float
    d_dr: float
    d_dt: float


@dataclass(frozen=True)
class SourceEvent:
    """An instantaneous release: position, emission time, intensity mass."""

    pos: tuple[float, ...]
    time: float
    strength: float

    def __post_init__(self):
        if not self.strength > 0:
            raise DomainError(f"strength must be > 0, got {self.strength}")


class _RadialField:
    """What the fields below share: r_min, the (t, r) domain check and the
    diffusion length."""

    r_min = 0.0

    def _check(self, r: float, t: float):
        if not 0 < t < math.inf:
            raise DomainError(f"time must be finite and > 0, got {t}")
        if not 0 <= r < math.inf:
            raise DomainError(f"radius must be finite and >= 0, got {r}")

    def diffusion_scale(self, t: float) -> float:
        return math.sqrt(self.params.nu * t)


class GaussianField(_RadialField):
    """Instantaneous point source in 3D: tau = Q (4 pi nu t)^(-3/2) exp(-r^2/4 nu t)."""

    def __init__(self, params: FieldParams):
        if params.dim != 3:
            raise DomainError("GaussianField requires dim = 3")
        self.params = params
        self.dim = 3

    def value(self, r: float, t: float) -> float:
        self._check(r, t)
        p = self.params
        return p.q / (4.0 * math.pi * p.nu * t) ** 1.5 * math.exp(-r * r / (4.0 * p.nu * t))

    def d_dr(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dr

    def d_dt(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dt

    def eval(self, r: float, t: float) -> FieldEval:
        value = self.value(r, t)
        nu = self.params.nu
        return FieldEval(value, -r / (2.0 * nu * t) * value,
                         value * (-1.5 / t + r * r / (4.0 * nu * t * t)))


class BesselField(_RadialField):
    """Line source with cylindrical symmetry: tau = (A/t) K0(r / (2 sqrt(nu t))).

    The amplitude A is a free parameter distinct from q; no closed relation
    between the two is used anywhere.  Radial derivatives go through the
    dedicated K1 implementation (K0' = -K1) rather than finite differences.
    eval takes K0 and K1 as floats from one call of the specfun kernel, and
    d_dr and d_dt return its fields.
    """

    diverges_at_origin = True  # open: any r > 0 is valid

    def __init__(self, params: FieldParams, amplitude: float):
        if params.dim != 2:
            raise DomainError("BesselField requires dim = 2")
        if not amplitude > 0:
            raise DomainError(f"amplitude must be > 0, got {amplitude}")
        self.params = params
        self.amplitude = amplitude
        self.dim = 2

    def _arg(self, r: float, t: float) -> float:
        if not 0 < t < math.inf:
            raise DomainError(f"time must be finite and > 0, got {t}")
        w = r / (2.0 * math.sqrt(self.params.nu * t))
        if not 0 < w < math.inf:  # also where r > 0 is so small that w underflows
            raise DomainError(f"radius must be finite and > 0 for the Bessel field, got {r}")
        return w

    def value(self, r: float, t: float) -> float:
        return self.amplitude / t * bessel_k0(self._arg(r, t)).value

    def d_dr(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dr

    def d_dt(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dt

    def eval(self, r: float, t: float) -> FieldEval:
        w = self._arg(r, t)
        k0, _, k1, _ = _k01(w)
        a_t = self.amplitude / t
        return FieldEval(
            value=a_t * k0,
            d_dr=-a_t * k1 / (2.0 * math.sqrt(self.params.nu * t)),
            d_dt=-a_t / t * (k0 - 0.5 * w * k1),
        )


class KummerField(_RadialField):
    """Truncated confluent-hypergeometric profile for cylindrical symmetry:

        tau(r, t) = t^-1 sum_n C_n M(n + 1/2, 2n + 1, r^2 / (4 nu t))
    """

    def __init__(self, coeffs, params: FieldParams):
        self.coeffs = [(float(c), int(n)) for c, n in coeffs]
        for _, n in self.coeffs:
            if n < 0:
                raise DomainError(f"series index must be >= 0, got {n}")
        self.params = params
        self.dim = params.dim

    def value(self, r: float, t: float) -> float:
        self._check(r, t)
        z = r * r / (4.0 * self.params.nu * t)
        total = 0.0
        for c, n in self.coeffs:
            total += c * kummer_m(n + 0.5, 2.0 * n + 1.0, z).value
        return total / t


class DecayingSourceField(_RadialField):
    """Sustained point source whose emitted intensity decays at rate lam.

    tau(r, t) = Q/(4 pi nu)^{3/2} * int_0^t e^{-lam u} u^{-3/2}
                exp(-r^2/(4 nu u)) du,   u = age of the emission,

    in closed form (Carslaw and Jaeger 1959, continuous point source): with
    x = r/sqrt(4 nu t), y = sqrt(lam t) and s = 2xy = r sqrt(lam/nu),

        tau = Q/(8 pi nu r) B,   B = e^{-s} erfc(x - y) + e^{s} erfc(x + y).

    The terms of each of tau, tau_r and tau_t share one sign (e^{-s}
    erfc(x - y) > e^{s} erfc(x + y) everywhere), so none cancels, and
    specfun._exp_erfc keeps e^{s} erfc(x + y) from underflowing where x + y
    is large.  As lam*t grows the profile converges
    to the screened (Yukawa) form Q e^{-s} / (4 pi nu r), which
    steady_state_value returns.
    """

    diverges_at_origin = True  # open: any r > 0 is valid

    def __init__(self, params: FieldParams):
        if params.dim != 3:
            raise DomainError("DecayingSourceField requires dim = 3")
        if not params.lam > 0:
            raise DomainError("DecayingSourceField requires lam > 0")
        self.params = params
        self.dim = 3

    def _check(self, r: float, t: float):
        if not 0 < t < math.inf:
            raise DomainError(f"time must be finite and > 0, got {t}")
        if not 0 < r < math.inf:
            raise DomainError(f"radius must be finite and > 0, got {r}")

    def value(self, r: float, t: float) -> float:
        return self.eval(r, t).value

    def d_dr(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dr

    def d_dt(self, r: float, t: float) -> float:
        return self.eval(r, t).d_dt

    def eval(self, r: float, t: float) -> FieldEval:
        """tau = C B / r, tau_r = C (B'/r - B/r^2) with C = Q/(8 pi nu) and
        B' = sqrt(lam/nu) (e^s erfc(x+y) - e^-s erfc(x-y)) - 4 e^{-x^2-y^2}
        / sqrt(4 pi nu t), and tau_t = Q (4 pi nu t)^{-3/2} e^{-x^2-y^2}
        (only the upper age limit depends on t).  Terms that underflow are
        0, so no cutoff is needed short of an s that overflows."""
        self._check(r, t)
        p = self.params
        screening = math.sqrt(p.lam / p.nu)
        s = r * screening
        if s == math.inf:  # then (x + y)^2 >= 2s overflows too, and tau = 0
            return FieldEval(0.0, 0.0, 0.0)
        w = 4.0 * math.pi * p.nu * t
        x, y = r / math.sqrt(4.0 * p.nu * t), math.sqrt(p.lam * t)
        inner, outer = _exp_erfc(-s, x - y), _exp_erfc(s, x + y)
        gauss = math.exp(-p.lam * t - r * r / (4.0 * p.nu * t))
        bracket = inner + outer
        slope = screening * (outer - inner) - 4.0 * gauss / math.sqrt(w)
        c = p.q / (8.0 * math.pi * p.nu)
        return FieldEval(c * bracket / r, c * (slope - bracket / r) / r,
                         p.q * gauss / w / math.sqrt(w))

    def steady_state_value(self, r: float) -> float:
        """Long-time (Yukawa) limit Q e^{-r sqrt(lam/nu)} / (4 pi nu r)."""
        if not r > 0:
            raise DomainError(f"radius must be > 0, got {r}")
        p = self.params
        return p.q * math.exp(-r * math.sqrt(p.lam / p.nu)) / (4.0 * math.pi * p.nu * r)


def gaussian_field(p: FieldParams, r: float, t: float) -> FieldEval:
    """Evaluate the 3D Gaussian point-source field and its derivatives."""
    return GaussianField(p).eval(r, t)


def bessel_field(p: FieldParams, amplitude: float, r: float, t: float) -> FieldEval:
    """Evaluate the 2D Bessel line-source field and its derivatives."""
    return BesselField(p, amplitude).eval(r, t)


def kummer_field(coeffs, p: FieldParams, r: float, t: float) -> float:
    """Evaluate the truncated Kummer profile sum; empty coefficients give 0."""
    return KummerField(coeffs, p).value(r, t)


def decaying_source_field(p: FieldParams, r: float, t: float) -> float:
    """Evaluate the decaying-source convolution field in closed form."""
    return DecayingSourceField(p).value(r, t)


def greens_eval(x, t: float, y, s: float, nu: float) -> float:
    """Free-space diffusion Green's function; 0 for t <= s by causality.
    x and y have equal lengths; coordinates, t and s are finite."""
    if not nu > 0:
        raise DomainError(f"nu must be > 0, got {nu}")
    xs, ys = [float(v) for v in x], [float(v) for v in y]
    if len(xs) != len(ys):
        raise DomainError(f"x has {len(xs)} coordinates, the event position {len(ys)}")
    if not all(map(math.isfinite, xs + ys + [t, s])):
        raise DomainError(f"coordinates and times must be finite, got x={x}, t={t}, y={y}, s={s}")
    dt = t - s
    if dt <= 0.0:
        return 0.0
    rr = sum((a - b) ** 2 for a, b in zip(xs, ys))
    expo = -rr / (4.0 * nu * dt)
    if expo < -700.0:
        return 0.0
    return math.exp(expo) / (4.0 * math.pi * nu * dt) ** 1.5


def superpose(events, nu: float, x, t: float) -> float:
    """Sum of Green's-function responses, linear in the event strengths."""
    return sum(ev.strength * greens_eval(x, t, ev.pos, ev.time, nu) for ev in events)

