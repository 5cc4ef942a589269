"""Derived functionals of an intensity field.

Boundary radius and velocity, cumulative exposure, spatial moments, energy
and parameter sensitivity.  Each reads a field through ``value(r, t)``, and
velocity and sensitivity, implicit derivatives at one root, also read tau_r
from ``eval(r, t)``.  Radial symmetry, assumed throughout, keeps every
integral one-dimensional.  Brent's method refines the boundary to rounding.

A field that offers moment(k, t), energy(t) or exposure(r, horizon) (the
Gaussian) gives that functional in closed form; exposure from t_min > 0 is
never taken so, since there the erfc difference cancels.  Otherwise moments
and energy integrate over r in [0, inf), exposure over s = r / (L sqrt(t))
for t up to a horizon T, possibly inf, all through `quadrature`, the
package's one QUADPACK call, so an integral that diverges or does not
converge raises NumericalError instead of returning a truncated number.

Scalars throughout are floats in math, and only `quadrature` imports scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import DomainError, NonMonotoneFieldWarning, NumericalError
from .specfun import unit_sphere_area

# Boundary search: initial bracket 10 diffusion lengths, doubled at most
# 2**10 times before the no-boundary outcome is declared.
BRACKET_START_SCALES = 10.0
MAX_BRACKET_DOUBLINGS = 10

# Radial integrals request 1e-9 (so accept 1e-7) and split into a finite
# piece and a QAGI tail this many diffusion lengths out.
RADIAL_RELTOL = 1e-9
RADIAL_SPLIT_SCALES = 4.0

QUAD_RELTOL = 1e-8

_MODES = ("absolute", "decay_by_epsilon", "decay_to_fraction")


def quadrature(f, a: float, b: float, split: float | None = None,
               reltol: float = QUAD_RELTOL, what: str = "integral") -> tuple[float, float]:
    """int_a^b f dx and its error estimate by QUADPACK (Piessens et al. 1983):
    QAGS on a finite range, QAGI when b is inf, in two pieces if a < split < b.
    Raises NumericalError, naming `what`, if either is not finite, if the
    estimate exceeds max(100 reltol |value|, 1e-280), or if QUADPACK flags a
    piece as probably divergent (ier = 5: its extrapolation can then give a
    finite value with a small error estimate); full_output=1 keeps scipy from
    warning in place of these checks."""
    from scipy.integrate import quad

    ends = [a, split, b] if split is not None and a < split < b else [a, b]
    val = err = 0.0
    for lo, hi in zip(ends, ends[1:]):
        piece, piece_err, _, *flag = quad(f, lo, hi, epsabs=1e-300, epsrel=reltol, limit=200,
                                          full_output=1)
        if flag and "divergent" in flag[0]:  # QUADPACK's ier = 5
            raise NumericalError(f"{what} did not converge: probably divergent on [{lo}, {hi}]")
        val += piece
        err += piece_err
    if not (math.isfinite(val) and err <= max(100 * reltol * abs(val), 1e-280)):
        raise NumericalError(f"{what} did not converge: value={val:.3e}, estimated error={err:.3e}")
    return val, err


@dataclass(frozen=True)
class BoundarySpec:
    """Threshold definition for the spatial boundary.

    Exactly one of the three parameters is set:
      absolute           tau_min, the intensity level itself
      decay_by_epsilon   epsilon in (0,1): threshold (1 - epsilon) tau(0, t)
      decay_to_fraction  fraction in (0,1): threshold fraction * tau(0, t)
    """

    mode: str
    tau_min: float | None = None
    epsilon: float | None = None
    fraction: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"unknown boundary mode {self.mode!r}")
        given = [v is not None for v in (self.tau_min, self.epsilon, self.fraction)]
        if sum(given) != 1:
            raise DomainError("exactly one of tau_min/epsilon/fraction must be set")
        if self.mode == "absolute":
            if self.tau_min is None or not self.tau_min > 0:
                raise DomainError("absolute mode requires tau_min > 0")
        elif self.mode == "decay_by_epsilon":
            if self.epsilon is None or not 0 < self.epsilon < 1:
                raise DomainError("decay_by_epsilon requires epsilon in (0,1)")
        else:
            if self.fraction is None or not 0 < self.fraction < 1:
                raise DomainError("decay_to_fraction requires fraction in (0,1)")

    def threshold(self, field, t: float) -> float:
        if self.mode == "absolute":
            return self.tau_min
        return self.relative_fraction(field) * field.value(0.0, t)

    # Relative modes compare against the source value, which moves with t;
    # the boundary rate needs that fraction to differentiate the condition.
    def relative_fraction(self, field) -> float:
        if self.mode == "absolute":
            return 0.0
        if getattr(field, "diverges_at_origin", False):
            raise DomainError(f"relative modes need a finite source value tau(0, t), and "
                              f"{type(field).__name__} diverges at its source: use tau_min")
        return 1.0 - self.epsilon if self.mode == "decay_by_epsilon" else self.fraction


@dataclass(frozen=True)
class MomentResult:
    """A spatial moment value with its quadrature error estimate, or the
    rounding bound of a closed form."""

    k: int
    value: float
    quadrature_error: float


def _check_time(t: float) -> None:
    if not t > 0:
        raise DomainError(f"time must be > 0, got {t}")


def _field_scale(field, t: float) -> float:
    if hasattr(field, "diffusion_scale"):
        return max(field.diffusion_scale(t), 1e-300)
    return 1.0


def _zeroin(g, a: float, b: float, xtol: float = 0.0) -> float:
    """A root of g in [a, b], g(a) > 0 >= g(b), by Brent's zeroin (Brent 1973,
    Algorithms for Minimization without Derivatives, ch. 4): inverse quadratic
    or secant steps that stay well inside the bracket, bisection otherwise.
    Returns the end b of the bracket [b, c] where |g| is smaller once
    |c - b| <= 4 eps |b| + xtol or g(b) = 0.
    """
    ga, gb = g(a), g(b)
    c, gc = a, ga
    d = e = b - a
    for _ in range(200):
        if (gb > 0) == (gc > 0):
            c, gc = a, ga
            d = e = b - a
        if abs(gc) < abs(gb):
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        tol = 2.0 * sys.float_info.epsilon * max(abs(b), 1e-300) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or gb == 0.0:
            break
        if abs(e) < tol or abs(ga) <= abs(gb):
            d = e = m
        else:
            s = gb / ga
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = ga / gc, gb / gc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, ga = b, gb
        b += d if abs(d) > tol else math.copysign(tol, m)
        gb = g(b)
    return b


def boundary_radius(field, spec: BoundarySpec, t: float) -> float | None:
    """Smallest radius where the field crosses the threshold `spec` defines.

    Returns None when the threshold is never crossed within the doubling
    search bracket; this is the legitimate no-boundary outcome, not an
    error.  A non-monotone field triggers a NonMonotoneFieldWarning and the
    first crossing is reported.
    """
    _check_time(t)
    thr = spec.threshold(field, t)
    scale = _field_scale(field, t)
    if getattr(field, "diverges_at_origin", False):
        # The field exceeds any threshold close enough to the source; halve
        # inward until we are above it.
        r_lo = scale
        for _ in range(200):
            if field.value(r_lo, t) > thr:
                break
            r_lo *= 0.5
        else:
            return None
    else:
        r_lo = 0.0
        if field.value(r_lo, t) <= thr:
            return None

    r_hi = BRACKET_START_SCALES * scale
    for _ in range(MAX_BRACKET_DOUBLINGS + 1):
        if field.value(r_hi, t) < thr:
            break
        r_hi *= 2.0
    else:
        return None

    # the radii of np.linspace(start, r_hi, 33): start + k step, the last one r_hi
    start = r_lo if r_lo > 0 else r_hi * 1e-9
    step = (r_hi - start) / 32
    samples = [start + k * step for k in range(32)] + [r_hi]
    values = [field.value(r, t) for r in samples]
    rise = 1e-12 * max(map(abs, values))
    if any(b - a > rise for a, b in zip(values, values[1:])):
        warnings.warn(
            "field is not radially monotone at this time; reporting the first "
            "threshold crossing, which may not be unique",
            NonMonotoneFieldWarning,
        )
    # The bracket ends at the first sample at or below the threshold (r_hi is
    # one) and starts at the sample before it, or at r_lo if there is none.
    first = next(i for i, v in enumerate(values) if v <= thr)
    lo = samples[first - 1] if first else r_lo
    return _zeroin(lambda r: field.value(r, t) - thr, lo, samples[first])


GRADIENT_FLOOR = 1e-14  # |tau_r| at most this fraction of the rate's numerator is singular


class _Vanished(Exception):
    """The boundary rate was asked for at r <= 0: the boundary reached the source."""


def _boundary_rate(evaluate, t: float, r: float, source: float) -> float:
    """dd*/dtheta = -(tau_theta - source) / tau_r at (r, t), the implicit derivative
    of tau(d*, theta) = c(theta): evaluate(r, t) gives (tau, tau_r, tau_theta) and
    source is c's derivative.  Raises _Vanished at r <= 0, unevaluated."""
    if r <= 0.0:
        raise _Vanished
    _, den, rate = evaluate(r, t)
    num = rate - source
    if abs(den) <= GRADIENT_FLOOR * abs(num):
        raise NumericalError(f"singular gradient at t={t:.6g}, r={r:.6g}: threshold crossed "
                             "over a flat region")
    return -num / den


def _source_term(evaluate, frac: float, t: float) -> float:
    """frac * tau_theta(0, t), a relative threshold's derivative; 0 for an absolute one."""
    return frac * evaluate(0.0, t)[2] if frac != 0.0 else 0.0


def _rate_at_root(field, spec: BoundarySpec, t: float, evaluate=None) -> float:
    """`_boundary_rate` on `evaluate` (None: field.eval) at d*; NumericalError if no d*."""
    d_star = boundary_radius(field, spec, t)
    if d_star is None:
        raise NumericalError(f"no boundary at t={t}: its rate of motion is undefined")
    ev = evaluate or field.eval
    return _boundary_rate(ev, t, d_star, _source_term(ev, spec.relative_fraction(field), t))


def boundary_velocity(field, spec: BoundarySpec, t: float) -> float:
    """dd*/dt by implicit differentiation at one root: `_boundary_rate` on
    field.eval at d* and, for a relative spec, at the source."""
    return _rate_at_root(field, spec, t)


def cumulative_exposure(field, r: float, t_min: float = 0.0, horizon: float = math.inf) -> float:
    """Time-integrated intensity at fixed radius, int_{t_min}^{T} tau(r, t) dt,
    T = inf allowed: field.exposure where the field has it and t_min = 0.
    Otherwise over s = r / (L sqrt(t)), L the diffusion length at t = 1, as
    int 2 (t / s) tau(r, t) ds, t = (r / (L s))^2, split at s = 1, where a
    Gaussian integrand is a multiple of exp(-s^2 / 4) at every r.  Raises
    NumericalError if it diverges, the (dropped) error estimate exceeds 1e-6
    or the field at s = 1 is subnormal or 0 where the profile there is not
    (lam = 1 decaying source at r = 1e103), DomainError where t underflows.
    """
    if not r > 0:
        raise DomainError("exposure requires r > 0 (the integral diverges at the source)")
    if not 0 <= t_min < math.inf:
        raise DomainError(f"t_min must be finite and >= 0, got {t_min}")
    if not horizon >= t_min:
        raise DomainError(f"horizon must be >= t_min, got horizon={horizon}, t_min={t_min}")
    if horizon == t_min:
        return 0.0
    if t_min == 0.0 and hasattr(field, "exposure"):
        return field.exposure(r, horizon)
    length = _field_scale(field, 1.0)
    scale = r / length

    def time(s):
        root = scale / s
        t = root * root
        if t == 0.0:
            raise DomainError(f"exposure at r={r}: the time (r / (L s))^2 underflows "
                              f"at r / L = {scale:.3g}")
        return t

    def integrand(s):
        t = time(s)
        return 2.0 * t / s * field.value(r, t)

    if horizon == math.inf:
        # The integral diverges unless t tau(r, t) = s integrand(s) / 2 -> 0 as s -> 0,
        # and QUADPACK may not notice (a Kummer sum tends to sum C_n / t): ask for a 2x
        # fall from s = 1e-6 to 1e-7, or from 1e-140 r / L where t would overflow.
        late = max(1e-6, 1e-140 * scale)
        if not abs(integrand(0.1 * late)) <= 5.0 * abs(integrand(late)):
            raise NumericalError(f"exposure at r={r} did not converge: t tau(r, t) does not "
                                 f"fall as t -> inf")
    # tau(L, 1) is the profile at the same s = 1: if it is not 0, a subnormal or 0 at r
    # has underflowed, and QUADPACK would integrate a tail of rounding noise or zeros
    at_r = field.value(r, time(1.0))
    if abs(at_r) < sys.float_info.min and field.value(length, 1.0) != 0.0:
        raise NumericalError(f"exposure at r={r}: the field underflows to {at_r:.3g}, "
                             f"subnormal or 0, at t = (r / L)^2 = {scale * scale:.3g}")
    hi = scale / math.sqrt(t_min) if t_min > 0 else math.inf
    return quadrature(integrand, scale / math.sqrt(horizon), hi, split=1.0,
                      what=f"exposure at r={r}")[0]


def _radial_integral(field, f, t: float, what: str) -> tuple[float, float]:
    """omega_d int_0^inf r^(d-1) f(r) dr and its error estimate, split
    RADIAL_SPLIT_SCALES diffusion lengths out."""
    dim = getattr(field, "dim", 3)
    omega = unit_sphere_area(dim)
    try:
        val, err = quadrature(lambda r: r ** (dim - 1) * f(r), 0.0, math.inf,
                              split=RADIAL_SPLIT_SCALES * _field_scale(field, t),
                              reltol=RADIAL_RELTOL, what=f"{what} at t={t}")
    except OverflowError:  # float ** raises where r^k passes the floats
        raise NumericalError(f"{what} at t={t} overflows the floats") from None
    return omega * val, omega * err


def spatial_moment(field, k: int, t: float) -> MomentResult:
    """k-th radial moment M_k(t) = omega_d int_0^inf r^(k+d-1) tau(r, t) dr,
    over [0, inf) with no cutoff, from field.moment where the field has it.
    Raises NumericalError if it diverges, r^k overflows, or quadrature_error,
    QUADPACK's estimate, exceeds 1e-7 of the value."""
    if not (k >= 0 and float(k).is_integer()):
        raise DomainError(f"moment order must be a non-negative integer, got {k}")
    _check_time(t)
    val, err = (field.moment(int(k), t) if hasattr(field, "moment") else
                _radial_integral(field, lambda r: r**k * field.value(r, t), t, f"moment k={k}"))
    return MomentResult(k=int(k), value=val, quadrature_error=err)


def energy(field, t: float) -> float:
    """Squared-intensity integral E(t) = int tau^2 dx over R^d, radially over
    [0, inf) with no cutoff, from field.energy where the field has it.  Raises
    NumericalError if it diverges, tau^2 overflows, or the (dropped) error
    estimate exceeds 1e-7 of the value."""
    _check_time(t)
    if hasattr(field, "energy"):
        return field.energy(t)
    return _radial_integral(field, lambda r: field.value(r, t) ** 2, t, "energy")[0]


def boundary_sensitivity(field_factory, nu: float, spec: BoundarySpec, t: float) -> float:
    """dd*/dnu at the one root of field_factory(nu), a map from nu to a field:
    `_boundary_rate` with tau_r from eval and tau_nu a central difference of
    value, step 1e-5 nu, at d* and, for a relative spec, at the source."""
    field = field_factory(nu)
    h = 1e-5 * nu
    plus, minus = field_factory(nu + h), field_factory(nu - h)

    def evaluate(r, s):  # (tau, tau_r, tau_nu)
        value, d_dr, _ = field.eval(r, s)
        return value, d_dr, (plus.value(r, s) - minus.value(r, s)) / (2.0 * h)

    return _rate_at_root(field, spec, t, evaluate)
