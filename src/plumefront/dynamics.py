"""Boundary evolution beyond self-similarity.

The threshold condition tau(d*(t), t) = c(t) differentiates to the boundary
ODE dd*/dt = -(tau_t - c'(t)) / tau_r, `functionals._boundary_rate`; c' is 0
for an absolute threshold and frac tau_t(0, t) for a relative one, which
tracks the source value.  The integrator is a fixed-step classical 4th-order
scheme: the right-hand side is smooth on the monotone region and fixed steps
keep convergence-order tests clean.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .functionals import BoundarySpec, _boundary_rate, _source_term, _Vanished

# Dimensionless stall criterion: |dd*/dt| t / d* below this for 10
# consecutive steps declares a steady state.
STALL_RATE = 1e-6
STALL_STEPS = 10


@dataclass(frozen=True)
class BoundaryTrajectory:
    times: np.ndarray
    radii: np.ndarray
    terminated_reason: str  # horizon_reached | boundary_vanished | steady_state_detected

    def __post_init__(self):
        if len(self.times) != len(self.radii):
            raise DomainError("times and radii must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")


@dataclass(frozen=True)
class AdiabaticBoundary:
    """Boundary radii under slow diffusion growth (adiabatic_boundary)."""

    exact: float
    first_order: float
    integrated: float


def boundary_ode_integrate(field, d0: float, t0: float, t1: float, steps: int,
                           spec: BoundarySpec | None = None) -> BoundaryTrajectory:
    """Integrate dd*/dt = `functionals._boundary_rate` with RK4.

    The field's whole protocol is `eval(r, t)`, a `FieldEval` with `d_dr`
    and `d_dt`: one call per stage, 4 * steps in a run.  `spec` supplies the
    threshold convention; None or an absolute spec gives the plain ratio
    form.  A relative spec also reads tau_t at the source once per distinct
    stage time t0 + (i + c) dt: 2 * steps + 1 calls in a run that reaches t1.

    A boundary that reaches the source ends the run with terminated_reason
    "boundary_vanished" as soon as a stage or step radius is <= 0; the field
    is not evaluated there, and the points before it are kept.
    """
    if not d0 > 0:
        raise DomainError(f"initial radius must be > 0, got {d0}")
    if not t0 > 0 or not t1 > t0:
        raise DomainError("need 0 < t0 < t1")
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")

    frac = spec.relative_fraction(field) if spec is not None else 0.0
    evaluate = field.eval  # bound once: the stages below are the run's hot loop
    dt = (t1 - t0) / steps
    times, radii, r, stall_count = [t0], [d0], d0, 0
    reason = "horizon_reached"
    source = _source_term(evaluate, frac, t0)
    for i in range(steps):
        t, t_half, t_new = t0 + i * dt, t0 + (i + 0.5) * dt, t0 + (i + 1) * dt
        try:  # each stage is the rate at (t, r), FieldEval(value, d_dr, d_dt)
            k1 = _boundary_rate(evaluate, t, r, source)
            source_half = _source_term(evaluate, frac, t_half)
            k2 = _boundary_rate(evaluate, t_half, r + 0.5 * dt * k1, source_half)
            k3 = _boundary_rate(evaluate, t_half, r + 0.5 * dt * k2, source_half)
            source = _source_term(evaluate, frac, t_new)
            k4 = _boundary_rate(evaluate, t_new, r + dt * k3, source)
            r_new = r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except _Vanished:
            r_new = 0.0
        if r_new <= 0.0:
            reason = "boundary_vanished"
            break
        times.append(t_new)
        radii.append(r_new)
        rate = abs(r_new - r) / dt * t_new / r_new
        stall_count = stall_count + 1 if rate < STALL_RATE else 0
        r = r_new
        if stall_count >= STALL_STEPS:
            reason = "steady_state_detected"
            break
    return BoundaryTrajectory(np.array(times), np.array(radii), reason)


def steady_state_boundary(nu: float, lam: float, q0: float, tau_min: float) -> float | None:
    """Long-run boundary sqrt(nu/lam) ln(Q0 / (lam l tau_min)), l = sqrt(nu/lam).

    Returns None when the logarithm's argument is <= 1, i.e. the threshold
    exceeds the entire steady profile and no positive boundary exists.
    DomainError names the first argument that is not finite and > 0.
    """
    for name, value in (("nu", nu), ("lam", lam), ("q0", q0), ("tau_min", tau_min)):
        if not 0 < value < math.inf:
            raise DomainError(f"steady_state_boundary requires nu, lam, q0, tau_min > 0 and "
                              f"finite, got {name}={value}")
    length = math.sqrt(nu / lam)
    arg = q0 / (lam * length * tau_min)
    if arg <= 1.0:
        return None
    return length * math.log(arg)


def adiabatic_boundary(
    nu0: float, alpha: float, eps_threshold: float, t: float
) -> AdiabaticBoundary:
    """Boundary under slowly growing diffusion nu(t) = nu0 (1 + alpha t).

    exact       2 sqrt(nu0 (1 + alpha t) t ln(1/(1 - eps))), the Gaussian's
                boundary with nu frozen at its value at t
    first_order exact to O(alpha t): baseline boundary times (1 + alpha t / 2)
    integrated  2 sqrt(nu0 (t + alpha t^2 / 2) ln(1/(1 - eps))), the boundary of
                the Gaussian that solves tau_t = nu(t) lap tau, whose variance
                grows with int_0^t nu (Carslaw and Jaeger 1959)

    first_order expands exact, not integrated: against integrated it is off
    by 2.5% at alpha t = 0.1.  DomainError names an argument that is not
    finite or outside its range.
    """
    if not 0 < nu0 < math.inf:
        raise DomainError(f"nu0 must be > 0 and finite, got {nu0}")
    if not 0 <= alpha < math.inf:
        raise DomainError(f"alpha must be >= 0 and finite, got {alpha}")
    if not 0 < eps_threshold < 1:
        raise DomainError(f"eps_threshold must be in (0,1), got {eps_threshold}")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be >= 0 and finite, got {t}")
    log_term = math.log(1.0 / (1.0 - eps_threshold))
    base = 2.0 * math.sqrt(nu0 * t * log_term)
    exact = 2.0 * math.sqrt(nu0 * (1.0 + alpha * t) * t * log_term)
    integrated = 2.0 * math.sqrt(nu0 * (t + 0.5 * alpha * t * t) * log_term)
    return AdiabaticBoundary(exact=exact, first_order=base * (1.0 + 0.5 * alpha * t),
                             integrated=integrated)
