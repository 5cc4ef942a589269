"""Special functions underlying the diffusion profile hierarchy.

Everything is computed directly from series, integral, or asymptotic
representations so the accuracy claims can be audited term by term; no
library special-function calls are wrapped.  Arguments are real and limited
to the ranges that actually occur in the field solutions: non-negative
series arguments, strictly positive arguments for K0/K1.

Evaluation strategy
-------------------
gamma_fn     Stirling asymptotic series for ln Gamma after shifting the
             argument above 12 by the recurrence Gamma(z) = Gamma(z+1)/z.
kummer_m     defining power series up to z = 30 (terms stop below
             1e-16 of the running sum, hard cap 500 terms); leading
             asymptotic term Gamma(b)/Gamma(a) z^(a-b) e^z beyond, with an
             honest first-correction error estimate.
bessel_i     defining power series with the same stopping rule.
bessel_k0/k1 ascending log series below z = 2; trapezoidal evaluation of
             the integral representation int_0^inf exp(-z cosh t) dt on
             [2, 12) (the integrand decays doubly exponentially, so the
             trapezoid rule is spectrally accurate there); large-argument
             asymptotic series from z = 12 where its optimal truncation
             error is below 1e-11 relative.  A plain two-regime split at
             z = 2 cannot reach the 1e-9 target: the asymptotic series'
             smallest term at z = 2 is ~7e-3 of the value.
bessel_k0_array
             K0 of a numpy array, values only, for the Bessel profile fit:
             the same three representations and branch points as bessel_k0,
             one mask per regime.  The series terms and the asymptotic terms
             are running products along a second axis (the asymptotic ones
             truncated per element where the scalar loop stops); the
             trapezoid rule is one outer product of z with the nodes.  On
             300 points it takes 0.11 ms, against 2.9 ms for bessel_k0 point
             by point.  The scalar functions stay separate: the fields and
             functionals call K0 one point at a time, where one call through
             the array kernel costs 5-8x a scalar call (43-84 us against
             9-11 us, 2-vCPU box), and they need est_abs_error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606

# Series controls: stop when a term falls below TERM_STOP of the running sum.
TERM_STOP = 1e-16
MAX_TERMS = 500

# Branch points for K0/K1 and the Kummer series.
K_SERIES_MAX = 2.0
K_ASYMPTOTIC_MIN = 12.0
KUMMER_SERIES_MAX = 30.0

# Terms the array K0 forms in each regime.  Below z = 2, (z^2/4)^k / (k!)^2
# times H_k is below TERM_STOP from k = 12; from z = 12 the scalar
# asymptotic loop stops by k = 36 (at z ~ 17).
_K0_SERIES_TERMS = 14
_K_ASYMPTOTIC_TERMS = 40

# Stirling series coefficients B_2n / (2n (2n-1)).
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)


@dataclass(frozen=True)
class SpecFunResult:
    """A function value together with an estimated absolute error bound."""

    value: float
    est_abs_error: float

    def __post_init__(self):
        if self.est_abs_error < 0:
            raise DomainError("est_abs_error must be non-negative")


def gamma_fn(z: float) -> float:
    """Gamma function for strictly positive real argument.

    Relative error is below 1e-12 on [0.5, 50] (verified against a
    high-precision oracle in the test suite).
    """
    if not z > 0:
        raise DomainError(f"gamma_fn requires z > 0, got {z}")
    # Shift into the asymptotic regime, then divide the factors back out.
    shift = 1.0
    zz = z
    while zz < 12.0:
        shift *= zz
        zz += 1.0
    w = 1.0 / zz
    w2 = w * w
    series = 0.0
    power = w
    for c in _STIRLING:
        series += c * power
        power *= w2
    log_gamma = (zz - 0.5) * math.log(zz) - zz + 0.5 * math.log(2.0 * math.pi) + series
    return math.exp(log_gamma) / shift


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1); equals 1 for n = 0."""
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer requires a non-negative integer n, got {n}")
    result = 1.0
    for k in range(int(n)):
        result *= a + k
    return result


def kummer_m(a: float, b: float, z: float) -> SpecFunResult:
    """Confluent hypergeometric function M(a, b, z) for z >= 0.

    The defining series sum_n (a)_n/(b)_n z^n/n! is used for z <= 30 and is
    accurate to ~1e-14 relative there for the non-negative parameters that
    occur in the profile hierarchy.  Beyond 30 only the leading asymptotic
    term Gamma(b)/Gamma(a) z^(a-b) e^z is evaluated and est_abs_error
    reports the first neglected correction, |(1-a)(b-a)|/z of the value.
    """
    if b <= 0 and b == int(b):
        raise DomainError(f"kummer_m undefined for non-positive integer b = {b}")
    if z < 0:
        raise DomainError(f"kummer_m requires z >= 0, got {z}")

    if z <= KUMMER_SERIES_MAX or a <= 0:
        total = 1.0
        term = 1.0
        for n in range(1, MAX_TERMS + 1):
            term *= (a + n - 1) / ((b + n - 1) * n) * z
            total += term
            if abs(term) < TERM_STOP * abs(total):
                break
        return SpecFunResult(total, abs(term) + 1e-15 * abs(total))

    # Leading asymptotic term; degraded accuracy, reported honestly.
    exponent = z + (a - b) * math.log(z) + math.log(gamma_fn(b) / gamma_fn(a))
    if exponent > 700.0:
        return SpecFunResult(math.inf, math.inf)
    value = math.exp(exponent)
    correction = abs((1.0 - a) * (b - a)) / z
    return SpecFunResult(value, abs(value) * max(correction, 1e-15))


def bessel_i(nu: float, z: float) -> SpecFunResult:
    """Modified Bessel function of the first kind from its defining series."""
    if nu < 0:
        raise DomainError(f"bessel_i requires nu >= 0, got {nu}")
    if z < 0:
        raise DomainError(f"bessel_i requires z >= 0, got {z}")
    if z == 0.0:
        return SpecFunResult(1.0 if nu == 0 else 0.0, 0.0)

    half = 0.5 * z
    term = half**nu / gamma_fn(nu + 1.0)
    total = term
    quarter_sq = half * half
    for k in range(MAX_TERMS):
        term *= quarter_sq / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if term < TERM_STOP * total:
            break
    return SpecFunResult(total, term + 1e-15 * total)


def _k_integral(z: float, order: int) -> float:
    """Trapezoidal evaluation of int_0^inf exp(-z cosh t) cosh(order*t) dt.

    The integrand is even in t and decays like exp(-z e^t / 2); for functions
    of this type the trapezoid rule converges geometrically in 1/h, so a step
    of 0.2 already leaves discretization error far below double precision.
    """
    step = 0.2
    # Truncate where z cosh t underflows exp().
    t_max = math.acosh(745.0 / z) + step
    total = 0.5 * math.exp(-z)  # t = 0 term, cosh(0) = 1
    t = step
    while t <= t_max:
        ch = math.cosh(t)
        w = math.exp(-z * ch)
        total += w * (math.cosh(order * t) if order else 1.0)
        t += step
    return total * step


def _k0_series(z: float) -> float:
    """Ascending series K0 = -(ln(z/2) + gamma) I0(z) + sum H_k (z^2/4)^k/(k!)^2."""
    i0 = bessel_i(0.0, z).value
    quarter_sq = 0.25 * z * z
    term = 1.0
    harmonic = 0.0
    series = 0.0
    for k in range(1, MAX_TERMS + 1):
        term *= quarter_sq / (k * k)
        harmonic += 1.0 / k
        contrib = term * harmonic
        series += contrib
        if contrib < TERM_STOP * max(series, 1.0):
            break
    return -(math.log(0.5 * z) + EULER_GAMMA) * i0 + series


def _k1_series(z: float) -> float:
    """Ascending series for K1 (DLMF 10.31.2 with n = 1)."""
    i1 = bessel_i(1.0, z).value
    quarter_sq = 0.25 * z * z
    # sum_k (psi(k+1) + psi(k+2)) (z^2/4)^k / (k! (k+1)!)
    term = 1.0  # k = 0 value of (z^2/4)^k / (k!(k+1)!)
    h_k = 0.0  # H_0
    h_k1 = 1.0  # H_1
    series = term * (2.0 * -EULER_GAMMA + h_k + h_k1)
    for k in range(1, MAX_TERMS + 1):
        term *= quarter_sq / (k * (k + 1.0))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1.0)
        contrib = term * (2.0 * -EULER_GAMMA + h_k + h_k1)
        series += contrib
        if abs(contrib) < TERM_STOP * max(abs(series), 1.0):
            break
    return 1.0 / z + math.log(0.5 * z) * i1 - 0.25 * z * series


def _k_asymptotic(z: float, mu: float) -> tuple[float, float]:
    """Large-argument series sqrt(pi/2z) e^-z sum_k prod(mu-(2j-1)^2)/(k!(8z)^k).

    Terms are added while they shrink; the first omitted term is returned as
    the relative truncation error.
    """
    total = 1.0
    term = 1.0
    truncation = 0.0
    for k in range(1, MAX_TERMS + 1):
        ratio = (mu - (2 * k - 1) ** 2) / (8.0 * z * k)
        nxt = term * ratio
        if abs(nxt) >= abs(term):
            truncation = abs(nxt)
            break
        term = nxt
        total += term
        if abs(term) < TERM_STOP * abs(total):
            truncation = abs(term)
            break
    prefactor = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    return prefactor * total, prefactor * truncation


def bessel_k0(z: float) -> SpecFunResult:
    """Modified Bessel function of the second kind, order zero, for z > 0."""
    if not z > 0:
        raise DomainError(f"bessel_k0 requires z > 0, got {z}")
    if z < K_SERIES_MAX:
        value = _k0_series(z)
        return SpecFunResult(value, 1e-14 * (abs(value) + 1.0))
    if z < K_ASYMPTOTIC_MIN:
        value = _k_integral(z, 0)
        return SpecFunResult(value, 1e-13 * abs(value))
    value, trunc = _k_asymptotic(z, 0.0)
    return SpecFunResult(value, trunc + 1e-15 * abs(value))


def bessel_k0_array(z) -> np.ndarray:
    """K0 of every element of z > 0, shaped like z; values only.

    Same representations and branch points as `bessel_k0`, within 1e-13 of
    it wherever K0 is normal; past z ~ 705 the values are subnormal and
    reach 0 near z = 742.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0):
        raise DomainError(f"bessel_k0_array requires z > 0, got {z[~(z > 0)].flat[0]}")
    flat = z.ravel()
    out = np.empty_like(flat)

    small = flat < K_SERIES_MAX
    if small.any():
        out[small] = _k0_series_array(flat[small])

    mid = ~small & (flat < K_ASYMPTOTIC_MIN)
    if mid.any():
        out[mid] = _k0_integral_array(flat[mid])

    large = flat >= K_ASYMPTOTIC_MIN
    if large.any():
        out[large] = _k0_asymptotic_array(flat[large])
    return out.reshape(z.shape)


def _k0_series_array(z: np.ndarray) -> np.ndarray:
    """`_k0_series` for an array: the terms (z^2/4)^k / (k!)^2 as one
    running product over k = 1 .. _K0_SERIES_TERMS."""
    k_sq = np.arange(1, _K0_SERIES_TERMS + 1) ** 2
    terms = np.cumprod(np.divide.outer(0.25 * z * z, k_sq), axis=1)
    harmonic = np.cumsum(1.0 / np.arange(1, _K0_SERIES_TERMS + 1))
    i0 = 1.0 + terms.sum(axis=1)
    return -(np.log(0.5 * z) + EULER_GAMMA) * i0 + terms @ harmonic


def _k0_integral_array(z: np.ndarray) -> np.ndarray:
    """`_k_integral` of order 0 for an array, on the nodes the smallest z
    needs; at larger z the extra nodes lie past z cosh t = 745 and add 0."""
    step = 0.2
    nodes = step * np.arange(1, math.acosh(745.0 / z.min()) / step + 2)
    with np.errstate(under="ignore"):
        terms = np.exp(-np.multiply.outer(z, np.cosh(nodes)))
    return step * (0.5 * np.exp(-z) + terms.sum(axis=1))


def _k0_asymptotic_array(z: np.ndarray) -> np.ndarray:
    """`_k_asymptotic` with mu = 0 for an array, truncated per element.

    All _K_ASYMPTOTIC_TERMS terms are formed at once; each element keeps the
    terms the scalar loop adds: up to the first term that does not shrink
    (excluded) or the first below TERM_STOP of the running sum (included).
    """
    k = np.arange(1, _K_ASYMPTOTIC_TERMS + 1)
    ratios = -((2 * k - 1.0) ** 2) / np.multiply.outer(8.0 * z, k)
    terms = np.cumprod(np.column_stack([np.ones_like(z), ratios]), axis=1)
    sums = np.cumsum(terms, axis=1)  # sums[:, j] = 1 + term_1 + ... + term_j
    size = np.abs(terms)
    grows = size[:, 1:] >= size[:, :-1]
    stop = grows | (size[:, 1:] < TERM_STOP * np.abs(sums[:, 1:]))
    rows = np.arange(z.size)
    first = np.argmax(stop, axis=1)
    total = sums[rows, first + ~grows[rows, first]]
    with np.errstate(under="ignore"):
        return np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * total


def bessel_k1(z: float) -> SpecFunResult:
    """Modified Bessel function of the second kind, order one, for z > 0.

    Implemented (rather than differencing K0) so field derivatives through
    K0' = -K1 carry full accuracy.
    """
    if not z > 0:
        raise DomainError(f"bessel_k1 requires z > 0, got {z}")
    if z < K_SERIES_MAX:
        value = _k1_series(z)
        return SpecFunResult(value, 1e-14 * (abs(value) + 1.0 / z))
    if z < K_ASYMPTOTIC_MIN:
        value = _k_integral(z, 1)
        return SpecFunResult(value, 1e-13 * abs(value))
    value, trunc = _k_asymptotic(z, 4.0)
    return SpecFunResult(value, trunc + 1e-15 * abs(value))


def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in `dim` dimensions, 2 pi^(d/2)/Gamma(d/2)."""
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    return 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
