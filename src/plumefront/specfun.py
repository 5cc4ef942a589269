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
kummer_m     the profile family a = n + 1/2, b = 2n + 1 (n = 0, 1, ...),
             which is every call the fields and fits make, through
             Kummer's second formula M(n+1/2, 2n+1, 2x) = n! e^x (x/2)^-n
             I_n(x) (DLMF 13.6.9), with two regimes that need no gamma_fn
             call.  Below x = max(15, n^2), e^x sum_k n!/(k!(n+k)!)
             (x^2/4)^k: positive terms, stopped below 1e-16 of the running
             sum.  From there the large-argument series of I_n (DLMF
             10.40.1), n! (2/x)^n e^2x / sqrt(2 pi x) sum_k (-1)^k a_k(n)/x^k,
             truncated at its smallest term; x >= n^2 keeps its first
             correction (4n^2-1)/(8x) below 1/2.  e^2x is formed as
             e^x (e^x c) and the product is tested before it is taken, so
             the result is inf only where M overflows, without setting the
             floating-point overflow flag; from x = ln(max float) M > e^x
             overflows before any work.
             Both regimes stay within 3e-14 relative of mpmath for n <= 3
             (the worst case is the truncation at x = 15).  Other (a, b):
             defining power series up to z = 30 (same stopping rule, hard
             cap 500 terms); leading asymptotic term Gamma(b)/Gamma(a)
             z^(a-b) e^z beyond, with an honest first-correction error
             estimate.
bessel_i     defining power series with the same stopping rule.
bessel_k0/k1 ascending log series below z = 2; trapezoidal evaluation of
             the integral representation int_0^inf exp(-z cosh t) cosh(nt) dt
             on [2, 12) (the integrand decays doubly exponentially, so the
             trapezoid rule is spectrally accurate there); large-argument
             asymptotic series from z = 12 where its optimal truncation
             error is below 1e-11 relative.  A plain two-regime split at
             z = 2 cannot reach the 1e-9 target: the asymptotic series'
             smallest term at z = 2 is ~7e-3 of the value.
bessel_k01   K0 and K1 together, from the kernel _k01, which returns both
             orders and their error bounds as floats.  Below z = 12 one
             series loop accumulates I0, I1 and both harmonic sums (no
             bessel_i or gamma_fn call), and one trapezoid loop over the
             module table _K_COSH of cosh(0.2 k) shares each exp(-z cosh t)
             between the orders (DLMF 10.31.2, 10.32.9).  bessel_k0,
             bessel_k1 and bessel_k01 build SpecFunResult from the kernel
             when they return; the Bessel field's eval calls the kernel.
bessel_k0_array
             K0 of a numpy array, values only, for the Bessel profile fit:
             the same three representations and branch points as bessel_k0,
             one mask per regime.  The series terms and the asymptotic terms
             are running products along a second axis (the asymptotic ones
             truncated per element where the scalar loop stops); the
             trapezoid rule is one outer product of z with _K_COSH.  On 300
             points it takes 0.10 ms, against 0.9 ms for bessel_k0 point by
             point.  The scalar functions stay separate: the fields and
             functionals call K0 one point at a time, where one call through
             the array kernel costs 5-7x a scalar call (14-28 us against
             2.2-4.6 us, 2-vCPU box), and they need est_abs_error.
_exp_erfc    e^a erfc(z) as a float, for the decaying-source field:
             math.erfc below z = 26; from there e^(a - z^2) times the
             asymptotic series of erfcx(z) = e^(z^2) erfc(z) (DLMF 7.12.1)
             to its first term below 1e-17, so erfc(z) never underflows
             against an e^a that overflows.  Both erfc(z) on [-5, 26.6]
             and the series from z = 26 are within 4e-16 of mpmath.
"""

from __future__ import annotations

import math
import sys
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
# erfc(26) = 5.7e-296; from z = 26.5 erfc is subnormal, from 27.3 it is 0.
ERFC_ASYMPTOTIC_MIN = 26.0

# The largest float, the argument from which exp overflows, machine epsilon.
_FLOAT_MAX = sys.float_info.max
_EXP_MAX = math.log(_FLOAT_MAX)
_EPS = sys.float_info.epsilon
_SQRT_PI = math.sqrt(math.pi)

# Terms the array K0 forms in each regime.  Below z = 2, (z^2/4)^k / (k!)^2
# times H_k is below TERM_STOP from k = 12; from z = 12 the scalar
# asymptotic loop stops by k = 36 (at z ~ 17).
_K0_SERIES_TERMS = 14
_K_ASYMPTOTIC_TERMS = 40

# Trapezoid step of the K integrals on [2, 12), and cosh of its nodes
# t = step, 2 step, ... out to where z cosh t passes 745 (exp underflows)
# at the smallest z of the regime.
_K_STEP = 0.2
_K_COSH = tuple(math.cosh(_K_STEP * k)
                for k in range(1, int(math.acosh(745.0 / K_SERIES_MAX) / _K_STEP) + 2))

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
    """Confluent hypergeometric function M(a, b, z) for finite z >= 0.

    The profile family a = n + 1/2, b = 2n + 1 (integer n >= 0) goes through
    Kummer's second formula, by series below z/2 = max(15, n^2) and by the
    Bessel-I asymptotic series from there; it is within 3e-14 relative of
    the true value for n <= 3, est_abs_error bounds its error, and it is
    (inf, inf) exactly where M overflows.  Any other (a, b) takes the
    defining series sum_n (a)_n/(b)_n z^n/n! for z <= 30, accurate to ~1e-14
    relative there for non-negative parameters; beyond 30 only the leading
    asymptotic term Gamma(b)/Gamma(a) z^(a-b) e^z is evaluated and
    est_abs_error reports the first neglected correction, |(1-a)(b-a)|/z
    of the value.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"kummer_m requires finite a and b, got a = {a}, b = {b}")
    if b <= 0 and b == int(b):
        raise DomainError(f"kummer_m undefined for non-positive integer b = {b}")
    if not 0 <= z < math.inf:
        raise DomainError(f"kummer_m requires finite z >= 0, got {z}")
    n = 0.5 * (b - 1.0)
    if a == 0.5 * b and n >= 0 and n.is_integer():
        # float(): np.vectorize passes numpy scalars, whose arithmetic is slower
        return _kummer_profile(n, 0.5 * float(z))

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


def _kummer_profile(n: float, x: float) -> SpecFunResult:
    """M(n + 1/2, 2n + 1, 2x) for integer n >= 0 and x >= 0 (DLMF 13.6.9).

    est_abs_error is the truncation bound of the regime plus 4 (k + 2) eps of
    the value for rounding, k the number of terms: term k is a running
    product of at most 3k roundings, and the sum and the prefactor add k + 8
    more (a first-order bound for positive terms; the alternating terms of
    the asymptotic regime, n >= 1, stay below a third of it).  Past the last
    added term the series regime's tail is smaller than that term, whose
    successors shrink by ratios below 1/2.  The asymptotic regime's
    truncation is taken as twice the first omitted term: on the real axis
    the optimally truncated remainder can exceed that term (by 1.4 times at
    x = 15, n = 3).
    """
    if x >= _EXP_MAX:  # M > e^x
        return SpecFunResult(math.inf, math.inf)
    if x < 0.5 * KUMMER_SERIES_MAX or x < n * n:
        quarter_sq = 0.25 * x * x
        total = term = 1.0
        for k in range(1, MAX_TERMS + 1):
            term *= quarter_sq / (k * (n + k))
            total += term
            if term < TERM_STOP * total:
                break
        scale = math.exp(x)
        if total > _FLOAT_MAX / scale:
            return SpecFunResult(math.inf, math.inf)
        return SpecFunResult(scale * total, scale * (term + 4.0 * (k + 2) * _EPS * total))

    mu = 4.0 * n * n
    total = term = 1.0
    for k in range(1, MAX_TERMS + 1):
        nxt = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) < TERM_STOP * total:
            break
    scale = math.exp(x)
    lead = math.factorial(int(n)) * (2.0 / x) ** n / math.sqrt(2.0 * math.pi * x)
    inner = scale * lead * total
    if inner > _FLOAT_MAX / scale:
        return SpecFunResult(math.inf, math.inf)
    value = scale * inner
    return SpecFunResult(value, value * (2.0 * abs(nxt) / total + 4.0 * (k + 2) * _EPS))


def bessel_i(nu: float, z: float) -> SpecFunResult:
    """Modified Bessel function of the first kind from its defining series."""
    if not 0 <= nu < math.inf:
        raise DomainError(f"bessel_i requires finite nu >= 0, got {nu}")
    if not 0 <= z < math.inf:
        raise DomainError(f"bessel_i requires finite z >= 0, got {z}")
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


def _k01_series(z: float) -> tuple[float, float]:
    """K0 and K1 from their ascending series (DLMF 10.31.2), in one loop.

    With u_k = (z^2/4)^k / (k!)^2 and H_k the harmonic numbers,
        K0 = -(ln(z/2) + gamma) I0 + sum_k H_k u_k,        I0 = sum_k u_k,
        K1 = 1/z + (z/2) [(ln(z/2) + gamma) S - sum_k (H_k + H_(k+1)) u_k/(k+1) / 2],
    where S = sum_k u_k/(k+1), so I1 = (z/2) S and psi(k+1) = H_k - gamma.
    u_k H_(k+1) bounds the k-th term of all four sums, and the loop stops
    once it falls below TERM_STOP (of I0 >= 1); the terms then shrink
    faster than geometrically.
    """
    quarter_sq = 0.25 * z * z
    u = 1.0  # u_0
    h_k, h_next = 0.0, 1.0  # H_0, H_1
    i0, s0 = 1.0, 0.0
    i1, s1 = 1.0, h_next  # S and sum (H_k + H_(k+1)) u_k/(k+1) at k = 0
    for k in range(1, MAX_TERMS + 1):
        u *= quarter_sq / (k * k)
        h_k = h_next
        h_next += 1.0 / (k + 1.0)
        v = u / (k + 1.0)
        i0 += u
        s0 += u * h_k
        i1 += v
        s1 += v * (h_k + h_next)
        if u * h_next < TERM_STOP:
            break
    log_term = math.log(0.5 * z) + EULER_GAMMA
    k0 = -log_term * i0 + s0
    k1 = 1.0 / z + 0.5 * z * (log_term * i1 - 0.5 * s1)
    return k0, k1


def _k01_integral(z: float) -> tuple[float, float]:
    """K0 and K1 on [2, 12) from int_0^inf exp(-z cosh t) cosh(n t) dt,
    n = 0 and 1 (DLMF 10.32.9), by one trapezoid pass over _K_COSH.

    The integrand is even in t and decays like exp(-z e^t / 2); for functions
    of this type the trapezoid rule converges geometrically in 1/h, so a step
    of 0.2 already leaves discretization error far below double precision.
    Each exp(-z cosh t) serves both orders; the pass stops once the K1 term
    falls below TERM_STOP of the K0 sum, and past the last node of _K_COSH
    every term underflows anyway.
    """
    k0 = k1 = 0.5 * math.exp(-z)  # t = 0 terms, cosh(0) = 1
    for ch in _K_COSH:
        w = math.exp(-z * ch)
        k0 += w
        k1 += w * ch
        if w * ch < TERM_STOP * k0:
            break
    return _K_STEP * k0, _K_STEP * k1


def _k01(z: float) -> tuple[float, float, float, float]:
    """(K0, its error bound, K1, its error bound) as floats; callers check z > 0."""
    if z < K_SERIES_MAX:
        k0, k1 = _k01_series(z)
        return k0, 1e-14 * (abs(k0) + 1.0), k1, 1e-14 * (abs(k1) + 1.0 / z)
    if z < K_ASYMPTOTIC_MIN:
        k0, k1 = _k01_integral(z)
        return k0, 1e-13 * k0, k1, 1e-13 * k1
    return (*_k_asymptotic(z, 0.0), *_k_asymptotic(z, 4.0))


def _k_asymptotic(z: float, mu: float) -> tuple[float, float]:
    """Large-argument series sqrt(pi/2z) e^-z sum_k prod(mu-(2j-1)^2)/(k!(8z)^k),
    mu = 4 n^2 for K_n: (value, error bound).

    Terms are added while they shrink; the first omitted term bounds the
    relative truncation error.
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
    value = prefactor * total
    return value, prefactor * truncation + 1e-15 * abs(value)


def bessel_k0(z: float) -> SpecFunResult:
    """Modified Bessel function of the second kind, order zero, for z > 0."""
    if not z > 0:
        raise DomainError(f"bessel_k0 requires z > 0, got {z}")
    k0, err0, _, _ = _k01(z)
    return SpecFunResult(k0, err0)


def bessel_k1(z: float) -> SpecFunResult:
    """Modified Bessel function of the second kind, order one, for z > 0.

    Implemented (rather than differencing K0) so field derivatives through
    K0' = -K1 carry full accuracy.
    """
    if not z > 0:
        raise DomainError(f"bessel_k1 requires z > 0, got {z}")
    _, _, k1, err1 = _k01(z)
    return SpecFunResult(k1, err1)


def bessel_k01(z: float) -> tuple[SpecFunResult, SpecFunResult]:
    """(K0(z), K1(z)) for z > 0: the values of `bessel_k0` and `bessel_k1`
    from one kernel call."""
    if not z > 0:
        raise DomainError(f"bessel_k01 requires z > 0, got {z}")
    k0, err0, k1, err1 = _k01(z)
    return SpecFunResult(k0, err0), SpecFunResult(k1, err1)


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
    """The K0 half of `_k01_series` for an array: the terms u_k as one
    running product over k = 1 .. _K0_SERIES_TERMS."""
    k_sq = np.arange(1, _K0_SERIES_TERMS + 1) ** 2
    terms = np.cumprod(np.divide.outer(0.25 * z * z, k_sq), axis=1)
    harmonic = np.cumsum(1.0 / np.arange(1, _K0_SERIES_TERMS + 1))
    i0 = 1.0 + terms.sum(axis=1)
    return -(np.log(0.5 * z) + EULER_GAMMA) * i0 + terms @ harmonic


def _k0_integral_array(z: np.ndarray) -> np.ndarray:
    """The K0 half of `_k01_integral` for an array, on every node of
    _K_COSH; terms past z cosh t = 745 underflow to 0."""
    with np.errstate(under="ignore"):
        terms = np.exp(-np.multiply.outer(z, _K_COSH))
    return _K_STEP * (0.5 * np.exp(-z) + terms.sum(axis=1))


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


def _exp_erfc(a: float, z: float) -> float:
    """e^a erfc(z); below z = ERFC_ASYMPTOTIC_MIN, e^a must be finite."""
    if z < ERFC_ASYMPTOTIC_MIN:
        return math.exp(a) * math.erfc(z)
    h = 0.5 / (z * z)
    term = total = 1.0
    m = 0
    while abs(term) >= 1e-17:
        m += 1
        term *= -(2 * m - 1) * h
        total += term
    return math.exp(a - z * z) * total / (z * _SQRT_PI)


def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in `dim` dimensions, 2 pi^(d/2)/Gamma(d/2)."""
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    return 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
