"""Special functions underlying the diffusion profile hierarchy.

Kummer M and the modified Bessel functions are computed from series,
integral or asymptotic representations, so that each accuracy claim can be
audited term by term; Gamma and erfc come from the math module.  Arguments
are real and limited to the ranges that occur in the field solutions:
non-negative series arguments, strictly positive arguments for K0/K1.

Evaluation strategy
-------------------
gamma_fn     math.gamma; inf where Gamma overflows.
kummer_m     the profile family a = n + 1/2, b = 2n + 1 (n = 0, 1, ...),
             which is every call the fields and fits make, through
             Kummer's second formula M(n+1/2, 2n+1, 2x) = n! e^x (x/2)^-n
             I_n(x) (DLMF 13.6.9): below x = max(15, n^2) the positive
             series e^x sum_k n!/(k!(n+k)!) (x^2/4)^k, from there the
             large-argument series of I_n (DLMF 10.40.1) truncated at its
             smallest term, with e^2x formed as e^x (e^x c) so that the
             result is inf only where M overflows, without setting the
             floating-point overflow flag.  Both regimes stay within 3e-14
             relative of mpmath for n <= 3 (the worst case is the
             truncation at x = 15).  Every other (a, b): the defining
             series (DLMF 13.2.2) at every finite z.
bessel_i     the defining series (DLMF 10.25.2).  Both series bound their
             error by their truncation plus 4 (k + 2) eps times the sum of
             the |terms| for rounding, as the profile family does.
bessel_k0/k1 ascending log series below z = 2; trapezoidal evaluation of
             the integral representation int_0^inf exp(-z cosh t) cosh(nt) dt
             on [2, 12) (the integrand decays doubly exponentially, so the
             trapezoid rule is spectrally accurate there); large-argument
             asymptotic series from z = 12 where its optimal truncation
             error is below 1e-11 relative.  A plain two-regime split at
             z = 2 cannot reach the 1e-9 target: the asymptotic series'
             smallest term at z = 2 is ~7e-3 of the value.
bessel_k01   K0 and K1 together from the float kernel _k01, which the
             Bessel field's eval calls directly: one series loop for I0, I1
             and both harmonic sums below z = 2, and one trapezoid loop over
             the table _K_COSH of cosh(0.2 k) that shares each exp(-z cosh t)
             between the orders (DLMF 10.31.2, 10.32.9).
bessel_k0_array
             K0 of a numpy array, values only, for the Bessel profile fit:
             the representations and branch points of bessel_k0, one mask
             per regime, terms as running products along a second axis.
             The fields and functionals call the scalar functions, which are
             faster point by point and carry est_abs_error.
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

from .errors import DomainError, NumericalError

EULER_GAMMA = 0.5772156649015328606

# Series controls: stop once a term, or a tail bound, is below TERM_STOP of the sum.
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


@dataclass(frozen=True)
class SpecFunResult:
    """A function value together with an estimated absolute error bound."""

    value: float
    est_abs_error: float

    def __post_init__(self):
        if self.est_abs_error < 0:
            raise DomainError("est_abs_error must be non-negative")


def gamma_fn(z: float) -> float:
    """Gamma(z) for real z > 0 by math.gamma; inf where it overflows."""
    if not z > 0:
        raise DomainError(f"gamma_fn requires z > 0, got {z}")
    try:
        return math.gamma(z)
    except OverflowError:
        return math.inf


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
    Kummer's second formula (`_kummer_profile`); it is within 3e-14 relative
    of the true value for n <= 3.  Any other (a, b) takes the defining series
    sum_k (a)_k/(b)_k z^k/k! past its largest term, until the bound on its
    tail falls below 1e-16 of the sum, or raises NumericalError after 500 + 2z
    terms.  est_abs_error bounds the error; (+-inf, inf) where the sums overflow.
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

    # Once a + k, b + k > 0, every later term ratio z (a + m) / ((b + m)(m + 1))
    # lies in [0, rho]: past rho < 1 the tail is below |term| rho / (1 - rho).
    total = term = abs_sum = 1.0
    for k in range(1, MAX_TERMS + 2 * int(z) + 1):
        term *= z * (a + k - 1) / ((b + k - 1) * k)
        total += term
        abs_sum += abs(term)
        if abs(total) == math.inf:
            return SpecFunResult(total, math.inf)
        rho = z / (k + 1) * (1.0 + max(0.0, a - b) / (b + k))
        tail = abs(term) * rho / (1.0 - rho) if k + min(a, b) > 0 and rho < 1.0 else math.inf
        if term == 0.0 or tail < TERM_STOP * abs(total):  # 0.0: a polynomial, or underflow
            break
    else:
        raise NumericalError(f"kummer_m({a}, {b}, {z}): the series did not converge in {k} terms")
    return SpecFunResult(total, (tail if term else 0.0) + 4.0 * (k + 2) * _EPS * abs_sum)


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
    """Modified Bessel function of the first kind, (z/2)^nu / Gamma(nu + 1)
    sum_k (z^2/4)^k / (k! (nu + 1)_k) (DLMF 10.25.2), for finite nu, z >= 0.

    The terms are positive and their ratios fall, so term rho / (1 - rho), rho
    the next ratio, bounds the tail.  The prefactor comes from logarithms
    where (z/2)^nu or Gamma(nu + 1) leaves the float range.
    """
    if not 0 <= nu < math.inf:
        raise DomainError(f"bessel_i requires finite nu >= 0, got {nu}")
    if not 0 <= z < math.inf:
        raise DomainError(f"bessel_i requires finite z >= 0, got {z}")
    if z == 0.0:
        return SpecFunResult(1.0 if nu == 0 else 0.0, 0.0)

    half = 0.5 * z
    power, log_gamma = nu * math.log(half), math.lgamma(nu + 1.0)
    quarter_sq = half * half
    total = term = 1.0
    for k in range(1, MAX_TERMS + int(z) + 1):
        term *= quarter_sq / (k * (nu + k))
        total += term
        if total == math.inf:
            if power < log_gamma:  # a prefactor < 1 may bring I_nu back into range
                raise NumericalError(f"bessel_i({nu}, {z}): the series overflows")
            return SpecFunResult(math.inf, math.inf)
        if term < TERM_STOP * total:
            break
    else:
        raise NumericalError(f"bessel_i({nu}, {z}): the series did not converge in {k} terms")
    rho = quarter_sq / ((k + 1) * (nu + k + 1))
    rel_err = term / total * rho / (1.0 - rho) + 4.0 * (k + 2) * _EPS
    if nu < 170.0 and abs(power) < _EXP_MAX:
        value = half ** nu / math.gamma(nu + 1.0) * total
    else:  # rounding the exponent costs a multiple of its terms' size
        exponent = power - log_gamma + math.log(total)
        value = math.exp(exponent) if exponent < _EXP_MAX else math.inf
        rel_err += 2.0 * (abs(power) + log_gamma + abs(exponent)) * _EPS
    return SpecFunResult(value, value * rel_err)


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
    """Modified Bessel function of the second kind, order one, for z > 0:
    K0' = -K1 at full accuracy, which differencing K0 would not give."""
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
