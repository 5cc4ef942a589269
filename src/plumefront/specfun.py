"""Special functions underlying the diffusion profile hierarchy.

Kummer M and the modified Bessel functions are computed from series,
integral or asymptotic representations, so that each accuracy claim can be
audited term by term; Gamma and erfc come from the math module.  Arguments
are real and limited to the ranges that occur in the field solutions:
non-negative series arguments, strictly positive arguments for K0/K1.

Every function here is a float kernel, and nothing in specfun uses numpy:
the profile fits take their rows' I0 from numpy and K0 from scipy.special.

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
bessel_i     the defining series (DLMF 10.25.2), summed by _i_series, the
             loop that also sums the profile family's series regime.  Both
             series bound their error by their truncation plus 4 (k + 2) eps
             times the sum of the |terms| for rounding, as the profile
             family does.
bessel_k0/k1 ascending log series below z = 2; from there the trapezoid
             rule on e^-z int_0^inf exp(-z (cosh t - 1)) cosh(nt) dt (DLMF
             10.32.9) with step min(0.2, 0.7/sqrt(z)), at most 19 nodes;
             within 1e-15 relative of mpmath wherever K is normal.
_k01         the float kernel shared by bessel_k0, bessel_k1 and
             BesselField.eval, which gives K0 and K1 together: one series
             loop for I0, I1 and both harmonic sums below z = 2 (DLMF
             10.31.2), one trapezoid loop from there that shares each
             exponential between the orders.
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
from typing import NamedTuple

from .errors import DomainError, NumericalError

EULER_GAMMA = 0.5772156649015328606

# Series controls: stop once a term, or a tail bound, is below TERM_STOP of the sum.
TERM_STOP = 1e-16
MAX_TERMS = 500

# Branch points for K0/K1 and the Kummer series.
K_SERIES_MAX = 2.0
KUMMER_SERIES_MAX = 30.0
# erfc(26) = 5.7e-296; from z = 26.5 erfc is subnormal, from 27.3 it is 0.
ERFC_ASYMPTOTIC_MIN = 26.0

# The largest float, the argument from which exp overflows, machine epsilon.
_FLOAT_MAX = sys.float_info.max
_EXP_MAX = math.log(_FLOAT_MAX)
_EPS = sys.float_info.epsilon
_SQRT_PI = math.sqrt(math.pi)

# Trapezoid step of the K integrals up to z = 12.25, where 0.7/sqrt(z) takes
# over, and the number of nodes t = h, 2h, ...: at the last, z (cosh t - 1) > 42.
_K_STEP = 0.2
_K_STEP_SCALE = 0.7
_K_STEP_MAX_Z = 12.25  # (_K_STEP_SCALE / _K_STEP) ** 2
_K_NODE_COUNT = 19
_K_REL_ERR = 4.0 * (_K_NODE_COUNT + 2) * _EPS
# The smallest subnormal: the rounding of a subnormal K0 or K1.
_TINY = math.ulp(0.0)


class SpecFunResult(NamedTuple):
    """A function value together with an estimated absolute error bound (>= 0)."""

    value: float
    est_abs_error: float


def gamma_fn(z: float) -> float:
    """Gamma(z) for real z > 0 by math.gamma; inf where it overflows."""
    if not z > 0:
        raise DomainError(f"gamma_fn requires z > 0, got {z}")
    try:
        return math.gamma(z)
    except OverflowError:
        return math.inf


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
        # float(): numpy scalar arguments would make every step of the sum slower
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
        total, term, k, _ = _i_series(n, 0.25 * x * x, MAX_TERMS)
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


def _i_series(nu: float, quarter_sq: float, limit: int,
              cap: float = math.inf) -> tuple[float, float, int, int]:
    """(sum, last term, k, divisions) of sum_k (z^2/4)^k / (k! (nu + 1)_k),
    the series of I_nu(z) (z/2)^-nu Gamma(nu + 1), quarter_sq = z^2/4, up to
    the first term below TERM_STOP of the sum, the first sum that is inf, or
    term `limit`; for nu = n also that of Kummer's second formula, as n! /
    (k! (n + k)!) = 1 / (k! (n + 1)_k).  Each time the sum passes `cap`, a
    power of two, sum and term are divided by it, exactly: the term is > 1e-16 cap."""
    total = term = 1.0
    divisions = 0
    for k in range(1, limit + 1):
        term *= quarter_sq / (k * (nu + k))
        total += term
        if term < TERM_STOP * total or total == math.inf:
            break
        if total > cap:
            total, term, divisions = total / cap, term / cap, divisions + 1
    return total, term, k, divisions


def bessel_i(nu: float, z: float) -> SpecFunResult:
    """Modified Bessel function of the first kind, (z/2)^nu / Gamma(nu + 1)
    sum_k (z^2/4)^k / (k! (nu + 1)_k) (DLMF 10.25.2), for finite nu, z >= 0.

    The terms are positive and their ratios fall, so term rho / (1 - rho), rho
    the next ratio, bounds the tail.  The prefactor comes from logarithms
    where (z/2)^nu or Gamma(nu + 1) leaves the float range, or where the
    sum overflows under a prefactor below 1 and is summed again, divided by
    2^512 as it grows: NumericalError only where a term ratio passes 2^511.
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
    total, term, k, divisions = _i_series(nu, quarter_sq, MAX_TERMS + int(z))
    if total == math.inf and power < log_gamma:  # a prefactor < 1 may bring I_nu back into range
        total, term, k, divisions = _i_series(nu, quarter_sq, MAX_TERMS + int(z), 2.0 ** 512)
        if total == math.inf:
            raise NumericalError(f"bessel_i({nu}, {z}): the series overflows")
    if total == math.inf:
        return SpecFunResult(math.inf, math.inf)
    if not term < TERM_STOP * total:
        raise NumericalError(f"bessel_i({nu}, {z}): the series did not converge in {k} terms")
    rho = quarter_sq / ((k + 1) * (nu + k + 1))
    rel_err = term / total * rho / (1.0 - rho) + 4.0 * (k + 2) * _EPS
    if nu < 170.0 and abs(power) < _EXP_MAX:  # not re-summed: that needs nu > 5000
        value = half ** nu / math.gamma(nu + 1.0) * total
    else:  # rounding the exponent costs a multiple of its terms' size
        log_scale = divisions * 512 * math.log(2.0)
        exponent = power - log_gamma + math.log(total) + log_scale
        value = math.exp(exponent) if exponent < _EXP_MAX else math.inf
        rel_err += 2.0 * (abs(power) + log_gamma + log_scale + abs(exponent)) * _EPS
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
    """K0 and K1 for z >= 2 from e^-z int_0^inf exp(-z (cosh t - 1)) cosh(n t) dt,
    n = 0 and 1 (DLMF 10.32.9), by one trapezoid pass with step min(0.2,
    0.7/sqrt(z)), which follows the exp(-z t^2/2) width of the peak.

    The integrand is analytic and decays doubly exponentially, so the rule
    converges geometrically in 1/h (Trefethen and Weideman 2014): its error
    is below 5e-16 relative at every z (the most, for K1, at z = 12.25).
    Each term serves both orders, as cosh t = 1 + (cosh t - 1); the pass
    stops once a term of the second sum falls below TERM_STOP of the first,
    and past the last node every term is below 1e-17 of the sum.
    """
    if z < _K_STEP_MAX_Z:
        h, nodes = _K_STEP, _K_NODES
    else:
        h = _K_STEP_SCALE / math.sqrt(z)
        nodes = _k_nodes(h)
    s0, s1 = 0.5, 0.0  # sums of the terms w and of w (cosh t - 1); w = 1/2 at t = 0
    for c in nodes:
        w = math.exp(-z * c)
        s0 += w
        s1 += w * c
        if w * c < TERM_STOP * s0:
            break
    scale = math.exp(-z)  # last: where it is subnormal, only one rounding follows
    return h * s0 * scale, h * (s0 + s1) * scale


def _k_nodes(h: float):
    """cosh t - 1 = 2 sinh(t/2)^2, which keeps its relative accuracy as
    t -> 0, at the nodes t = h, 2h, ..., _K_NODE_COUNT h."""
    for k in range(1, _K_NODE_COUNT + 1):
        half = math.sinh(0.5 * h * k)
        yield 2.0 * half * half


_K_NODES = tuple(_k_nodes(_K_STEP))  # the nodes below z = 12.25


def _k01(z: float) -> tuple[float, float, float, float]:
    """(K0, its error bound, K1, its error bound) as floats; callers check
    that z is finite and > 0.

    From z = 2 the bound is 4 (_K_NODE_COUNT + 2) eps (1.9e-14) of the value,
    for the trapezoid error and the rounding of at most that many positive
    terms and the scale factor, plus the smallest subnormal for the rounding
    of a subnormal result.
    """
    if z < K_SERIES_MAX:
        k0, k1 = _k01_series(z)
        return k0, 1e-14 * (abs(k0) + 1.0), k1, 1e-14 * (abs(k1) + 1.0 / z)
    k0, k1 = _k01_integral(z)
    return k0, _K_REL_ERR * k0 + _TINY, k1, _K_REL_ERR * k1 + _TINY


def bessel_k0(z: float) -> SpecFunResult:
    """Modified Bessel function of the second kind, order zero, for finite z > 0."""
    if not 0 < z < math.inf:
        raise DomainError(f"bessel_k0 requires finite z > 0, got {z}")
    k0, err0, _, _ = _k01(z)
    return SpecFunResult(k0, err0)


def bessel_k1(z: float) -> SpecFunResult:
    """Modified Bessel function of the second kind, order one, for finite z > 0:
    K0' = -K1 at full accuracy, which differencing K0 would not give."""
    if not 0 < z < math.inf:
        raise DomainError(f"bessel_k1 requires finite z > 0, got {z}")
    _, _, k1, err1 = _k01(z)
    return SpecFunResult(k1, err1)


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
