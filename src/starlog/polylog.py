"""Lerch-type tails and the polylogarithm Li_v(x) on x in [0, 1].

Past a short head, every sum the bounds need is a tail T(mu, s, a) =
sum_{n>=0} e^{-mu(a+n)} (a+n)^-s with e^{-mu} = B^2, and so is Li_v(x) with
e^{-mu} = x.  `lerch_tail` sums them all by Euler-Maclaurin (DLMF 2.10), with
the generalised exponential integral E_s (DLMF 8.19) in its integral term.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

# B_2k / (2k)! for k = 1..7, the Euler-Maclaurin correction coefficients
_EM_COEFFS = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
)
_ZETA_HEAD = 16


@functools.cache
def _zeta_minus_one(k: int) -> float:
    """zeta(k) - 1 = sum_{n>=2} n^-k, memoised for the lgamma series."""
    return lerch_tail(0.0, k, 2.0)


def _exp_neg(mu: float, u: float) -> float:
    """e^{-mu u} with mu split at 26 bits, so that mu_hi u is exact for an integer
    u < 2^27: a rounded mu u would carry mu u times its rounding into the result."""
    mant, e = math.frexp(mu)
    hi = math.ldexp(math.floor(math.ldexp(mant, 26)), e - 26)
    return math.exp(-hi * u) * math.exp(-(mu - hi) * u)


def _scaled_expint(p: float, z: float) -> float:
    """e^z E_p(z), E_p(z) = int_1^inf e^{-z v} v^-p dv, for a finite p >= 0 and z > 0
    (DLMF 8.19); the factor e^z leaves it insensitive to the rounding of z."""
    if z > 1.0 or p > 32.0:
        # the continued fraction (Numerical Recipes 6.3) from the bottom up, which rounds
        # less than forward Lentz, doubling its depth until the value stays; 256 levels
        # suffice for z just above 1, 128 at any z once p > 32, where the recurrence is long
        depth, prev = 8, 0.0
        while depth <= 4096:
            tail = 0.0
            for i in range(depth, 0, -1):
                tail = -i * (p - 1.0 + i) / (z + p + 2.0 * i + tail)
            e = 1.0 / (z + p + tail)
            if e == prev:
                return e
            depth, prev = 2 * depth, e
        raise DomainError(f"the continued fraction for E_p(z) does not settle at p={p}, z={z}")
    # the series at p0 = p - k in [0, 1.5), then e^z E_{q+1} = (1 - z e^z E_q)/q upward
    k = max(0, math.floor(p - 0.5))
    p0 = p - k
    a = 1.0 - p0
    # E_p0(z) = Gamma(a) z^-a - sum_{n>=0} (-z)^n / (n! (n + a)); its n = 0 term joins
    # the Gamma term as (Gamma(1 + a) z^-a - 1)/a, with lgamma(1 + a)/a as the series
    # -gamma - sum_{j>=2} zeta(j) (-a)^(j-1)/j (math.lgamma near 1 is accurate only
    # absolutely): its zeta(j) - 1 part converges like (a/2)^j, its 1 part is
    # (a - log(1 + a))/a, and gamma = 0.5772... is Euler's constant
    series = (_zeta_minus_one(j) * (-a) ** (j - 1) / j for j in range(2, 57))
    lg = -0.5772156649015329 - math.fsum(series) + (1.0 - math.log1p(a) / a if a else 0.0)
    # expm1 where a log z is small, else z^-a by pow: exp(-a log z) would carry the
    # rounding of log z times a log z
    if abs(a * math.log(z)) >= 1.0:
        e = (math.exp(a * lg) * z**p0 / z - 1.0) / a
    else:
        e = math.expm1(a * (lg - math.log(z))) / a if a else lg - math.log(z)
    e -= math.fsum((-z) ** n / (math.factorial(n) * (n + a)) for n in range(1, 20))
    e *= math.exp(z)
    for q in range(k):
        e = (1.0 - z * e) / (p0 + q)
    return e


def lerch_tail(mu: float, s: float, a: float) -> float:
    """T(mu, s, a) = sum_{n>=0} e^{-mu(a+n)} (a+n)^-s for finite mu >= 0,
    s >= 0 and a >= 1, with s > 1 at mu = 0.

    A direct head of 16 terms, then Euler-Maclaurin at b = a + 16 for
    f(u) = e^{-mu u} u^-s: the integral b^{1-s} E_s(mu b), f(b)/2 and seven
    Bernoulli corrections, all summed with one fsum.  lerch_tail(0, s, a) is
    the Hurwitz zeta(s, a), so zeta(s) is lerch_tail(0, s, 1) and the trigamma
    psi_1(x) is lerch_tail(0, 2, x).
    """
    finite = math.isfinite(mu) and math.isfinite(s) and math.isfinite(a)
    if not (finite and mu >= 0.0 and s >= 0.0 and a >= 1.0 and (s > 1.0 or mu > 0.0)):
        raise DomainError(f"lerch_tail needs finite mu >= 0, s >= 0 (s > 1 at mu = 0) "
                          f"and a >= 1, got mu={mu}, s={s}, a={a}")
    b = a + _ZETA_HEAD
    terms = [_exp_neg(mu, a + n) * (a + n) ** -s for n in range(_ZETA_HEAD)]
    decay = _exp_neg(mu, b)
    # the integral, b^{1-s} E_s(mu b); b^{1-s}/(s - 1) at mu = 0
    if mu:
        terms.append(b ** (1.0 - s) * decay * _scaled_expint(s, mu * b))
    else:
        terms.append(b ** (1.0 - s) / (s - 1.0))
    # -f^(m)(b) = sum_i C(m, i) mu^(m-i) f_i at odd m, f_i = e^{-mu b} s(s+1)...(s+i-1)
    # b^(-s-i); a zero f_i is skipped, as mu^(m-i) may overflow once e^{-mu b} is 0
    f = [decay * b**-s]
    for i in range(1, 2 * len(_EM_COEFFS)):
        f.append(f[-1] * (s + i - 1) / b)
    terms.append(0.5 * f[0])
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        m = 2 * k - 1
        deriv = (math.comb(m, i) * mu ** (m - i) * fi for i, fi in enumerate(f[: m + 1]) if fi)
        terms.append(coeff * math.fsum(deriv))
    return math.fsum(terms)


def li(v: float, x: float) -> float:
    """Li_v(x) = sum_{n>=1} x^n / n^v for x in [0, 1].

    Supported orders: v >= 2 on the closed interval, or v > 1 with x < 1.
    A direct head of at most 64 terms, which ends early once n^v passes the
    largest double (that term and the rest are below 1e-308 x), then
    lerch_tail(-log x, v, 65).
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument x={x} outside [0, 1]")
    if not (v >= 2.0 or (v > 1.0 and x < 1.0)):  # also true for a NaN v
        raise DomainError(f"order v={v} unsupported at x={x}")
    if x == 0.0 or v == math.inf:  # Li_v(0) = 0; Li_inf(x) = x, as n^inf is infinite past n = 1
        return x
    terms = []
    for n in range(1, 65):
        try:
            terms.append(x**n / n**v)
        except OverflowError:
            return math.fsum(terms)
    return math.fsum(terms + [lerch_tail(-math.log(x), v, 65.0)])
