"""Polylogarithm Li_v(x) on x in [0, 1], accurate to 1e-12 relative.

The dilogarithm (v = 2) is the primary order: for x <= 1/2 the defining
series already converges geometrically at rate <= 2^-n; for x > 1/2 the
Euler reflection identity

    Li_2(x) + Li_2(1 - x) = pi^2/6 - ln(x) ln(1 - x)

restores that rate.  Orders v > 2 fall back to the direct series; at x = 1
the value is zeta(v), from the Hurwitz zeta that the bounds share.
"""

from __future__ import annotations

import math

from .errors import DomainError

ZETA2 = math.pi**2 / 6
#: hard stop of the direct series, far beyond any cut the tail bounds make
_SERIES_MAX_TERMS = 20_000_000


def _series_sum(v: float, x: float) -> float:
    """Direct sum of x^n / n^v, rounded once by fsum in constant memory; stops
    once either tail bound falls below 1e-16 x, and so below 1e-16 of the sum
    (its first term is x), or once n^v passes the largest double (that term
    and the tail after it are below 1e-308 x), and raises DomainError if
    neither happens within `_SERIES_MAX_TERMS` terms."""

    def terms():
        xn = 1.0
        for n in range(1, _SERIES_MAX_TERMS + 1):
            xn *= x
            try:
                term = xn / n**v
            except OverflowError:
                return
            yield term
            # geometric tail and integral-test tail; either certifies the cut (a term
            # that underflows to 0 has x < 1, so its geometric tail is 0 too)
            geo = term * x / (1.0 - x) if x < 1.0 else math.inf
            power = xn * x * n ** (1.0 - v) / (v - 1.0) if v > 1.0 else math.inf
            # a relative cut: an absolute one loses 1e-16/x relative at small x
            # (divided, not 1e-16 * x, which underflows to 0 for a subnormal x)
            if min(geo, power) / x < 1e-16:
                return
        raise DomainError(f"Li_{v}({x}): tail above 1e-16 x after {_SERIES_MAX_TERMS} terms")

    return math.fsum(terms())


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


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum_{n>=0} (a+n)^-s for s > 1 and a >= 1.

    A direct head of 16 terms, then the Euler-Maclaurin tail at b = a + 16
    with seven Bernoulli corrections, summed with fsum; agrees with
    scipy.special.zeta to ~5e-16 relative.  zeta(s) is hurwitz_zeta(s, 1) and
    the trigamma function psi_1(x) is hurwitz_zeta(2, x).
    """
    if not (s > 1.0 and a >= 1.0):
        raise DomainError(f"hurwitz_zeta needs s > 1 and a >= 1, got s={s}, a={a}")
    b = a + _ZETA_HEAD
    terms = [(a + n) ** -s for n in range(_ZETA_HEAD)]
    terms += [b ** (1.0 - s) / (s - 1.0), 0.5 * b**-s]
    corr = s * b ** (-s - 1.0)  # s (s+1) ... (s+2k-2) b^(-s-2k+1) at k = 1
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * corr)
        corr *= (s + 2 * k - 1) / b * (s + 2 * k) / b
    return math.fsum(terms)


def li(v: float, x: float) -> float:
    """Li_v(x) = sum_{n>=1} x^n / n^v for x in [0, 1].

    Supported orders: v >= 2 on the closed interval, or v > 1 with x < 1
    (there the direct series is still absolutely convergent).
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument x={x} outside [0, 1]")
    if not (v >= 2.0 or (v > 1.0 and x < 1.0)):  # also true for a NaN v
        raise DomainError(f"order v={v} unsupported at x={x}")
    if x == 0.0:
        return 0.0
    if v == 2.0:
        if x == 1.0:
            return ZETA2
        if x > 0.5:
            return ZETA2 - math.log(x) * math.log1p(-x) - _series_sum(2.0, 1.0 - x)
        return _series_sum(2.0, x)
    if x == 1.0:
        return hurwitz_zeta(v, 1.0)
    return _series_sum(v, x)
